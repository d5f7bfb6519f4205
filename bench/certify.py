"""Independent answer checks for the benchmark.

Nothing here imports equipart: every answer the program gives is checked
against arithmetic done from scratch (the certifying-algorithms view of
McConnell, Mehlhorn, Naher & Schweitzer, Comput. Sci. Rev. 2011).  Each
check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations


def magic_sum(n: int, k: int) -> int | None:
    total = n * (n + 1) // 2
    return total // k if total % k == 0 else None


def prefix_condition(n: int, sizes) -> bool:
    """Integral magic sum and, for each j, the P_j largest labels reach j*s.

    Sizes must be at least 2 (no size-one rule is applied).
    """
    ordered = sorted(sizes)
    s = magic_sum(n, len(ordered))
    if s is None:
        return False
    taken = 0
    for j, p in enumerate(ordered, start=1):
        taken += p
        if taken * n - taken * (taken - 1) // 2 < j * s:
            return False
    return True


def size_sequences(n: int, k: int, min_part: int):
    """Non-decreasing k-tuples of parts >= min_part summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for p in range(min_part, n // k + 1):
        for rest in size_sequences(n - p, k - 1, p):
            yield (p,) + rest


def sweep_box(n_max: int, ks, min_part: int = 2) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every (n, k, sizes) a sweep over the box must report, in report order."""
    rows = []
    for n in range(1, n_max + 1):
        for k in sorted(ks):
            if magic_sum(n, k) is None:
                continue
            rows.extend((n, k, sizes) for sizes in size_sequences(n, k, min_part))
    return rows


def partition_problems(n: int, sizes, blocks) -> list[str]:
    """Blocks match sizes slot by slot, cover [n] disjointly, and all sum to s."""
    s = magic_sum(n, len(sizes))
    if s is None:
        return [f"n={n} k={len(sizes)} has no integral magic sum"]
    if blocks is None or len(blocks) != len(sizes):
        return [f"expected {len(sizes)} blocks, got {None if blocks is None else len(blocks)}"]
    problems = []
    seen = bytearray(n + 1)
    for i, (block, size) in enumerate(zip(blocks, sizes)):
        if len(block) != size:
            problems.append(f"block {i} has size {len(block)}, expected {size}")
        total = 0
        for x in block:
            if type(x) is not int or not 1 <= x <= n or seen[x]:
                problems.append(f"block {i}: label {x!r} is out of range or repeated")
                break
            seen[x] = 1
            total += x
        if total != s:
            problems.append(f"block {i} sums to {total}, expected {s}")
    if not problems and seen.count(1) != n:
        problems.append("blocks do not cover [n]")
    return problems


def graph_constant(n: int, s: int) -> int:
    """Open neighbourhood sum of an equitable labeling: n(n+1)/2 - s."""
    return n * (n + 1) // 2 - s


def closed_constant(n: int, k: int, s: int) -> int:
    """Closed sum on the cycle of cliques: everything for k = 3, else 3s."""
    return n * (n + 1) // 2 if k == 3 else 3 * s


def sweep_problems(report: dict, box, exit_code: int) -> tuple[list[str], int, int]:
    """Check a sweep report against the box; return (problems, failed, unresolved).

    A row is resolved when the oracle settled it and agrees with the prefix
    condition.  Budget rows and k >= 5 disagreements (conjecture findings)
    are unresolved rows; a k <= 4 disagreement contradicts the proven range
    and is a wrong answer, and so is a row with an unknown oracle status,
    which also counts as failed.
    """
    problems = []
    rows = report.get("rows", [])
    got = [(r["n"], r["k"], tuple(r["sizes"])) for r in rows]
    if got != box:
        problems.append(f"report lists {len(got)} rows, the box has {len(box)} (or order differs)")
    failed = unresolved = budget = mismatches = 0
    for r in rows:
        predicted = prefix_condition(r["n"], r["sizes"])
        if r["predicted"] != predicted:
            problems.append(f"row {r['n']},{r['sizes']}: predicted={r['predicted']}, condition says {predicted}")
        if r["oracle"] == "budget":
            budget += 1
            unresolved += 1
            agree = True
        elif r["oracle"] in ("found", "not_found"):
            agree = predicted == (r["oracle"] == "found")
            if not agree:
                mismatches += 1
                unresolved += 1
                if r["k"] <= 4:
                    problems.append(f"row {r['n']},{r['sizes']}: oracle {r['oracle']} contradicts the proven range")
        else:
            problems.append(f"row {r['n']},{r['sizes']}: unknown oracle status {r['oracle']!r}")
            failed += 1
            agree = True
        if r["agree"] != agree:
            problems.append(f"row {r['n']},{r['sizes']}: agree={r['agree']}, expected {agree}")
    totals = report.get("totals", {})
    for key, want in (("rows", len(box)), ("budget", budget), ("mismatches", mismatches)):
        if totals.get(key) != want:
            problems.append(f"totals[{key!r}] = {totals.get(key)}, expected {want}")
    want_exit = 1 if mismatches else 3 if budget else 0
    if exit_code != want_exit:
        problems.append(f"sweep exited {exit_code}, expected {want_exit}")
    return problems, failed, unresolved
