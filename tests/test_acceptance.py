"""Acceptance suite: eight criteria, one pass/fail line each.

Every criterion builds a canonical JSON report from deterministic inputs
(fixed seeds, no timing fields); the final criterion rebuilds all of
them and demands byte-identical output.  Run with -s to see the lines.
The sha256 of each report is pinned as well, so a report cannot change
between commits unnoticed; a change that alters one on purpose updates
its digest.
"""

import gc
import hashlib
import json
import math
import random
import time

import pytest

from equipart.core import Instance, magic_sum, swap, swap_delta, deviation
from equipart.graphs import verify_closed_magic_cycle
from equipart.lab import check_symmetric, sweep
from equipart.solver import SolveStatus, solve, solve_k2

from helpers import block_of, canon, random_cross_block_pair, random_partition, verify_open_checked

SWAP_TRIALS = 10_000
SWAP_SEED = 0x5EED_2026
K2_TRIALS = 200
K2_SEED = 0xEC0_FFEE
K2_TIME_BUDGET_S = 1.0
REPORT_SHA256 = {
    "c1_proven_range_sweep": "18809c6c2affb45c0a2fb1f7aeb239a64db4559559eb55f603e51cdc2a38dd15",
    "c2_size_one_sweep": "ed7ccf42e42c8d244b7af01a0ac191823a955133443d68d309d114927a959a4e",
    "c3_solver_conformance": "8f35d7ec74daabf0e6d657d3ae658cf417365b66f96a3b47e8a68db1d46e998c",
    "c4_swap_delta": "8f405ba9f7a3448d464e0e71be62a1bbeac9878aaa3323b8b53901c418c689bf",
    "c5_k2_construction": "fcd7ce1a29e6d5a3aee7a261284e1a8b8b4cfef0a5fa13c13336ecb857d299cf",
    "c6_symmetric": "f04e8084b9f47eabc3c11132160aafa2f23052e58d25022ad37c2f5c940c51d2",
    "c7_conjecture_probe": "4a2d168fb4166581bbfaa605f35bb283545fad2d73e9a9af266557939b322bc0",
}


def _solver_conformance_report(found_rows) -> dict:
    """Solve every feasible instance and verify both graph conditions."""
    rows = []
    failures = 0
    for row in found_rows:
        inst = Instance(n=row.n, sizes=row.sizes)
        s = magic_sum(inst.n, inst.k)
        total = inst.n * (inst.n + 1) // 2
        res = solve(inst)
        entry = {"n": inst.n, "k": inst.k, "sizes": list(inst.sizes)}
        ok = res.status is SolveStatus.SOLVED
        if ok:
            check = verify_open_checked(res.partition)
            entry["constant"] = check.constant
            ok = check.is_magic and check.constant == total - s
            if ok and inst.k == 4:
                closed = verify_closed_magic_cycle(res.partition)
                entry["closed_constant"] = closed.constant
                ok = closed.is_magic and closed.constant == 3 * s
            elif ok and inst.k == 3:
                # degenerate cycle: closed neighborhoods cover everything
                closed = verify_closed_magic_cycle(res.partition)
                entry["closed_constant"] = closed.constant
                ok = closed.is_magic and closed.constant == total
        entry["ok"] = ok
        failures += 0 if ok else 1
        rows.append(entry)
    return {"instances": len(rows), "failures": failures, "rows": rows}


def _swap_delta_report() -> dict:
    """Randomized exchange-delta law over n <= 50."""
    rng = random.Random(SWAP_SEED)
    exact = 0
    signs = {"positive": 0, "zero": 0, "negative": 0}
    sign_law_ok = True
    for _ in range(SWAP_TRIALS):
        p = random_partition(rng, max_n=50)
        a, b = random_cross_block_pair(rng, p)
        s = (p.n * (p.n + 1) // 2) // p.k
        delta = swap_delta(p, a, b)
        if deviation(swap(p, a, b), s) - deviation(p, s) == delta:
            exact += 1
        t = b - a
        u = p.sums[block_of(p, b)] - p.sums[block_of(p, a)]
        if t > u:
            signs["positive"] += 1
            sign_law_ok &= delta > 0
        elif t == u:
            signs["zero"] += 1
            sign_law_ok &= delta == 0
        else:
            signs["negative"] += 1
            sign_law_ok &= delta < 0
    return {
        "trials": SWAP_TRIALS,
        "seed": SWAP_SEED,
        "exact_matches": exact,
        "sign_counts": signs,
        "sign_law_ok": sign_law_ok,
    }


def _draw_k2_instances() -> list[tuple[int, int]]:
    """195 log-uniform draws up to 10^4 plus five pinned up to 10^6."""
    rng = random.Random(K2_SEED)
    instances: list[tuple[int, int]] = []
    while len(instances) < K2_TRIALS - 5:
        n = int(math.exp(rng.uniform(math.log(10), math.log(10**4))))
        if n % 4 not in (0, 3):
            continue
        s = n * (n + 1) // 4
        p1 = rng.randint(2, n // 2)
        if p1 * n - p1 * (p1 - 1) // 2 < s:
            continue  # top-p1 elements cannot reach the magic sum
        instances.append((n, p1))
    for n in (10**5, 250_000, 500_000, 750_000, 10**6):
        instances.append((n, n // 3))
    return instances


def _k2_batch(instances: list[tuple[int, int]]) -> int:
    verified = 0
    for n, p1 in instances:
        p = solve_k2(Instance.from_sizes(n, [p1, n - p1]))
        s = n * (n + 1) // 4
        small, rest = p.blocks
        ok = (
            len(small) == p1
            and len(rest) == n - p1
            and sum(small) == s  # recomputed, not the cached value
            and n * (n + 1) // 2 - p.sums[0] == s  # complement-sum formula
        )
        verified += 1 if ok else 0
    return verified


def _k2_report() -> tuple[dict, float]:
    instances = _draw_k2_instances()
    # best-of-3 timing with pre-collection: measures the construction's
    # cost, not garbage left over from earlier criteria or system noise
    elapsed = math.inf
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        verified = _k2_batch(instances)
        elapsed = min(elapsed, time.perf_counter() - t0)
        if elapsed < K2_TIME_BUDGET_S / 2:
            break
    report = {
        "trials": len(instances),
        "seed": K2_SEED,
        "max_n": max(n for n, _ in instances),
        "verified": verified,
    }
    return report, elapsed


def build_reports() -> dict[str, str]:
    """All deterministic criterion reports as canonical JSON strings."""
    proven_range_sweep = sweep(20, {2, 3, 4}, 2)
    size_one_sweep = sweep(20, {2, 3, 4}, 1)
    found_rows = [r for r in proven_range_sweep.rows if r.oracle == "found"]
    conjecture_sweep = sweep(18, {5}, 2)
    symmetric = check_symmetric(21)
    k2_report, k2_elapsed = _k2_report()
    reports = {
        "c1_proven_range_sweep": canon(proven_range_sweep.to_jsonable()),
        "c2_size_one_sweep": canon(size_one_sweep.to_jsonable()),
        "c3_solver_conformance": canon(_solver_conformance_report(found_rows)),
        "c4_swap_delta": canon(_swap_delta_report()),
        "c5_k2_construction": canon(k2_report),
        "c6_symmetric": canon(symmetric.to_jsonable()),
        "c7_conjecture_probe": canon(conjecture_sweep.to_jsonable()),
    }
    reports["_k2_elapsed"] = json.dumps(k2_elapsed)  # timing kept out of c5's report
    return reports


@pytest.fixture(scope="module")
def reports() -> dict[str, str]:
    return build_reports()


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_1_proven_range_exhaustive(reports):
    data = json.loads(reports["c1_proven_range_sweep"])
    ok = data["totals"]["mismatches"] == 0 and data["totals"]["budget"] == 0
    _line(
        1,
        ok,
        f"prefix condition <=> oracle, k in {{2,3,4}}, parts >= 2, n <= 20: "
        f"{data['totals']['rows']} instances, {data['totals']['mismatches']} mismatches",
    )
    assert ok


def test_criterion_2_size_one_rule(reports):
    data = json.loads(reports["c2_size_one_sweep"])
    ok = data["totals"]["mismatches"] == 0 and data["totals"]["budget"] == 0
    size_one_rows = sum(1 for r in data["rows"] if r["sizes"][0] == 1)
    _line(
        2,
        ok,
        f"size-one rule vs oracle, parts >= 1, n <= 20: {data['totals']['rows']} "
        f"instances ({size_one_rows} with a size-1 part), "
        f"{data['totals']['mismatches']} mismatches",
    )
    assert ok


def test_criterion_3_solver_pipeline(reports):
    data = json.loads(reports["c3_solver_conformance"])
    ok = data["failures"] == 0 and data["instances"] > 0
    _line(
        3,
        ok,
        f"solve + open/closed verification on {data['instances']} feasible "
        f"instances: {data['failures']} failures",
    )
    assert ok


def test_criterion_4_swap_delta_law(reports):
    data = json.loads(reports["c4_swap_delta"])
    ok = data["exact_matches"] == data["trials"] and data["sign_law_ok"]
    counts = data["sign_counts"]
    _line(
        4,
        ok,
        f"exchange-delta law on {data['trials']} random triples: "
        f"{data['exact_matches']} exact "
        f"(+{counts['positive']}/0:{counts['zero']}/-{counts['negative']})",
    )
    assert ok
    assert counts["zero"] > 0, "trichotomy zero case never sampled"


def test_criterion_5_k2_construction(reports):
    data = json.loads(reports["c5_k2_construction"])
    elapsed = json.loads(reports["_k2_elapsed"])
    ok = (
        data["verified"] == data["trials"] == K2_TRIALS
        and data["max_n"] == 10**6
        and elapsed < K2_TIME_BUDGET_S
    )
    _line(
        5,
        ok,
        f"two-block construction on {data['trials']} instances up to "
        f"n={data['max_n']}: {data['verified']} verified in {elapsed:.3f}s",
    )
    assert ok


def test_criterion_6_symmetric_criterion(reports):
    data = json.loads(reports["c6_symmetric"])
    ok = data["totals"]["mismatches"] == 0 and data["totals"]["budget"] == 0
    _line(
        6,
        ok,
        f"equal-part-size family, m*p <= 21: {data['totals']['rows']} cases, "
        f"{data['totals']['mismatches']} mismatches",
    )
    assert ok


def test_criterion_7_conjecture_probe(reports):
    data = json.loads(reports["c7_conjecture_probe"])
    resolved = data["totals"]["budget"] == 0
    candidates = data["mismatches"]
    _line(
        7,
        resolved,
        f"k=5 probe, parts >= 2, n <= 18: {data['totals']['rows']} instances "
        f"all resolved, {len(candidates)} counterexample candidates"
        + (f" -> {candidates}" if candidates else ""),
    )
    # only resolution and deterministic reporting are required; a non-empty
    # candidate list would be a finding, not a test failure
    assert resolved


def test_criterion_8_determinism(reports):
    second = build_reports()
    volatile = {"_k2_elapsed"}
    diffs = [
        name
        for name in reports
        if name not in volatile and reports[name] != second[name]
    ]
    ok = not diffs
    _line(8, ok, f"two runs of criteria 1-7 byte-identical: "
          f"{len(reports) - len(volatile)} reports compared"
          + (f", differing: {diffs}" if diffs else ""))
    assert ok


def test_reports_match_pinned_digests(reports):
    digests = {name: hashlib.sha256(reports[name].encode()).hexdigest() for name in REPORT_SHA256}
    changed = sorted(name for name in REPORT_SHA256 if digests[name] != REPORT_SHA256[name])
    assert not changed, f"reports differ from their pinned digests: {changed}"
