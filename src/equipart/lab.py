"""Exhaustive desk-scale sweeps comparing the prefix condition to the oracle.

sweep() enumerates every size sequence in a bound box, predicts
feasibility from the verdict pipeline, and settles the truth with the
exhaustive search; a row the prefix condition refutes is settled by that
proof, the search's root test.  A resolved disagreement is a
counterexample candidate, not a bug: for k <= 4 none can exist (that
range is proven), while for k >= 5 one would be a reportable finding
against the sufficiency conjecture.

check_symmetric() covers the equal-part-size family: p parts of size m
exist iff the magic sum divides, except that part size 1 collapses to
the complete graph, which is never distance magic for p >= 2 even when
the parity clause (m even, or m and p both odd) holds.

Rows are independent and computed optionally in worker processes; they
come back in box order (the order of the tasks, which serial runs and
Pool.map both keep), so reports are byte-stable for a fixed
configuration.
"""

from __future__ import annotations

import copy
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .core import Instance, _check_count, magic_sum
from .feasibility import FeasibilityStatus, feasibility
from .solver import DEFAULT_NODE_BUDGET, solve_exact


def enumerate_size_sequences(n: int, k: int, min_part: int) -> Iterator[tuple[int, ...]]:
    """All non-decreasing k-tuples of integers >= max(min_part, 1) summing to n.

    Yielded in lexicographic order; empty when no such tuple exists.  Each
    tuple is built from the one before in a loop, without recursion, so k
    is not bounded by the interpreter's stack.
    """
    _check_count("n", n, 1)
    _check_count("k", k, 1)
    _check_count("min_part", min_part)
    lo = max(min_part, 1)
    if n < k * lo:
        return
    parts = [lo] * (k - 1) + [n - (k - 1) * lo]
    while True:
        yield tuple(parts)
        # The successor grows the rightmost part i that can take one more,
        # sets the parts after it up to the last to the new value, and gives
        # the last what is left; tail is the sum of the parts after i.
        tail = parts[-1]
        i = k - 2
        while i >= 0 and (k - i) * (parts[i] + 1) > parts[i] + tail:
            tail += parts[i]
            i -= 1
        if i < 0:
            return
        v = parts[i] + 1
        parts[i:] = [v] * (k - 1 - i) + [parts[i] + tail - (k - 1 - i) * v]


def _box(n_max: int, ks, min_part: int) -> Iterator[Instance]:
    """Every instance with n <= n_max, k in ks and an integral magic sum.

    Ordered by n, then k, then size sequence, with parts >= min_part.
    """
    for n in range(1, n_max + 1):
        for k in ks:
            if magic_sum(n, k) is not None:
                for sizes in enumerate_size_sequences(n, k, min_part):
                    yield Instance(n=n, sizes=sizes)


@dataclass(frozen=True)
class SweepRow:
    """One instance compared against the oracle."""

    n: int
    k: int
    sizes: tuple[int, ...]
    verdict: str
    predicted: bool
    oracle: str  # found / not_found / budget
    agree: bool


@dataclass(frozen=True)
class SymmetricRow:
    """One equal-part-size case (p parts of size m) against the parity rule."""

    m: int
    p: int
    n: int
    criterion: bool
    oracle: str
    agree: bool


@dataclass(frozen=True)
class SweepReport:
    """Deterministic record of a sweep: rows, the disagreeing rows, counters."""

    rows: tuple = ()
    mismatches: tuple = ()
    totals: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def budget_rows(self) -> int:
        return self.totals.get("budget", 0)

    def to_jsonable(self) -> dict:
        """Fresh containers; a copied row __dict__ equals asdict(row): its fields are immutable."""
        return {
            "config": copy.deepcopy(self.config),
            "totals": dict(self.totals),
            "rows": [dict(vars(r)) for r in self.rows],
            "mismatches": [dict(vars(r)) for r in self.mismatches],
        }


def _agrees(predicted: bool, oracle: str) -> bool:
    """A budget row is unresolved, so it agrees; any other must find what was predicted."""
    return oracle == "budget" or predicted == (oracle == "found")


def _sweep_row(task: tuple[Instance, int]) -> SweepRow:
    inst, budget = task
    verdict = feasibility(inst)
    refuted = verdict.status is FeasibilityStatus.INFEASIBLE_CONDITION  # the search's own root test
    oracle = "not_found" if refuted else solve_exact(inst, budget=budget).status.value
    return SweepRow(n=inst.n, k=inst.k, sizes=inst.sizes, verdict=verdict.status.value,
                    predicted=verdict.predicts_feasible, oracle=oracle,
                    agree=_agrees(verdict.predicts_feasible, oracle))


def _check_budget_workers(budget: int, workers: int) -> None:
    # A negative budget would report every row as unresolved, and fewer
    # than one worker would silently run serially.  A float would go into
    # the report, or fail later inside Pool.
    _check_count("budget", budget)
    _check_count("workers", workers, 1)


def _check_box(n_max: int, k_set, min_part: int) -> list[int]:
    """Reject a box bound or k that is not an int >= 1; return the k values, sorted."""
    _check_count("n_max", n_max, 1)
    _check_count("min_part", min_part, 1)
    for k in k_set:
        _check_count("k", k, 1)
    return sorted(set(k_set))


def _run_tasks(worker, tasks, workers: int) -> list:
    """worker(task) for every task, in task order, serially or through a Pool."""
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        # Imported here: multiprocessing costs every serial caller about 1 MB.
        from multiprocessing import Pool

        with Pool(processes=processes) as pool:
            return pool.map(worker, tasks)
    return [worker(t) for t in tasks]


def _assemble(rows: list, config: dict, extra_totals: dict[str, int]) -> SweepReport:
    mismatches = tuple(r for r in rows if not r.agree)
    answers = Counter(r.oracle for r in rows)
    totals = {
        "rows": len(rows),
        "mismatches": len(mismatches),
        "found": answers["found"],
        "not_found": answers["not_found"],
        "budget": answers["budget"],
        **extra_totals,
    }
    return SweepReport(
        rows=tuple(rows), mismatches=mismatches, totals=totals, config=config
    )


def sweep(
    n_max: int,
    k_set,
    min_part: int,
    budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> SweepReport:
    """Condition-vs-oracle comparison over every instance in the box.

    Covers every n <= n_max and k in k_set with an integral magic sum,
    and every non-decreasing size sequence with parts >= min_part.  With
    min_part = 1, size-one cases are predicted by the size-one rule (the
    verdict pipeline applies it before the prefix condition).  A row the
    prefix condition refutes is not_found without a search, since the
    search would stop on that same test at node 0.  Budget exhaustion is
    recorded per row and never counted as a mismatch.
    """
    ks = _check_box(n_max, k_set, min_part)
    _check_budget_workers(budget, workers)
    tasks = [(inst, budget) for inst in _box(n_max, ks, min_part)]
    rows = _run_tasks(_sweep_row, tasks, workers)
    config = {
        "sweep": "size_sequences",
        "n_max": n_max,
        "k_set": ks,
        "min_part": min_part,
        "budget": budget,
    }
    return _assemble(rows, config, Counter(f"verdict_{r.verdict}" for r in rows))


def _symmetric_row(task: tuple[int, int, int]) -> SymmetricRow:
    m, p, budget = task
    n = m * p
    # Classical existence rule for equal part sizes; it coincides with
    # divisibility of the magic sum.  Part size 1 is the complete graph:
    # never magic for p >= 2, whatever the parity says.
    criterion = m >= 2 and (m % 2 == 0 or p % 2 == 1)
    if magic_sum(n, p) is None:
        oracle = "not_found"  # divisibility failure counts as no labeling
    else:
        exact = solve_exact(Instance(n=n, sizes=(m,) * p), budget=budget)
        oracle = exact.status.value
    return SymmetricRow(m=m, p=p, n=n, criterion=criterion, oracle=oracle,
                        agree=_agrees(criterion, oracle))


def check_symmetric(
    max_total: int, budget: int = DEFAULT_NODE_BUDGET, workers: int = 1
) -> SweepReport:
    """Oracle-vs-parity-rule check for all m >= 1, p >= 2 with m*p <= max_total."""
    _check_count("max_total", max_total, 2)
    _check_budget_workers(budget, workers)
    tasks = [
        (m, p, budget)
        for m in range(1, max_total // 2 + 1)
        for p in range(2, max_total // m + 1)
    ]
    rows = _run_tasks(_symmetric_row, tasks, workers)
    config = {"sweep": "symmetric", "max_total": max_total, "budget": budget}
    return _assemble(rows, config, {})
