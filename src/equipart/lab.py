"""Exhaustive desk-scale sweeps comparing the prefix condition to the oracle.

sweep() enumerates every size sequence in a bound box, predicts
feasibility from the verdict pipeline, and settles the truth with the
exhaustive search.  A resolved disagreement is a counterexample
candidate, not a bug: for k <= 4 none can exist (that range is proven),
while for k >= 5 one would be a reportable finding against the
sufficiency conjecture.

check_symmetric() covers the equal-part-size family: p parts of size m
exist iff the magic sum divides, except that part size 1 collapses to
the complete graph, which is never distance magic for p >= 2 even when
the parity clause (m even, or m and p both odd) holds.

Rows are independent, computed optionally in worker processes, and
always merged in sorted order, so reports are byte-stable for a fixed
configuration.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from multiprocessing import Pool
from typing import Iterator

from .core import Instance, magic_sum
from .feasibility import feasibility
from .solver import (
    DEFAULT_NODE_BUDGET,
    ExactStatus,
    SearchParams,
    local_search,
    solve_exact,
)


def enumerate_size_sequences(n: int, k: int, min_part: int) -> Iterator[tuple[int, ...]]:
    """All non-decreasing k-tuples of integers >= min_part summing to n.

    Yielded in lexicographic order; empty when no such tuple exists.
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")

    def rec(remaining: int, slots: int, lo: int, prefix: tuple[int, ...]):
        if slots == 0:
            if remaining == 0:
                yield prefix
            return
        # Parts are non-decreasing, so the current one is at most remaining/slots.
        for p in range(lo, remaining // slots + 1):
            yield from rec(remaining - p, slots - 1, p, prefix + (p,))

    yield from rec(n, k, max(min_part, 1), ())


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
        return {
            "config": self.config,
            "totals": self.totals,
            "rows": [asdict(r) for r in self.rows],
            "mismatches": [asdict(r) for r in self.mismatches],
        }

    def to_json(self) -> str:
        """Canonical serialization: identical configs give identical bytes."""
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))


def _sweep_row(task: tuple[Instance, int]) -> SweepRow:
    inst, budget = task
    verdict = feasibility(inst)
    exact = solve_exact(inst, budget=budget)
    oracle = exact.status.value
    if exact.status is ExactStatus.BUDGET:
        # Unresolved: no evidence of disagreement, counted under "budget".
        agree = True
    else:
        agree = verdict.predicts_feasible == (exact.status is ExactStatus.FOUND)
    return SweepRow(
        n=inst.n,
        k=inst.k,
        sizes=inst.sizes,
        verdict=verdict.status.value,
        predicted=verdict.predicts_feasible,
        oracle=oracle,
        agree=agree,
    )


def _check_budget_workers(budget: int, workers: int = 1) -> None:
    # A negative budget would report every row as unresolved (or, in
    # descent_success, skip every row and report a rate of 1.0 over none),
    # and fewer than one worker would silently run serially.
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _run_tasks(worker, tasks, workers: int) -> list:
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        with Pool(processes=processes) as pool:
            return pool.map(worker, tasks)
    return [worker(t) for t in tasks]


def _assemble(rows: list, config: dict, extra_totals: dict[str, int]) -> SweepReport:
    mismatches = tuple(r for r in rows if not r.agree)
    totals = {
        "rows": len(rows),
        "mismatches": len(mismatches),
        "found": sum(1 for r in rows if r.oracle == "found"),
        "not_found": sum(1 for r in rows if r.oracle == "not_found"),
        "budget": sum(1 for r in rows if r.oracle == "budget"),
    }
    totals.update(extra_totals)
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
    verdict pipeline applies it before the prefix condition).  Budget
    exhaustion is recorded per row and never counted as a mismatch.
    """
    if n_max < 1 or min_part < 1:
        raise ValueError("n_max and min_part must be >= 1")
    _check_budget_workers(budget, workers)
    ks = sorted(set(k_set))
    tasks = [(inst, budget) for inst in _box(n_max, ks, min_part)]
    rows = _run_tasks(_sweep_row, tasks, workers)
    rows.sort(key=lambda r: (r.n, r.k, r.sizes))
    config = {
        "sweep": "size_sequences",
        "n_max": n_max,
        "k_set": ks,
        "min_part": min_part,
        "budget": budget,
    }
    verdict_counts: dict[str, int] = {}
    for r in rows:
        key = f"verdict_{r.verdict}"
        verdict_counts[key] = verdict_counts.get(key, 0) + 1
    return _assemble(rows, config, verdict_counts)


def descent_success(
    n_max: int,
    k_set,
    min_part: int = 2,
    params=None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Success rate of the exchange descent alone on feasible instances.

    The descent (greedy start, strictly-improving exchanges, plateau
    drift, restarts) is not proven complete; this measures how often it
    reaches an equitable partition without the exact fallback, over every
    oracle-confirmed-feasible instance in the box.  Failures list the
    instances the descent missed.
    """
    _check_budget_workers(budget)
    if params is None:
        params = SearchParams()
    ks = sorted(set(k_set))
    attempted = 0
    solved = 0
    failures: list[dict] = []
    for inst in _box(n_max, ks, min_part):
        if solve_exact(inst, budget=budget).status is not ExactStatus.FOUND:
            continue
        attempted += 1
        if local_search(inst, params) is not None:
            solved += 1
        else:
            failures.append({"n": inst.n, "k": inst.k, "sizes": list(inst.sizes)})
    return {
        "attempted": attempted,
        "solved_by_descent": solved,
        "rate": solved / attempted if attempted else 1.0,
        "failures": failures,
        "config": {"n_max": n_max, "k_set": ks, "min_part": min_part},
    }


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
    agree = True if oracle == "budget" else criterion == (oracle == "found")
    return SymmetricRow(m=m, p=p, n=n, criterion=criterion, oracle=oracle, agree=agree)


def check_symmetric(
    max_total: int, budget: int = DEFAULT_NODE_BUDGET, workers: int = 1
) -> SweepReport:
    """Oracle-vs-parity-rule check for all m >= 1, p >= 2 with m*p <= max_total."""
    if max_total < 2:
        raise ValueError(f"max_total must be >= 2, got {max_total}")
    _check_budget_workers(budget, workers)
    tasks = [
        (m, p, budget)
        for m in range(1, max_total // 2 + 1)
        for p in range(2, max_total // m + 1)
    ]
    rows = _run_tasks(_symmetric_row, tasks, workers)
    rows.sort(key=lambda r: (r.m, r.p))
    config = {"sweep": "symmetric", "max_total": max_total, "budget": budget}
    return _assemble(rows, config, {})
