"""Existence tests for equitable partitions implementing given block sizes.

The decision pipeline, in order:

1. divisibility: the magic sum s = n(n+1)/(2k) must be an integer;
2. the size-one rule: a size-1 block must be {n}, forcing s = n, i.e.
   k = (n+1)/2, and then every other block has size 2;
3. the prefix condition: for each j, the P_j largest elements of [n]
   must sum to at least j*s, where P_j = p_1 + ... + p_j;
4. proof status: the prefix condition is sufficient for k <= 4 (proven);
   for k >= 5 a passing instance is reported as conjectured only.

Verdicts are deterministic: a failing prefix condition reports the
smallest failing index j.

condition_failing_index checks the prefix condition in exact integers,
one inequality per prefix as the paper states it.  It is also the exact
search's root test in solver: at the root, where no label is placed yet,
the search's bound on unions of blocks is this condition.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .core import Instance, _check_count, _check_n, magic_sum


class FeasibilityStatus(Enum):
    INFEASIBLE_DIVISIBILITY = "infeasible_divisibility"
    INFEASIBLE_CONDITION = "infeasible_condition"
    INFEASIBLE_SIZE_ONE = "infeasible_size_one"
    FEASIBLE_PROVEN = "feasible_proven"
    CONDITION_HOLDS_CONJECTURED = "condition_holds_conjectured"


#: Statuses predicting that an equitable partition exists.
_POSITIVE = (
    FeasibilityStatus.FEASIBLE_PROVEN,
    FeasibilityStatus.CONDITION_HOLDS_CONJECTURED,
)


@dataclass(frozen=True)
class Verdict:
    """Feasibility outcome with proof status.

    failing_index is the smallest failing prefix index (1-based) for
    INFEASIBLE_CONDITION; reason explains INFEASIBLE_SIZE_ONE verdicts.
    s is the magic sum whenever divisibility holds.
    """

    status: FeasibilityStatus
    s: int | None = None
    failing_index: int | None = None
    reason: str | None = None

    @property
    def predicts_feasible(self) -> bool:
        return self.status in _POSITIVE


def prefix_top_sum(n: int, P: int) -> int:
    """Sum of the P largest elements of [n]: P*n - P(P-1)/2.

    Rejects with ValueError an n that is not an int in [1, 2^31], and a P
    that is not an int in [0, n] (a float or bool is not).
    """
    _check_n(n)
    _check_count("P", P)
    if P > n:
        raise ValueError(f"P must be in [0, {n}], got {P}")
    return P * n - P * (P - 1) // 2


def condition_failing_index(n: int, sizes: Sequence[int], s: int) -> int | None:
    """Smallest j in 1..k violating prefix_top_sum(n, P_j) >= j*s, or None.

    sizes are the block sizes in non-decreasing order, as an Instance holds
    them, and s is the integral magic sum.  The j = k case is an identity
    (both sides equal n(n+1)/2) but is kept in the loop as a self-test.
    """
    P = 0
    for j, p in enumerate(sizes, start=1):
        P += p
        if prefix_top_sum(n, P) < j * s:
            return j
    return None


def _size_one_verdict(inst: Instance, s: int) -> Verdict:
    """Decide instances with a size-1 block: it must be {n}, the rest pairs."""
    if s != inst.n:
        reason = f"a size-1 block must be {{{inst.n}}}, but the magic sum is {s} != {inst.n}"
    elif inst.sizes != (1,) + (2,) * (inst.k - 1):
        reason = f"with a size-1 block every other block must have size 2, got sizes {inst.sizes}"
    else:
        return Verdict(status=FeasibilityStatus.FEASIBLE_PROVEN, s=s)
    return Verdict(status=FeasibilityStatus.INFEASIBLE_SIZE_ONE, s=s, reason=reason)


def feasibility(inst: Instance) -> Verdict:
    """Full decision pipeline: divisibility, size-one rule, prefix condition.

    FEASIBLE_PROVEN covers k <= 4 (and the constructive size-one cases for
    any k); for k >= 5 a passing prefix condition yields
    CONDITION_HOLDS_CONJECTURED.  A constructive solver may still upgrade
    such instances to solved, but never the verdict itself.
    """
    s = magic_sum(inst.n, inst.k)
    if s is None:
        return Verdict(status=FeasibilityStatus.INFEASIBLE_DIVISIBILITY)
    if inst.sizes[0] == 1:
        return _size_one_verdict(inst, s)
    j = condition_failing_index(inst.n, inst.sizes, s)
    if j is not None:
        return Verdict(
            status=FeasibilityStatus.INFEASIBLE_CONDITION, s=s, failing_index=j
        )
    if inst.k <= 4:
        return Verdict(status=FeasibilityStatus.FEASIBLE_PROVEN, s=s)
    return Verdict(status=FeasibilityStatus.CONDITION_HOLDS_CONJECTURED, s=s)
