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

The prefix condition is checked by _failing_union, the bound on unions
of blocks that the exact search in solver runs at the root and at every
placed node with four or more open blocks: the condition is that bound
at the root, where no label is placed yet.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .core import Instance, _check_count, _check_n, _integral_magic_sum, magic_sum


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


#: The union key of a full block: it ranks below every open block's and adds
#: no slots and no need, so the prefixes past the open blocks repeat the last.
_FULL_KEY = (float("-inf"), 0, 0)


def _failing_union(keys: Sequence[tuple[float, int, int]], e: int, m: int, inner: bool = False) -> int | None:
    """Smallest j such that the j blocks of largest key overflow, or None.

    The labels {1, ..., e} are still to place.  keys holds one key per
    block: (need / left, -left, need) for an open block, which has left > 0
    slots whose labels must sum to need, and _FULL_KEY for a full block; m
    blocks are open.  Any L of the labels sum to at most L(e + 1) - tri(L),
    so a union of open blocks with L slots and summed need D above that has
    no completion.  The unions checked are the prefixes of the open blocks by
    largest key: largest need per slot, ties to fewer slots.  When sum(left)
    = e and sum(need) = tri(e), as in a search state, this bound on a union
    is the lower bound on its complement, so it covers the prefixes of the
    opposite order too; the last prefix is then an identity, kept as a
    self-test.  With each open block within its own bounds too, as at a
    placed search state, j = 1, m - 1 and m cannot fail: inner=True skips
    them.  The keys are handed in, not built here, so the search can keep
    them from node to node.
    """
    L = D = 0
    top2 = 2 * e + 1
    # need / left is a float to keep the key cheap; -left breaks a tie (also
    # one of rounding) towards the smaller block.
    order = sorted(keys, reverse=True)
    if inner:
        _, L, D = order[0]
        L, order = -L, order[1 : m - 2]
    for j, (_, minus_slots, d) in enumerate(order, start=1 + inner):
        L -= minus_slots
        D += d
        if 2 * D > L * (top2 - L):  # L(e + 1) - tri(L) = L(2e + 1 - L) / 2
            return j
    return None


def _failing_prefix(left: Sequence[int], need: Sequence[int], e: int, inner: bool = False) -> int | None:
    """_failing_union on the keys of the open blocks of (left, need).

    Block i has left[i] slots still to fill from {1, ..., e}, whose labels
    must sum to need[i]; full blocks (left[i] = 0) are skipped.  With
    inner=True and fewer than four open blocks no prefix is left to check,
    so the answer is None, also with no open block.  The verdict and the
    search's root test call this; the search keeps its keys below the root
    and calls _failing_union itself.
    """
    keys = [(d / slots, -slots, d) for slots, d in zip(left, need) if slots]
    if inner and len(keys) < 4:
        return None
    return _failing_union(keys, e, len(keys), inner)


def condition_failing_index(inst: Instance) -> int | None:
    """Smallest j in 1..k violating prefix_top_sum(n, P_j) >= j*s, or None.

    This is _failing_prefix at the root search state: every block open with
    need s, and the pool all of [n].  There need / left = s / p_i orders the
    blocks by size, so its j-th union is the j smallest blocks and its
    bound is the inequality above.  The j = k case is an identity (both
    sides equal n(n+1)/2) but is kept in the loop as a self-test.  Requires
    the magic sum to be integral.
    """
    s = _integral_magic_sum(inst.n, inst.k)
    return _failing_prefix(inst.sizes, [s] * inst.k, inst.n)


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
    j = _failing_prefix(inst.sizes, [s] * inst.k, inst.n)
    if j is not None:
        return Verdict(
            status=FeasibilityStatus.INFEASIBLE_CONDITION, s=s, failing_index=j
        )
    if inst.k <= 4:
        return Verdict(status=FeasibilityStatus.FEASIBLE_PROVEN, s=s)
    return Verdict(status=FeasibilityStatus.CONDITION_HOLDS_CONJECTURED, s=s)
