"""Solvers producing equitable partitions of [n].

Two solvers, picked by the pipeline in solve().  Each takes the Instance
and answers in its size slots, block i of size inst.sizes[i]:

* solve_exact, a complete backtracking search pruned by completion sums,
  solve()'s one route at k >= 3 (solve() gives its restart schedule);
* solve_k2, a closed-form constructor for k = 2 realizing the endpoint
  of the adjacent-exchange sliding sequence.

solve() builds the other two answers itself: [n] for k = 1, and {n} plus
the pairs {i, n - i} for the sizes (1, 2, ..., 2) the size-one verdict
passes.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from .core import Instance, Partition, _all_ints, _check_count, _integral_magic_sum
from .feasibility import Verdict, condition_failing_index, feasibility, prefix_top_sum

#: Exact-search node budget used when callers do not supply one.
DEFAULT_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class SearchParams:
    """Budgets and seeding for solve(), whose docstring gives the restart schedule.

    seed may be of any size: random.Random takes one.
    """

    seed: int = 0
    max_restarts: int = 7
    exact_node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        for name in ("seed", "max_restarts", "exact_node_budget"):
            _check_count(name, getattr(self, name))


@dataclass
class SolveStats:
    """What one solve() did; solve() says what each counter counts."""

    nodes: int = 0
    search_restarts: int = 0
    elapsed: float = 0.0


class ExactStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    BUDGET = "budget"


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exhaustive search.

    NOT_FOUND is a proof of non-existence (the full space was covered);
    BUDGET means the node budget ran out first and nothing is known.
    """

    status: ExactStatus
    partition: Partition | None
    nodes: int


class SolveStatus(Enum):
    SOLVED = "solved"
    PROVEN_INFEASIBLE = "proven_infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    partition: Partition | None
    verdict: Verdict
    stats: SolveStats = field(compare=False, default_factory=SolveStats)


#: The union key of a full block: it ranks below every open block's, so the
#: unions the search checks hold only open blocks.
_FULL_KEY = (float("-inf"), 0, 0)


def _failing_union(keys: Sequence[tuple[float, int, int]], e: int, m: int) -> bool:
    """Whether a union of open blocks overflows {1, ..., e} at a placed state.

    keys holds one key per block: (need / left, -left, need) for an open
    block, which has left > 0 slots whose labels must sum to need, and
    _FULL_KEY for a full block; m >= 4 blocks are open.  Any L of the labels
    sum to at most L(e + 1) - tri(L), so a union of open blocks with L slots
    and summed need D above that has no completion.  The unions checked are
    the prefixes of the open blocks by largest key: largest need per slot,
    ties to fewer slots.  As sum(left) = e and sum(need) = tri(e) in a search
    state, this bound on a union is the lower bound on its complement, so it
    covers the prefixes of the opposite order too.  Each open block is
    within its own bounds at a placed state, so the prefixes j = 1 (one
    block), m - 1 (the complement of one) and m (the whole pool) cannot
    fail: only j = 2 ... m - 2 are checked.  The keys are handed in, not
    built here, so the search can keep them from node to node.
    """
    top2 = 2 * e + 1
    # need / left is a float to keep the key cheap; -left breaks a tie (also
    # one of rounding) towards the smaller block.
    order = sorted(keys, reverse=True)
    _, L, D = order[0]
    L = -L
    for _, minus_slots, d in order[1 : m - 2]:
        L -= minus_slots
        D += d
        if 2 * D > L * (top2 - L):  # L(e + 1) - tri(L) = L(2e + 1 - L) / 2
            return True
    return False


def solve_exact(inst: Instance, budget: int, order: list[int] | None = None) -> ExactResult:
    """Complete backtracking search for an equitable partition.

    Elements are assigned from n down to 1, so after placing e the
    unassigned pool is exactly {1, ..., e-1}.  A state is pruned when a
    block, or a union of blocks, cannot be completed from that pool: each
    block's remaining sum must lie between the smallest and largest
    completions, and so must the summed need of the open blocks taken by
    largest need per slot.  At the root that union bound is the prefix
    condition, so the root test is the verdict's condition_failing_index.
    Placing a label changes one block, so a child is tested before it is
    placed, on that block's lower bound tri(left) <= need; for the upper
    bounds each block keeps the floor ceil((need + tri(left)) / left),
    recomputed only for the block placed or restored: the need fits under
    the largest sum of left labels of {1, ..., m} exactly when m + 1 is at
    least the floor.  When label e starts every floor is at most e + 1: the
    root test implies each block's bounds, the child placed at the label
    above kept every floor at most e + 1, and a restore returns a state that
    already held.  Placing e in block i keeps i's own floor at most e, as
    need falls by e and tri(left) by left.  So a child into block i passes
    when its lower bound holds and no other block's floor equals e + 1,
    which one count of the floors at e + 1 per label tells; only the child
    placed writes its floor.  Only a child that passes is placed and given
    the union test, which then skips what the block tests settle: one block,
    all open blocks but one, and all of them, so it runs only with four or
    more open blocks.  For it each block keeps its key (need / left, -left,
    need), rewritten only for the block restored or placed, and the test
    ranks the kept keys (_failing_union); at k <= 3 the test never runs
    below the root and no keys are kept.  Both bounds prune only states with
    no completion, so NOT_FOUND is a proof of absence.  Equal-size blocks are
    interchangeable, so an element may open only the first empty block of
    each size class; blocks within an equal-size run are re-ordered by least
    element on output.

    Each label tries the blocks in `order`, a permutation of range(k); None
    means index order.  The equal-size rule is keyed by block index, not by
    position in `order`, so every order prunes the same states and a
    NOT_FOUND under any order is a proof of absence.

    At most `budget` nodes are tried, a child that fails before it is placed
    included; BUDGET reports budget + 1, the node it did not try.  Raises
    ValueError for a budget that is not an int >= 0 or an order that is not
    a permutation of range(k).
    """
    _check_count("budget", budget)
    if order is None:
        order = list(range(inst.k))
    elif not _all_ints(order) or sorted(order) != list(range(inst.k)):
        raise ValueError(f"order must be a permutation of range({inst.k}), got {order}")
    s = _integral_magic_sum(inst.n, inst.k)
    n, k, sizes = inst.n, inst.k, inst.sizes
    # Block i still has left[i] slots to fill, whose labels must sum to need[i].
    left = list(sizes)
    need = [s] * k
    tri = [j * (j + 1) // 2 for j in range(sizes[-1] + 1)]
    # An open block's need fits under j(e + 1) - tri[j] exactly while e + 1 is
    # at least its floor; a full block passed its last check with need 0.
    floors = [-(-(s + tri[j]) // j) for j in sizes]
    # Block i's union key, kept only where the union test runs (k >= 4): see
    # _failing_union.
    keys = [(s / j, -j, s) for j in sizes] if k > 3 else []
    open_blocks = k
    nodes = 0
    # At the root the union bound is the prefix condition, which implies each
    # block's bounds: its first union is the smallest block, its (k - 1)-th
    # the complement of the largest, and those two bounds are the tightest.
    # Sizes never decrease, so the unions by largest s / p_i are the prefixes.
    if condition_failing_index(n, sizes, s) is not None:
        return ExactResult(status=ExactStatus.NOT_FOUND, partition=None, nodes=0)
    # Depth-first with an explicit cursor, not recursion, so n is not bounded
    # by the interpreter's stack.  Label e lies in block order[tried[e]], and
    # tried[e] is -1 while e is unplaced; labels e + 1, ..., n are placed.
    tried = [-1] * (n + 1)
    e = n
    while e:  # until every label is placed
        # Put label e in its next block, backtracking while it has none left.
        # Full blocks are skipped, and so is an empty block after an empty
        # block of the same size (the two are interchangeable).
        p = tried[e]
        if p >= 0:
            i = order[p]
            open_blocks += not left[i]
            j = left[i] = left[i] + 1
            d = need[i] = need[i] + e
            floors[i] = -(-(d + tri[j]) // j)
            if keys:
                keys[i] = (d / j, -j, d)
        # Every floor is at most e + 1 here (see the docstring), so a child
        # passes its upper bounds when no other floor equals e + 1.
        top = floors.count(e + 1)
        p += 1
        while p < k:
            i = order[p]
            j = left[i]
            if j == 0 or (j == sizes[i] and i > 0 and left[i - 1] == sizes[i - 1] == j):
                p += 1
                continue
            nodes += 1
            if nodes > budget:
                return ExactResult(status=ExactStatus.BUDGET, partition=None, nodes=nodes)
            # Every block must stay completable from {1, ..., e - 1}: j labels
            # sum to at least tri[j] and at most j * e - tri[j].  Only block i
            # changes, so i's lower bound and the count of the other blocks'
            # floors at e + 1 test the child; i's own upper bound holds.
            j -= 1
            d = need[i] - e
            if d >= tri[j] and top == (floors[i] == e + 1):
                break  # place e in block i
            p += 1
        else:
            tried[e] = -1
            e += 1  # no block left: move the last placed label on
            if e > n:
                return ExactResult(status=ExactStatus.NOT_FOUND, partition=None, nodes=nodes)
            continue
        left[i] = j
        need[i] = d
        floors[i] = -(-(d + tri[j]) // j) if j else 0
        open_blocks -= not j
        tried[e] = p
        e -= 1
        # The unions of open blocks must stay completable too.  Each open block
        # meets its own bounds, so of m open blocks only the prefixes j = 2 ...
        # m - 2 can fail: j = 1 is one block, j = m - 1 the complement of one
        # and j = m the whole pool.  With m <= 3 (m = 0 once e = 0) none is left.
        # Block i's key is written only here, where the test reads it: a state
        # below a placement with m <= 3 also has m <= 3, and a restore writes
        # the key back.
        if open_blocks > 3:
            keys[i] = (d / j, -j, d) if j else _FULL_KEY
            if _failing_union(keys, e, open_blocks):
                e += 1  # a union is not completable: move label e on
    blocks: list[list[int]] = [[] for _ in range(k)]
    for x in range(1, n + 1):
        blocks[order[tried[x]]].append(x)
    # Block i holds sizes[i] labels, ascending, and sizes never decreases: this
    # keeps the slot order and orders each equal-size run by least element.
    blocks.sort(key=lambda b: (len(b), b[0]))
    return ExactResult(
        status=ExactStatus.FOUND, partition=Partition.from_blocks(n, blocks), nodes=nodes
    )


def solve_k2(inst: Instance) -> Partition:
    """Deterministic two-block construction.

    Starting from the p_1 smallest elements, positions are raised from the
    top: position j (holding j) may rise to n - (p_1 - j), a gain of
    n - p_1 per fully raised position.  The remaining deficit lands on a
    single middle element, so the small block is a prefix of [n], at most
    one middle value, and a suffix of top values.  This closed form equals
    the position-by-position greedy raise.  The blocks go to Partition's
    checking constructor as lazy ranges, not built tuples; it checks them
    as a cover of [n].  The small block keeps p_1 - full labels and gains
    full raised ones, so its size is p_1 by construction; solve()'s
    certificate checks sizes and sums, as for every route.
    """
    if inst.k != 2:
        raise ValueError(f"solve_k2 requires k=2, got k={inst.k}")
    s = _integral_magic_sum(inst.n, inst.k)
    p1 = inst.sizes[0]
    if p1 < 2:
        raise ValueError("solve_k2 requires the smaller block size >= 2")
    if condition_failing_index(inst.n, inst.sizes, s) is not None:
        raise ValueError(f"top-{p1} sum {prefix_top_sum(inst.n, p1)} cannot reach {s}")
    n = inst.n
    deficit = s - p1 * (p1 + 1) // 2
    gain = n - p1
    full, partial = divmod(deficit, gain)
    prefix_len = p1 - full  # positions left at their initial values, plus one partial
    top = range(n - full + 1, n + 1)
    if partial == 0:
        small = chain(range(1, prefix_len + 1), top)
        rest = range(prefix_len + 1, n - full + 1)
    else:
        mid = prefix_len + partial
        small = chain(range(1, prefix_len), (mid,), top)
        rest = chain(range(prefix_len, mid), range(mid + 1, n - full + 1))
    return Partition.from_blocks(n, (small, rest))


def solve(inst: Instance, params: SearchParams | None = None) -> SolveResult:
    """Feasibility verdict, then the cheapest applicable solving route.

    Constructive routes handle k = 1, the size-one rule ({n} and the pairs
    {i, n - i}, once the verdict has passed the sizes) and k = 2 (solve_k2).
    Other instances go to the exact search: 1 + params.max_restarts runs of
    solve_exact, run r cut off at 4n max(1, k // 4) 2^r nodes and the last
    at all that is left of the one exact_node_budget.  Run 0 tries the
    blocks in index order; each later run shuffles the order with
    random.Random(params.seed), so restarts escape an unlucky early choice
    while the answer stays deterministic for a fixed seed.  The random
    module promises across versions only random()'s stream, not
    shuffle()'s; it is the same on CPython 3.10 to 3.13, where CI runs the
    tests that pin it.  Any order prunes the same states, so any run's
    FOUND is SOLVED and its NOT_FOUND is a proof, PROVEN_INFEASIBLE.  The
    runs stop at a witness, a proof or the end of the budget.  The one
    budget bounds all of a k >= 3 solve's work, and as each order's search
    is complete and the last run keeps all that is left, the route is
    complete at any n.  stats.nodes sums the runs' nodes; a solve cut off
    reports budget + 1, the node it did not place.  stats.search_restarts
    counts the runs after the first.

    A SOLVED result always carries an equitable partition whose block i has
    size inst.sizes[i]; every route's answer is certified against that, and
    a route that breaks it raises RuntimeError.
    """
    if params is None:
        params = SearchParams()
    start_time = time.perf_counter()
    stats = SolveStats()
    verdict = feasibility(inst)

    def finish(status: SolveStatus, partition: Partition | None) -> SolveResult:
        if partition is not None:
            # The certificate, checked with raise, not assert, so python -O keeps it.
            got = tuple(len(b) for b in partition.blocks)
            if got != inst.sizes or any(t != verdict.s for t in partition.sums):
                raise RuntimeError(
                    f"solver output fails its certificate: sizes {got}, sums "
                    f"{partition.sums}; expected sizes {inst.sizes}, every sum {verdict.s}"
                )
        stats.elapsed = time.perf_counter() - start_time
        return SolveResult(status=status, partition=partition, verdict=verdict, stats=stats)

    if not verdict.predicts_feasible:
        return finish(SolveStatus.PROVEN_INFEASIBLE, None)

    if inst.k == 1:
        return finish(SolveStatus.SOLVED, Partition.from_blocks(inst.n, [range(1, inst.n + 1)]))
    if inst.sizes[0] == 1:  # the verdict passed sizes (1, 2, ..., 2) with s = n
        n = inst.n
        pairs = ([i, n - i] for i in range(1, (n - 1) // 2 + 1))
        return finish(SolveStatus.SOLVED, Partition.from_blocks(n, chain([[n]], pairs)))
    if inst.k == 2:
        return finish(SolveStatus.SOLVED, solve_k2(inst))

    remaining = params.exact_node_budget
    order = list(range(inst.k))
    cutoff = 4 * inst.n * max(1, inst.k // 4)
    for r in range(params.max_restarts + 1):
        if r:
            if r == 1:  # seeded here, as most solves never restart
                shuffle = random.Random(params.seed).shuffle
            shuffle(order)
        cap = min(cutoff << r, remaining) if r < params.max_restarts else remaining
        exact = solve_exact(inst, cap, order)
        if exact.status is not ExactStatus.BUDGET or cap == remaining:
            break
        remaining -= cap  # a cut-off run placed all of its cap
    # The loop ends on a break, as the last run's cap is all that remains.
    stats.search_restarts = r
    stats.nodes = params.exact_node_budget - remaining + exact.nodes
    if exact.status is ExactStatus.FOUND:
        return finish(SolveStatus.SOLVED, exact.partition)
    if exact.status is ExactStatus.NOT_FOUND:
        return finish(SolveStatus.PROVEN_INFEASIBLE, None)
    return finish(SolveStatus.BUDGET_EXHAUSTED, None)
