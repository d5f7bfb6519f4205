"""Solvers producing equitable partitions of [n].

Four routes, picked by the pipeline in solve().  Each takes the Instance
and answers in its size slots, block i of size inst.sizes[i]:

* a complete backtracking oracle (solve_exact) assigning elements from n
  down to 1 with completion-sum pruning and symmetry breaking between
  equal-size blocks.  It dives first, each label trying the blocks with
  the largest remaining need per open slot first, on min(32 n, budget // 2)
  nodes; only if that runs out does it search in block-index order on the
  nodes that remain;
* a closed-form constructor for k = 2 (solve_k2) realizing the endpoint
  of the adjacent-exchange sliding sequence;
* the size-one constructor ({n} plus pairs {i, n-i}) for sizes
  (1, 2, ..., 2);
* a potential-descent local search (local_search) over element
  exchanges, each start from a randomized greedy initializer.  It finds
  each improving move from the exchange law delta = 2t(t - u) in
  O(k n log n) over per-block sorted member lists, ties going to the
  lex-smallest pair (a, b).  On a plateau it weighs the zero-delta
  exchanges on the labels' class string (core._class_width), not by
  trying them.

The local search is a heuristic; completeness rests on the exact
fallback, which solve() runs at any n once the descent stalls, within
the node budget.  Exact and constructive outputs are deterministic;
heuristic outputs are deterministic for a fixed seed but not promised
identical across ports.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

from .core import (
    Instance,
    Partition,
    _class_width,
    _exchange_delta,
    _State,
    magic_sum,
)
from .feasibility import Verdict, feasibility, necessary_condition

#: Exact-search node budget used when callers do not supply one.
DEFAULT_NODE_BUDGET = 100_000_000


class XorShift64Star:
    """xorshift64* PRNG: tiny, fast, and identical on every platform.

    The state must be non-zero; it is seeded directly with the given
    64-bit seed.
    """

    _MASK = (1 << 64) - 1
    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        state = seed & self._MASK
        if state == 0:
            raise ValueError("xorshift64* requires a non-zero seed")
        self._state = state

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & self._MASK
        x ^= x >> 27
        self._state = x
        return (x * self._MULT) & self._MASK

    def randrange(self, bound: int) -> int:
        # Modulo bias is irrelevant here: we only need determinism.
        return self.next_u64() % bound


@dataclass(frozen=True)
class SearchParams:
    """Budgets and seeding for solve() and local_search().

    Descent start r = 0, ..., max_restarts is greedy_init(inst, seed + r).
    """

    seed: int = 0
    max_restarts: int = 64
    exact_node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("max_restarts", "exact_node_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # Restart r seeds xorshift64* with seed + r, which must not wrap at 2^64.
        if self.seed + self.max_restarts >= 2**64:
            raise ValueError(
                f"seed + max_restarts must be below 2**64, got {self.seed + self.max_restarts}"
            )


@dataclass
class SolveStats:
    """Mutable counters accumulated across the solve pipeline."""

    nodes: int = 0
    swaps: int = 0
    restarts: int = 0
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


def solve_exact(inst: Instance, budget: int) -> ExactResult:
    """Complete backtracking search for an equitable partition, witness first.

    Two stages of one search (_search), within `budget` nodes in all:

    1. a dive that tries each label's blocks by largest remaining need
       per open slot, need / left (ties to the lower index), on
       min(32 n, budget // 2) nodes;
    2. only if the dive runs out: the index-order search from scratch, on
       the nodes that remain.

    The child order steers the search but prunes nothing, so NOT_FOUND is
    still a proof of absence, and it costs the same nodes in either order.
    `nodes` is the total over both stages: budget + 1 on BUDGET.  Raises
    ValueError for a negative budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    # Measured on the oracle_sweep box (5,153 rows at 250,000 nodes): the
    # index order alone leaves 8 rows on budget and the need order alone 43;
    # the two stages leave none, the dive finding each of the 8 within 22 n
    # nodes.  Half the budget, not all, keeps the dive from starving the
    # index order at small budgets: at 1,000 nodes, 6 rows the index order
    # alone finds go to budget, against 70 with a dive of min(32 n, budget).
    dive = min(32 * inst.n, budget // 2)
    first = _search(inst, dive, by_need=True)
    if first.status is not ExactStatus.BUDGET:
        return first
    # The dive counted one node past its share, the one it did not place.
    rest = _search(inst, budget - dive, by_need=False)
    return ExactResult(status=rest.status, partition=rest.partition, nodes=dive + rest.nodes)


def _search(inst: Instance, budget: int, by_need: bool) -> ExactResult:
    """Depth-first search over label placements within `budget` nodes.

    Elements are assigned from n down to 1, so after placing e the
    unassigned pool is exactly {1, ..., e-1} and each block's remaining
    sum must lie between the smallest and largest possible completions
    from that pool.  Equal-size blocks are interchangeable, so an element
    may open only the first empty block of each size class; blocks within
    an equal-size run are re-ordered by least element on output.  Blocks
    are tried in index order, or with `by_need` as solve_exact's dive does.
    """
    s = magic_sum(inst.n, inst.k)
    if s is None:
        raise ValueError(f"magic sum is not integral for n={inst.n}, k={inst.k}")
    n, k, sizes = inst.n, inst.k, inst.sizes
    # Block i still has left[i] slots to fill, whose labels must sum to need[i].
    left = list(sizes)
    need = [s] * k
    tri = [j * (j + 1) // 2 for j in range(sizes[-1] + 1)]
    # Blocks are tried in a chain: after block i comes block after[i], and
    # after[k] (also after[-1], for "none tried yet") is the first; k ends
    # it.  The index order is 0, 1, ..., k - 1 for every label.
    index_order = list(range(1, k + 1)) + [0]
    # Two ratios need / left with left <= m = sizes[-1] differ by at least
    # 1 / m**2 when they differ, so need * m**2 // left orders them exactly.
    scale = sizes[-1] ** 2
    nodes = 0
    # Depth-first with an explicit cursor, not recursion, so n is not bounded
    # by the interpreter's stack.  tried[e] is the block holding label e, or
    # -1 while e is unplaced; labels e + 1, ..., n are placed.  chains[e] is
    # the order label e tries its blocks in.
    tried = [-1] * (n + 1)
    chains = [index_order] * (n + 1)
    e = n
    while True:
        # Every block must still be completable from {1, ..., e}: j labels
        # from it sum to at least tri[j] (the j smallest) and at most
        # j * (e + 1) - tri[j] (the j largest).
        top = e + 1
        for j, d in zip(left, need):
            if not tri[j] <= d <= j * top - tri[j]:
                e += 1  # not completable: move the last placed label on
                break
        else:
            if e == 0:
                break  # every label placed
            if by_need:
                # Open blocks by largest need / left, ties to the lower index
                # (the sort is stable); full blocks go last.
                key = [need[j] * scale // left[j] if left[j] else -1 for j in range(k)]
                after = [k] * (k + 1)
                i = k
                for j in sorted(range(k), key=key.__getitem__, reverse=True):
                    after[i] = j
                    i = j
                chains[e] = after
        # Put label e in its next block, backtracking while it has none left.
        # Full blocks are skipped, and so is an empty block after an empty
        # block of the same size (the two are interchangeable).
        while e <= n:
            after = chains[e]
            i = tried[e]
            if i >= 0:
                left[i] += 1
                need[i] += e
            i = after[i]
            while i < k and (
                left[i] == 0
                or (left[i] == sizes[i] and i > 0 and left[i - 1] == sizes[i - 1] == sizes[i])
            ):
                i = after[i]
            if i < k:
                break
            tried[e] = -1
            e += 1
        if e > n:
            return ExactResult(status=ExactStatus.NOT_FOUND, partition=None, nodes=nodes)
        nodes += 1
        if nodes > budget:
            return ExactResult(status=ExactStatus.BUDGET, partition=None, nodes=nodes)
        left[i] -= 1
        need[i] -= e
        tried[e] = i
        e -= 1
    blocks: list[list[int]] = [[] for _ in range(k)]
    for x in range(1, n + 1):
        blocks[tried[x]].append(x)
    return ExactResult(
        status=ExactStatus.FOUND,
        partition=Partition.from_blocks(n, _order_equal_size_runs(sizes, blocks)),
        nodes=nodes,
    )


def _order_equal_size_runs(
    sizes: tuple[int, ...], blocks: list[list[int]]
) -> list[list[int]]:
    """Within each run of equal sizes, order blocks by least element."""
    out: list[list[int]] = []
    start = 0
    for end in range(1, len(sizes) + 1):
        if end == len(sizes) or sizes[end] != sizes[start]:
            out.extend(sorted(blocks[start:end], key=min))
            start = end
    return out


def solve_k2(inst: Instance) -> Partition:
    """Deterministic two-block construction.

    Starting from the p_1 smallest elements, positions are raised from the
    top: position j (holding j) may rise to n - (p_1 - j), a gain of
    n - p_1 per fully raised position.  The remaining deficit lands on a
    single middle element, so the small block is a prefix of [n], at most
    one middle value, and a suffix of top values.  This closed form equals
    the position-by-position greedy raise.  The answer goes through
    Partition's checking constructor, like every other route's.
    """
    if inst.k != 2:
        raise ValueError(f"solve_k2 requires k=2, got k={inst.k}")
    s = magic_sum(inst.n, inst.k)
    if s is None:
        raise ValueError(f"magic sum is not integral for n={inst.n}, k=2")
    p1 = inst.sizes[0]
    if p1 < 2:
        raise ValueError("solve_k2 requires the smaller block size >= 2")
    if not necessary_condition(inst):
        raise ValueError(
            f"top-{p1} sum {inst.n * p1 - p1 * (p1 - 1) // 2} cannot reach {s}"
        )
    n = inst.n
    deficit = s - p1 * (p1 + 1) // 2
    gain = n - p1
    full, partial = divmod(deficit, gain)
    prefix_len = p1 - full  # positions left at their initial values, plus one partial
    if partial == 0:
        small = tuple(range(1, prefix_len + 1)) + tuple(range(n - full + 1, n + 1))
        rest = tuple(range(prefix_len + 1, n - full + 1))
    else:
        mid = prefix_len + partial
        small = (
            tuple(range(1, prefix_len)) + (mid,) + tuple(range(n - full + 1, n + 1))
        )
        rest = tuple(range(prefix_len, mid)) + tuple(range(mid + 1, n - full + 1))
    if len(small) != p1 or len(rest) != n - p1:
        raise AssertionError("two-block construction produced wrong sizes")
    return Partition.from_blocks(n, (small, rest))


def solve_p1_eq_1(inst: Instance) -> Partition:
    """{n} plus the pairs {i, n-i}: every block sums to n."""
    if inst.sizes != (1,) + (2,) * (inst.k - 1) or inst.k != (inst.n + 1) // 2:
        raise ValueError(
            f"size-one construction needs sizes (1, 2, ..., 2) with "
            f"k=(n+1)/2, got n={inst.n}, sizes={inst.sizes}"
        )
    n = inst.n
    blocks: list[list[int]] = [[n]]
    blocks.extend([i, n - i] for i in range(1, (n - 1) // 2 + 1))
    return Partition.from_blocks(n, blocks)


def greedy_init(inst: Instance, seed: int) -> Partition:
    """Assign n, n-1, ..., 1, each to the open block with largest deficit.

    Ties go to the lowest block index.  With a non-zero seed, the first
    ceil(k/2) placements pick a uniformly random open block and later
    ties are broken at random, so restarts explore distinct starts while
    staying reproducible.
    """
    s = magic_sum(inst.n, inst.k)
    if s is None:
        raise ValueError(f"magic sum is not integral for n={inst.n}, k={inst.k}")
    rng = XorShift64Star(seed) if seed != 0 else None
    k, sizes = inst.k, inst.sizes
    counts = [0] * k
    sums = [0] * k
    blocks: list[list[int]] = [[] for _ in range(k)]
    random_head = (k + 1) // 2
    for step, e in enumerate(range(inst.n, 0, -1)):
        open_blocks = [i for i in range(k) if counts[i] < sizes[i]]
        if rng is not None and step < random_head:
            i = open_blocks[rng.randrange(len(open_blocks))]
        else:
            best = max(s - sums[i] for i in open_blocks)
            ties = [i for i in open_blocks if s - sums[i] == best]
            i = ties[rng.randrange(len(ties))] if rng is not None and len(ties) > 1 else ties[0]
        blocks[i].append(e)
        counts[i] += 1
        sums[i] += e
    return Partition.from_blocks(inst.n, blocks)


def _best_move(state: _State) -> tuple[int, int, int] | None:
    """Most negative exchange delta as (delta, a, b), ties to the lex-smallest (a, b).

    For a in block i and a partner block j, u = sums[j] - sums[i] is fixed
    and delta = 2t(t - u), t = b - a, is negative only for a < b < a + u
    and convex in t with its minimum at t = u/2.  So only the two members
    of block j around a + u//2 can be a's best partner there: one bisect
    per (a, j) instead of every pair.
    """
    sums, members = state.sums, state.members
    best_d, best_a, best_b = 0, 0, 0
    for i, si in enumerate(sums):
        for j, sj in enumerate(sums):
            u = sj - si
            if u < 2:
                continue  # no integer t with 0 < t < u
            half = u // 2
            partners = members[j]
            idx = 0
            for a in members[i]:
                idx = bisect_left(partners, a + half, idx)
                # The nearest members below and at-or-above a + u//2.
                for b in partners[idx - 1 if idx else 0 : idx + 1]:
                    d = _exchange_delta(b - a, u)
                    if d < best_d or (d == best_d < 0 and (a, b) < (best_a, best_b)):
                        best_d, best_a, best_b = d, a, b
    return (best_d, best_a, best_b) if best_d < 0 else None


def _plateau_step(state: _State, s: int) -> tuple[int, int] | None:
    """First zero-delta exchange in lex order, preferring one that shrinks the width.

    Zero delta means b - a equals the sum gap u from a's block i up to b's
    block j, so the exchange makes i and j trade sums: every other label of
    i and j trades its low/exact/high class, while a and b keep theirs.  So
    each pair (i, j) weighs its candidates on one copy of the class string
    with the classes of i and j swapped, putting back the bytes of a and b
    for each; the state is not changed, and one copy at a time keeps memory
    O(n) at any k.  Pairs go by their first candidate and stop once past a
    shrinking one, so the answer is the lex-first shrinking candidate, else
    the lex-first candidate.
    """
    assign, sums, members, n = state.assign, state.sums, state.members, state.n
    classes = state.classes(s)
    cur_width = _class_width(classes)
    pairs = []  # (first a, u, i, j, every a) per block pair with a candidate
    for i, si in enumerate(sums):
        for j, sj in enumerate(sums):
            u = sj - si
            if u > 0:
                starts = [a for a in members[i] if a + u <= n and assign[a + u] == j]
                if starts:
                    pairs.append((starts[0], u, i, j, starts))
    if not pairs:
        return None
    pairs.sort()  # by first candidate (a, a + u), distinct per pair
    best: tuple[int, int] | None = None
    for first, u, i, j, starts in pairs:
        if best is not None and (first, first + u) > best:
            break
        ci, cj = classes[members[i][0]], classes[members[j][0]]
        trial = bytearray(classes)
        for x in members[i]:
            trial[x] = cj
        for x in members[j]:
            trial[x] = ci
        for a in starts:
            b = a + u
            if best is not None and (a, b) > best:
                break
            trial[a], trial[b] = trial[b], trial[a]  # a and b keep their classes
            if _class_width(trial, cur_width) < cur_width:
                best = (a, b)
                break
            trial[a], trial[b] = trial[b], trial[a]
    first, u = pairs[0][:2]
    return best or (first, first + u)


def local_search(
    inst: Instance, params: SearchParams, stats: SolveStats | None = None
) -> Partition | None:
    """Potential descent over element exchanges with plateau drift.

    Runs starts r = 0, 1, ..., params.max_restarts, each from
    greedy_init(inst, params.seed + r): the best strictly-improving
    exchange until none exists, then up to 2n zero-delta exchanges, then
    the next start.  Returns the first equitable partition reached, its
    block i of size inst.sizes[i], or None when every start stalls.
    Deviation never increases within a start; stats.restarts counts each
    start after the first.

    Each move is the lex-smallest (a, b) among the best candidates.  The
    search keeps every block's members sorted and uses the exchange law
    2t(t - u): the best partner of a lies next to a + u/2, so an improving
    move costs O(k n log n), not O(n^2); a zero-delta partner is exactly
    a + u, so a plateau step has at most k - 1 candidates per a.  A plateau
    step weighs them on one class string per block pair, without trial
    exchanges: a candidate costs two byte swaps and a width test that stops
    at its first hit.
    """
    n, s = inst.n, magic_sum(inst.n, inst.k)
    for r in range(params.max_restarts + 1):
        if r and stats is not None:
            stats.restarts += 1
        state = _State(greedy_init(inst, params.seed + r))
        plateau_used = 0
        while any(t != s for t in state.sums):
            move = _best_move(state)
            if move is not None:
                a, b = move[1], move[2]
            else:
                step = _plateau_step(state, s) if plateau_used < 2 * n else None
                if step is None:
                    break
                a, b = step
                plateau_used += 1
            state.exchange(a, b)
            if stats is not None:
                stats.swaps += 1
        else:  # the loop ended on an equitable state, not a stall
            return state.partition()
    return None


def solve(inst: Instance, params: SearchParams | None = None) -> SolveResult:
    """Feasibility verdict, then the cheapest applicable solving route.

    Constructive routes handle k = 1, the size-one rule, and k = 2; other
    instances run local_search(inst, params) and, if every start stalls,
    the exhaustive fallback within exact_node_budget nodes.  A SOLVED
    result always carries an equitable partition whose block i has size
    inst.sizes[i]; every route's answer is certified against that, and a
    route that breaks it raises RuntimeError.
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

    if verdict.infeasible:
        return finish(SolveStatus.PROVEN_INFEASIBLE, None)
    if verdict.s is None:
        raise RuntimeError(f"feasible verdict without a magic sum: {verdict}")

    if inst.k == 1:
        return finish(SolveStatus.SOLVED, Partition.from_blocks(inst.n, [range(1, inst.n + 1)]))
    if inst.sizes[0] == 1:
        return finish(SolveStatus.SOLVED, solve_p1_eq_1(inst))
    if inst.k == 2:
        return finish(SolveStatus.SOLVED, solve_k2(inst))

    # stats by keyword: the benchmark tracer reads it from there.
    candidate = local_search(inst, params, stats=stats)
    if candidate is not None:
        return finish(SolveStatus.SOLVED, candidate)
    exact = solve_exact(inst, budget=params.exact_node_budget)
    stats.nodes += exact.nodes
    if exact.status is ExactStatus.FOUND:
        return finish(SolveStatus.SOLVED, exact.partition)
    if exact.status is ExactStatus.NOT_FOUND:
        return finish(SolveStatus.PROVEN_INFEASIBLE, None)
    return finish(SolveStatus.BUDGET_EXHAUSTED, None)
