"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the library's own search paths:
expected values are produced by naive enumeration or literal traces so
the tests check the fast implementations against something slower and
simpler.  The one exception is reference_solve_exact, an earlier loop of
the search kept as a differential reference; below the root it shares the
search's union routine, solver._failing_union.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from equipart.core import (
    MAX_N,
    Instance,
    Partition,
    _all_ints,
    _check_count,
    _integral_magic_sum,
)
from equipart.graphs import MagicCheck, verify_distance_magic
from equipart.solver import _FULL_KEY, ExactResult, ExactStatus, _failing_union


def naive_equitable_exists(n: int, sizes, s: int) -> bool:
    """Exhaustive existence check by anchored enumeration of set partitions.

    Anchors the smallest remaining element in each step, so every
    unordered partition with the given size multiset is visited exactly
    once.  Independent of the solver's assignment order and pruning.
    """

    def rec(remaining: list[int], sizes_left: list[int]) -> bool:
        if not sizes_left:
            return True
        anchor = remaining[0]
        rest = remaining[1:]
        tried: set[int] = set()
        for idx, p in enumerate(sizes_left):
            if p in tried:
                continue
            tried.add(p)
            others = sizes_left[:idx] + sizes_left[idx + 1 :]
            for combo in combinations(rest, p - 1):
                if anchor + sum(combo) != s:
                    continue
                chosen = set(combo)
                if rec([x for x in rest if x not in chosen], others):
                    return True
        return False

    return rec(list(range(1, n + 1)), list(sizes))


def naive_completion_exists(e: int, left, need) -> bool:
    """Whether {1, ..., e} splits into blocks of left[i] labels summing to need[i].

    Chooses each block's labels in turn among every combination of the
    labels still free; no bound prunes the enumeration.
    """

    def rec(pool: list[int], i: int) -> bool:
        if i == len(left):
            return not pool
        for combo in combinations(pool, left[i]):
            if sum(combo) == need[i]:
                chosen = set(combo)
                if rec([x for x in pool if x not in chosen], i + 1):
                    return True
        return False

    return rec(list(range(1, e + 1)), 0)


def reference_failing_prefix(left, need, e, inner=False):
    """The union bound by building and sorting each open block's key per call.

    The reference for the search's union routine, which ranks keys it is
    handed, and at the root for the verdict: the smallest j whose j open
    blocks of largest need / left (ties to fewer slots) overflow
    {1, ..., e}, or None; inner=True checks only j = 2 ... m - 2 of the m
    open blocks, none when m < 4.
    """
    L = D = 0
    top2 = 2 * e + 1
    order = sorted([(d / slots, -slots, d) for slots, d in zip(left, need) if slots], reverse=True)
    if inner:
        if len(order) < 4:
            return None
        L, D, order = -order[0][1], order[0][2], order[1:-2]
    for j, (_, minus_slots, d) in enumerate(order, start=1 + inner):
        L -= minus_slots
        D += d
        if 2 * D > L * (top2 - L):
            return j
    return None


def reference_solve_exact(inst: Instance, budget: int, order: list[int] | None = None) -> ExactResult:
    """solve_exact as written before its child test counted floors: the reference.

    Each child saves its block's floor, rewrites it, takes max(floors) over
    all k blocks and restores the floor when the child fails; otherwise the
    body is the library's search.  Its root test is reference_failing_prefix,
    not the verdict's condition_failing_index.  Below the root it shares the
    union routine, solver._failing_union, which is checked against
    reference_failing_prefix on its own; so a differential test against it
    checks the child test: the search that counts the floors at e + 1 once
    per label must give the same status, nodes and blocks.
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
    # solver._failing_union.
    keys = [(s / j, -j, s) for j in sizes] if k > 3 else []
    open_blocks = k
    nodes = 0
    # At the root the union bound is the prefix condition, which implies each
    # block's bounds: its first union is the smallest block, its (k - 1)-th
    # the complement of the largest, and those two bounds are the tightest.
    if reference_failing_prefix(left, need, n) is not None:
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
            # changes, so i's lower bound and the floors test the child.
            j -= 1
            d = need[i] - e
            if d >= tri[j]:
                f = floors[i]
                floors[i] = -(-(d + tri[j]) // j) if j else 0
                if max(floors) <= e:
                    break  # place e in block i
                floors[i] = f
            p += 1
        else:
            tried[e] = -1
            e += 1  # no block left: move the last placed label on
            if e > n:
                return ExactResult(status=ExactStatus.NOT_FOUND, partition=None, nodes=nodes)
            continue
        left[i] = j
        need[i] = d
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


def k2_greedy_trace(n: int, p1: int, s: int) -> list[int]:
    """Literal position-by-position raise for the two-block construction."""
    block = list(range(1, p1 + 1))
    deficit = s - p1 * (p1 + 1) // 2
    assert deficit >= 0
    for j in range(p1, 0, -1):
        cap = n - (p1 - j)
        raised = min(block[j - 1] + deficit, cap)
        deficit -= raised - block[j - 1]
        block[j - 1] = raised
    assert deficit == 0, "construction must end with zero deficit"
    return block


def random_partition(rng: random.Random, max_n: int = 50) -> Partition:
    """A uniform-ish random labeled partition with 2..8 non-empty blocks."""
    n = rng.randint(4, max_n)
    k = rng.randint(2, min(8, n))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    bounds = [0, *cuts, n]
    blocks = [labels[bounds[i] : bounds[i + 1]] for i in range(k)]
    return Partition.from_blocks(n, blocks)


def block_of(p: Partition, label: int) -> int:
    """Index of the block of p that holds label, by a plain scan."""
    return next(i for i, block in enumerate(p.blocks) if label in block)


def random_cross_block_pair(rng: random.Random, p: Partition) -> tuple[int, int]:
    """Labels a < b lying in distinct blocks of p."""
    while True:
        a, b = rng.sample(range(1, p.n + 1), 2)
        if a > b:
            a, b = b, a
        if block_of(p, a) != block_of(p, b):
            return a, b


def random_valid_instance(rng: random.Random, n_max: int = 20) -> Instance:
    """A random instance with an integral magic sum and parts >= 1."""
    while True:
        n = rng.randint(2, n_max)
        k = rng.randint(1, n)
        if (n * (n + 1) // 2) % k != 0:
            continue
        sizes = [1] * k
        for _ in range(n - k):
            sizes[rng.randrange(k)] += 1
        return Instance.from_sizes(n, sizes)


def explicit_neighbor_sums(p: Partition) -> dict[int, int]:
    """Open neighbor sums by iterating every other block, label by label."""
    out: dict[int, int] = {}
    for i, block in enumerate(p.blocks):
        total = sum(x for j, other in enumerate(p.blocks) if j != i for x in other)
        for x in block:
            out[x] = total
    return out


def verify_open_checked(p: Partition) -> MagicCheck:
    """verify_distance_magic(p), cross-checked against explicit summation."""
    check = verify_distance_magic(p)
    sums = explicit_neighbor_sums(p)
    if check.is_magic:
        assert set(sums.values()) == {check.constant}, (check, sums)
    else:
        x, y = check.witness
        assert sums[x] != sums[y], (check, sums)
    return check


def hash_set_partition_blocks(n, blocks):
    """The sorted blocks the hash-set partition rule accepts, or None where it rejects.

    The reference for Partition's byte-mark cover check: copy every block
    to a tuple, reject a non-int label (a float or bool is not one), sort,
    range-check, and count the distinct labels in one set().union of all
    blocks.
    """
    if type(n) is not int or not 1 <= n <= MAX_N:
        return None
    blocks = tuple(map(tuple, blocks))
    if not blocks:
        return None
    for block in blocks:
        if not block or not set(map(type, block)) <= {int}:
            return None
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    if any(b[0] < 1 or b[-1] > n for b in blocks):
        return None
    if sum(map(len, blocks)) != n or len(set().union(*blocks)) != n:
        return None
    return blocks


def canon(obj) -> str:
    """Canonical JSON: keys sorted, no spaces, so equal reports give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_ENCODER = json.JSONEncoder(sort_keys=True)


def joined_json_text(payload) -> str:
    """The CLI's JSON layout, built as one string by joining every field.

    One field per line, keys sorted; a non-empty list puts one item per
    line.  The reference for the CLI's streamed writer.
    """
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (list, tuple)) and value:
            items = ",\n    ".join(map(_ENCODER.encode, value))
            value_text = f"[\n    {items}\n  ]"
        else:
            value_text = _ENCODER.encode(value)
        fields.append(f"  {_ENCODER.encode(key)}: {value_text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"
