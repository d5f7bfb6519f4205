"""Exact-integer properties of the partition algebra."""

import argparse
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart import cli
from equipart.core import (
    MAX_N,
    Instance,
    Partition,
    deviation,
    magic_sum,
    swap,
    swap_delta,
)
from equipart.solver import solve_k2

from helpers import block_of, hash_set_partition_blocks, random_cross_block_pair, random_partition


def part(n, *blocks):
    return Partition.from_blocks(n, blocks)


class TestMagicSum:
    def test_divisible_cases(self):
        assert magic_sum(8, 4) == 9
        assert magic_sum(7, 4) == 7
        assert magic_sum(1, 1) == 1

    def test_indivisible_returns_none(self):
        assert magic_sum(6, 4) is None
        assert magic_sum(5, 2) is None

    def test_k1_always_total(self):
        for n in range(1, 30):
            assert magic_sum(n, 1) == n * (n + 1) // 2

    def test_input_range_guard(self):
        with pytest.raises(ValueError):
            magic_sum(0, 1)
        with pytest.raises(ValueError):
            magic_sum(2**31 + 1, 2)
        with pytest.raises(ValueError):
            magic_sum(10, 0)
        with pytest.raises(ValueError):
            magic_sum(3.0, 2)

    @pytest.mark.parametrize("n, k", [(6, 1.5), (3, 2.0), (3, True), (4, "2"), (4, None)])
    def test_non_int_k_rejected(self, n, k):
        # 21 / 1.5 = 14.0 and 6 / 2.0 = 3.0 divide evenly, and True == 1; none is a count
        with pytest.raises(ValueError, match="k must be an integer"):
            magic_sum(n, k)


class TestInstance:
    def test_valid(self):
        inst = Instance(n=8, sizes=(2, 2, 2, 2))
        assert inst.k == 4

    def test_from_sizes_normalizes_order(self):
        inst = Instance.from_sizes(9, [4, 2, 3])
        assert inst.sizes == (2, 3, 4)

    @pytest.mark.parametrize(
        "n,sizes",
        [
            (8, (2, 2, 2, 3)),  # wrong total
            (8, (3, 2, 2, 1)),  # decreasing
            (8, (0, 2, 2, 4)),  # non-positive part
            (0, (0,)),
            (3, (1.5, 1.5)),  # float sizes
            (3.0, (1, 2)),  # float n
            (True, (True,)),  # bools are not ints here
            (2, (True, 1)),
            (3, (1, "a")),  # a string size: ValueError, not sorted()'s TypeError
        ],
    )
    def test_invalid(self, n, sizes):
        with pytest.raises(ValueError):
            Instance(n=n, sizes=sizes)
        if sizes != (3, 2, 2, 1):  # the one input from_sizes repairs, by sorting
            with pytest.raises(ValueError):
                Instance.from_sizes(n, sizes)


class TestPartition:
    def test_from_blocks_sorts_and_sums(self):
        p = part(4, [2, 1], [4, 3])
        assert p.blocks == ((1, 2), (3, 4))
        assert p.sums == (3, 7)
        assert p.k == 2

    @pytest.mark.parametrize(
        "n,blocks",
        [
            (4, [[1, 2], [3]]),  # 4 missing
            (4, [[1, 2], [2, 3, 4]]),  # overlap
            (4, [[1, 2], [3, 4, 5]]),  # out of range
            (4, [[1, 2, 3, 4], []]),  # empty block
            (3, [[1.0, 2.0], [3]]),  # float labels
            (3, [[True, 2], [3]]),  # bool label
            (3, [["a", "b"], ["c"]]),  # string labels
            (3, [[2, "a"], [1, 3]]),  # mixed block: no TypeError from sorting
            (3.0, [[1, 2], [3]]),  # float n
            (True, [[1]]),  # bool n
            (4, [[1, 1, 2], [3, 4]]),  # repeat within a block
            (4, []),  # no block
        ],
    )
    def test_invalid_blocks(self, n, blocks):
        with pytest.raises(ValueError):
            Partition.from_blocks(n, blocks)
        with pytest.raises(ValueError):
            Partition(n=n, blocks=blocks)

    def test_sums_are_derived(self):
        p = Partition(n=5, blocks=((5, 1), (2, 3, 4)))
        assert p.blocks == ((1, 5), (2, 3, 4))
        assert p.sums == tuple(sum(b) for b in p.blocks) == (6, 9)
        with pytest.raises(TypeError):
            Partition(n=4, blocks=((1, 2), (3, 4)), sums=(3, 8))

    def test_blocks_keep_their_slot_order(self):
        # block i stays in slot i whatever its size: nothing re-sorts the blocks
        p = part(6, [4, 5, 6], [1, 2], [3])
        assert tuple(map(len, p.blocks)) == (3, 2, 1)
        assert p.sums == (15, 3, 3)


#: A label as a caller may pass one: mostly ints near [1, n], some not ints at all.
LABELS = st.integers(min_value=-1, max_value=14) | st.sampled_from(
    [0.0, 1.0, 2.5, True, False, "1", "a"])


def _as_range(labels):
    """The range holding exactly these labels in this order, or None."""
    if not labels or not all(type(x) is int for x in labels):
        return None
    step = labels[1] - labels[0] if len(labels) > 1 else 1
    if step < 1:
        return None
    r = range(labels[0], labels[-1] + 1, step)
    return r if tuple(r) == tuple(labels) else None


@st.composite
def partition_inputs(draw):
    """(n, blocks spec): a cover of [n], perhaps broken, or arbitrary labels.

    Each block is spec'd as (kind, labels) with kind list, tuple, generator
    or range; _fresh builds new iterables from it, since a generator is
    used up by one constructor call.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        blocks = draw(st.lists(st.lists(LABELS, max_size=6), max_size=4))
    else:
        labels = list(range(1, n + 1))
        if draw(st.booleans()):
            labels = draw(st.permutations(labels))
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n), max_size=3)) - {n})
        bounds = [0, *cuts, n]
        blocks = [list(labels[a:b]) for a, b in zip(bounds, bounds[1:])]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            block, other = draw(st.sampled_from(blocks)), draw(st.sampled_from(blocks))
            change = draw(st.sampled_from(
                ["duplicate", "drop", "replace", "retype", "one_as_true", "move", "empty"]))
            if change == "one_as_true":  # True == 1, so only the type check rejects it
                for b in blocks:
                    b[:] = [True if type(x) is int and x == 1 else x for x in b]
                continue
            if change == "empty" or not block:
                blocks.append([])
                continue
            j = draw(st.integers(min_value=0, max_value=len(block) - 1))
            if change == "duplicate":
                other.append(block[j])
            elif change == "drop":
                del block[j]
            elif change == "replace":
                block[j] = draw(st.sampled_from([0, -1, n + 1, n + 5]))
            elif change == "retype":
                block[j] = draw(st.sampled_from([float(block[j]), str(block[j])]))
            else:
                other.append(block.pop(j))
    spec = []
    for block in blocks:
        kind = draw(st.sampled_from(["list", "tuple", "generator", "range"]))
        r = _as_range(block)
        spec.append(("range", r) if kind == "range" and r is not None else (kind, tuple(block)))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        n = draw(st.sampled_from([float(n), True, 0, -n]))
    return n, spec


def _fresh(spec):
    makers = {"list": list, "tuple": tuple, "range": lambda r: r,
              "generator": lambda labels: (x for x in labels)}
    return [makers[kind](labels) for kind, labels in spec]


class TestPartitionRule:
    @settings(max_examples=600, deadline=None)
    @given(case=partition_inputs())
    def test_accepts_exactly_what_the_hash_set_rule_accepts(self, case):
        n, spec = case
        expected = hash_set_partition_blocks(n, _fresh(spec))
        if expected is None:
            with pytest.raises(ValueError):
                Partition.from_blocks(n, _fresh(spec))
        else:
            p = Partition.from_blocks(n, _fresh(spec))
            assert p.blocks == expected
            assert p.sums == tuple(map(sum, expected))
            # the blocks may also come as a one-shot iterator of blocks
            assert Partition.from_blocks(n, iter(_fresh(spec))) == p

    def test_huge_n_with_few_labels_is_rejected_before_allocating(self):
        # The label count is checked before the n + 1 bytes of marks exist.
        def build():
            with pytest.raises(ValueError, match="union exactly"):
                Partition.from_blocks(MAX_N, [[1, 2], [3]])

        assert _traced_peak(build) < 2**20


def _traced_peak(build) -> int:
    """tracemalloc's peak of the bytes build() allocates, kept or not."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Bytes per label at the peak of a build at n = 200,000.

    Measured on CPython 3.11: Partition.from_blocks on two tuple blocks
    peaks at 12.8 B/label with the byte marks, 70.9 B/label with the
    hash-set check (the set alone is over 40); solve_k2 peaks at 44.8
    B/label building its blocks lazily with their lengths known, 45.0
    B/label as bare chains (28 of them are the labels' int objects, which
    the answer keeps), 110.9 B/label with concatenated tuples and the hash
    set.  Writing solve_k2's blocks as JSON to a file peaks at 3.9 B/label
    in runs of at most cli._RUN labels, 8.9 B/label with one %-format per
    block, 21.3 B/label with the JSON encoder.  Their text form, and a
    whole text answer of solve or label, written to a file peaks at
    3.0-3.6 B/label in runs, 12.9 B/label with one %-format per block (the
    blocks, or the whole answer, as one string), 44.1 B/label with a str
    per label.  Reading a solve JSON file back into a Partition peaks at
    44.1 B/label, json.load's own peak, when the build takes each parsed
    list out of the document as it copies it; 49.4 B/label while the
    document keeps them all.
    """

    N = 200_000

    def _k2_blocks(self):
        return solve_k2(Instance.from_sizes(self.N, [80_000, 120_000])).blocks

    def test_from_blocks(self):
        n, half = self.N, 80_000
        blocks = (tuple(range(1, 2 * half, 2)),
                  tuple(range(2, 2 * half + 1, 2)) + tuple(range(2 * half + 1, n + 1)))
        assert _traced_peak(lambda: Partition.from_blocks(n, blocks)) / n < 24

    def test_solve_k2(self):
        inst = Instance.from_sizes(self.N, [80_000, 120_000])
        assert _traced_peak(lambda: solve_k2(inst)) / self.N < 60

    def test_write_json(self, tmp_path):
        blocks = self._k2_blocks()
        path = tmp_path / "blocks.json"

        def write():
            with open(path, "w", encoding="utf-8") as handle:
                cli._write_json(handle, {"blocks": blocks})

        assert _traced_peak(write) / self.N < 5

    def test_blocks_text(self, tmp_path):
        blocks = self._k2_blocks()
        path = tmp_path / "blocks.txt"

        def write():
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(cli._blocks_text(blocks))

        assert _traced_peak(write) / self.N < 5

    @pytest.mark.parametrize("render", ["_solve_text", "_label_text"])
    def test_text_answer(self, tmp_path, render):
        payload = cli._base_payload(self.N, [80_000, 120_000])
        payload.update(status="solved", blocks=self._k2_blocks(), graph_constant=0,
                       stats={"nodes": 0, "search_restarts": 0, "elapsed": 0.0})
        args = argparse.Namespace(format="text", output=str(tmp_path / "answer.txt"))
        assert _traced_peak(lambda: cli._emit(args, payload, getattr(cli, render))) / self.N < 5

    def test_read_partition(self, tmp_path):
        path = tmp_path / "solved.json"
        assert cli.main(["solve", "--n", str(self.N), "--sizes", "80000,120000",
                         "--format", "json", "-o", str(path)]) == 0

        def load():
            with open(path, encoding="utf-8") as handle:
                json.load(handle)

        args = argparse.Namespace(input=str(path))
        read = _traced_peak(lambda: cli._read_partition(args))
        assert read <= _traced_peak(load) + self.N


class TestDeviation:
    def test_examples(self):
        assert deviation(part(4, [1, 2], [3, 4]), 5) == 8
        assert deviation(part(4, [1, 4], [2, 3]), 5) == 0
        # direct arithmetic: (1-7)^2 + (5-7)^2 + (15-7)^2
        assert deviation(part(6, [1], [2, 3], [4, 5, 6]), 7) == 36 + 4 + 64

    def test_zero_iff_equitable(self):
        p = part(4, [1, 4], [2, 3])
        assert set(p.sums) == {5} and deviation(p, 5) == 0
        assert set(p.sums) != {4} and deviation(p, 4) > 0


class TestSwap:
    def test_examples(self):
        p = part(4, [1, 2], [3, 4])
        assert swap(p, 1, 3).blocks == ((2, 3), (1, 4))
        assert swap(p, 2, 3).blocks == ((1, 3), (2, 4))

    def test_involution(self):
        p = part(4, [1, 2], [3, 4])
        assert swap(swap(p, 1, 3), 1, 3) == p

    def test_preserves_sizes(self):
        p = part(6, [1, 2], [3, 4, 5], [6])
        q = swap(p, 2, 6)
        assert [len(b) for b in q.blocks] == [2, 3, 1]

    def test_same_block_rejected(self):
        with pytest.raises(ValueError):
            swap(part(4, [1, 2], [3, 4]), 1, 2)

    def test_order_and_range_enforced(self):
        p = part(4, [1, 2], [3, 4])
        with pytest.raises(ValueError):
            swap(p, 3, 1)
        for a, b in ((1, 5), (0, 3), (1.5, 3), ("1", 3), (None, 3)):
            with pytest.raises(ValueError, match="not in"):
                swap(p, a, b)
            with pytest.raises(ValueError, match="not in"):
                swap_delta(p, a, b)


class TestSwapDelta:
    def test_examples(self):
        p = part(4, [1, 2], [3, 4])
        assert swap_delta(p, 1, 3) == -8
        assert deviation(swap(p, 1, 3), 5) == deviation(p, 5) - 8
        assert swap_delta(p, 2, 3) == -6
        assert deviation(swap(p, 2, 3), 5) == deviation(p, 5) - 6

    def test_zero_delta_when_gap_matches_sum_difference(self):
        # b - a = 3 = S({3,4,5}) - S({1,2,6})
        p = part(6, [1, 2, 6], [3, 4, 5])
        assert swap_delta(p, 1, 4) == 0
        q = swap(p, 1, 4)
        assert deviation(q, 7) == deviation(p, 7)
        assert sorted(q.sums) == sorted(p.sums)

    def test_delta_independent_of_target(self):
        p = part(6, [1, 2, 6], [3, 4, 5])
        q = swap(p, 2, 3)
        for s in (0, 7, 100):
            assert deviation(q, s) - deviation(p, s) == swap_delta(p, 2, 3)

    @pytest.mark.parametrize("a, b", [(1.0, 3), (True, 3), (1, 3.0)])
    @pytest.mark.parametrize("exchange", [swap, swap_delta])
    def test_label_equal_to_an_int_is_not_one(self, exchange, a, b):
        # 1.0 == 1 and True == 1 find label 1's block; neither is a label
        with pytest.raises(ValueError, match="labels must be integers"):
            exchange(part(4, [1, 2], [3, 4]), a, b)


class TestBlockSumMultiset:
    """Block-sum multisets, and the swaps that leave them as they are."""

    def test_examples(self):
        assert sorted(part(4, [1, 2], [3, 4]).sums) != sorted(part(4, [2, 3], [1, 4]).sums)

    def test_sum_multiset_only_not_sizes(self):
        # sums {6, 15} on both sides, with different block sizes
        p = part(6, [1, 2, 3], [4, 5, 6])
        q = part(6, [6], [1, 2, 3, 4, 5])
        assert sorted(p.sums) == sorted(q.sums)

    def test_adjacent_swap_between_blocks_differing_by_one(self):
        # S({1,3,4}) = S({2,5}) + 1 and 2 sits next to 3, so exchanging
        # them trades the two block sums: an equivalence move
        p = part(6, [2, 5], [1, 3, 4], [6])
        q = swap(p, 2, 3)
        assert sorted(p.sums) == sorted(q.sums)
        assert swap_delta(p, 2, 3) == 0


# ---------------------------------------------------------------------------
# Randomized properties
# ---------------------------------------------------------------------------


@st.composite
def partition_and_pair(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    p = random_partition(rng, max_n=40)
    a, b = random_cross_block_pair(rng, p)
    s = draw(st.integers(min_value=-50, max_value=200))
    return p, a, b, s


@settings(max_examples=200, deadline=None)
@given(partition_and_pair())
def test_swap_delta_contract(data):
    p, a, b, s = data
    delta = swap_delta(p, a, b)
    q = swap(p, a, b)
    assert deviation(q, s) == deviation(p, s) + delta
    # sign trichotomy against t - u
    t = b - a
    u = p.sums[block_of(p, b)] - p.sums[block_of(p, a)]
    if t > u:
        assert delta > 0
    elif t == u:
        assert delta == 0
    else:
        assert delta < 0


@settings(max_examples=200, deadline=None)
@given(partition_and_pair())
def test_swap_preserves_structure(data):
    p, a, b, _ = data
    q = swap(p, a, b)
    assert sorted(len(x) for x in q.blocks) == sorted(len(x) for x in p.blocks)
    assert sum(q.sums) == p.n * (p.n + 1) // 2
    assert swap(q, a, b) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_equitable_iff_all_exact(seed):
    rng = random.Random(seed)
    p = random_partition(rng, max_n=30)
    total = p.n * (p.n + 1) // 2
    if total % p.k == 0:
        s = total // p.k
        all_exact = all(t == s for t in p.sums)
        assert (deviation(p, s) == 0) == all_exact
