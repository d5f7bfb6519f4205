"""Exact-integer properties of the partition algebra."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart.core import (
    INFINITE_WIDTH,
    Instance,
    Partition,
    _class_width,
    _State,
    deviation,
    implements,
    is_equitable,
    magic_sum,
    swap,
    swap_delta,
    width,
)

from helpers import naive_width, random_cross_block_pair, random_partition


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


class TestInstance:
    def test_valid(self):
        inst = Instance(n=8, sizes=(2, 2, 2, 2))
        assert inst.k == 4
        assert inst.prefix_sums == (2, 4, 6, 8)

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
        assert p.block_of(3) == 1

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

    def test_implements(self):
        p = part(6, [4, 5, 6], [1, 2], [3])
        assert implements(p, (1, 2, 3))
        assert implements(p, (3, 2, 1))
        assert not implements(p, (2, 2, 2))


class TestDeviation:
    def test_examples(self):
        assert deviation(part(4, [1, 2], [3, 4]), 5) == 8
        assert deviation(part(4, [1, 4], [2, 3]), 5) == 0
        # direct arithmetic: (1-7)^2 + (5-7)^2 + (15-7)^2
        assert deviation(part(6, [1], [2, 3], [4, 5, 6]), 7) == 36 + 4 + 64

    def test_zero_iff_equitable(self):
        p = part(4, [1, 4], [2, 3])
        assert is_equitable(p, 5)
        assert not is_equitable(p, 4)


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
        with pytest.raises(ValueError):
            swap(p, 1, 5)


class TestSwapDelta:
    def test_examples(self):
        p = part(4, [1, 2], [3, 4])
        assert swap_delta(p, 1, 3, 5) == -8
        assert deviation(swap(p, 1, 3), 5) == deviation(p, 5) - 8
        assert swap_delta(p, 2, 3, 5) == -6
        assert deviation(swap(p, 2, 3), 5) == deviation(p, 5) - 6

    def test_zero_delta_when_gap_matches_sum_difference(self):
        # b - a = 3 = S({3,4,5}) - S({1,2,6})
        p = part(6, [1, 2, 6], [3, 4, 5])
        assert swap_delta(p, 1, 4, 7) == 0
        q = swap(p, 1, 4)
        assert deviation(q, 7) == deviation(p, 7)
        assert sorted(q.sums) == sorted(p.sums)

    def test_delta_independent_of_target(self):
        p = part(6, [1, 2, 6], [3, 4, 5])
        assert swap_delta(p, 2, 3, 0) == swap_delta(p, 2, 3, 100)


class TestWidth:
    def test_examples(self):
        assert width(part(4, [1, 2], [3, 4]), 5) == 1
        assert width(part(4, [1, 4], [2, 3]), 5) == INFINITE_WIDTH
        assert width(part(6, [1, 2], [3], [4, 5, 6]), 7) == 1

    def test_requires_high_above_low(self):
        # low block {4,5} holds the top labels: no y > x pair exists
        p = part(5, [4, 5], [1, 2, 3])
        assert width(p, 12) == INFINITE_WIDTH

    def test_finite_width_at_least_one(self):
        p = part(6, [1, 2, 3], [4, 5, 6])
        w = width(p, 10)
        assert w == 1

    def test_infinite_is_math_inf(self):
        assert width(part(4, [1, 4], [2, 3]), 5) == math.inf

    def test_class_string(self):
        # block sums 6, 7, 8 against s = 7; byte 0 is no label
        p = part(6, [1, 5], [3, 4], [2, 6])
        assert _State(p).classes(7) == bytearray(b"ELHEELH")
        assert [_class_width(b"ELHEELH", w) for w in (math.inf, 2, 1)] == [1, 1, 1]
        assert [_class_width(b"ELEEHEH", w) for w in (math.inf, 4, 3)] == [3, 3, 3]
        assert _class_width(b"EHHELL") == math.inf


class TestEquivalent:
    """Two partitions are equivalent when their block-sum multisets agree."""

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
        assert swap_delta(p, 2, 3, 6) == 0


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
    delta = swap_delta(p, a, b, s)
    q = swap(p, a, b)
    assert deviation(q, s) == deviation(p, s) + delta
    # sign trichotomy against t - u
    t = b - a
    u = p.sums[p.block_of(b)] - p.sums[p.block_of(a)]
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
def test_equitable_iff_all_exact_and_width_infinite(seed):
    rng = random.Random(seed)
    p = random_partition(rng, max_n=30)
    total = p.n * (p.n + 1) // 2
    if total % p.k == 0:
        s = total // p.k
        all_exact = all(t == s for t in p.sums)
        assert (deviation(p, s) == 0) == all_exact
        if deviation(p, s) == 0:
            assert width(p, s) == INFINITE_WIDTH


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-10, max_value=600),
    st.integers(min_value=0, max_value=45),
)
def test_width_matches_pairwise_minimum(seed, s, below):
    # width() and the plateau's test of a candidate run one routine, the
    # latter bounded by the current width; check both against every pair
    p = random_partition(random.Random(seed), max_n=40)
    expected = naive_width(p, s)
    assert width(p, s) == expected
    assert _class_width(_State(p).classes(s), below) == min(expected, below)
