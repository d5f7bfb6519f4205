"""Graph-level verification of the open and closed magic conditions."""

import random

import pytest

from equipart.core import Instance, Partition, magic_sum
from equipart.graphs import MagicCheck, labeling_from_partition, verify_closed_magic_cycle
from equipart.solver import SolveStatus, solve

import helpers
from helpers import explicit_neighbor_sums, random_partition, verify_open_checked


def part(n, *blocks):
    return Partition.from_blocks(n, blocks)


class TestLabeling:
    def test_from_partition(self):
        p = part(8, [1, 8], [2, 7], [3, 6], [4, 5])
        g = labeling_from_partition(p)
        assert [len(b) for b in g.blocks] == [2, 2, 2, 2]
        assert 8 in g.blocks[0]
        assert 5 in g.blocks[3]

    def test_small(self):
        g = labeling_from_partition(part(3, [3], [1, 2]))
        assert [len(b) for b in g.blocks] == [1, 2]

    def test_round_trip(self):
        # the partition is the labeling: nothing is copied or re-validated
        p = part(6, [1, 5], [2, 4, 6], [3])
        assert labeling_from_partition(p) is p


class TestVerifyDistanceMagic:
    def test_balanced_four_parts(self):
        check = verify_open_checked(part(8, [1, 8], [2, 7], [3, 6], [4, 5]))
        assert check.is_magic
        assert check.constant == 27
        assert check.witness is None

    def test_unbalanced_split_not_magic(self):
        p = part(4, [1, 2], [3, 4])
        check = verify_open_checked(p)
        assert not check.is_magic
        assert check.constant is None
        x, y = check.witness
        sums = explicit_neighbor_sums(p)
        assert sums[x] != sums[y]
        assert {sums[x], sums[y]} == {7, 3}

    def test_one_two_split(self):
        check = verify_open_checked(part(3, [3], [1, 2]))
        assert check.is_magic
        assert check.constant == 3

    def test_single_part_is_edgeless(self):
        check = verify_open_checked(part(3, [1, 2, 3]))
        assert check.is_magic
        assert check.constant == 0

    def test_cross_check_catches_a_wrong_constant(self, monkeypatch):
        # the helper's check must raise, also under python -O (conftest.py)
        monkeypatch.setattr(helpers, "verify_distance_magic", lambda p: MagicCheck(True, 28))
        with pytest.raises(AssertionError):
            verify_open_checked(part(8, [1, 8], [2, 7], [3, 6], [4, 5]))

    def test_explicit_route_agrees_with_complement_formula(self):
        rng = random.Random(424242)
        for _ in range(30):
            p = random_partition(rng, max_n=40)
            total = p.n * (p.n + 1) // 2
            explicit = explicit_neighbor_sums(p)
            for i, block in enumerate(p.blocks):
                for x in block:
                    assert explicit[x] == total - p.sums[i]
            verify_open_checked(p)


class TestVerifyClosedMagicCycle:
    def test_k4_equitable(self):
        check = verify_closed_magic_cycle(part(8, [1, 8], [2, 7], [3, 6], [4, 5]))
        assert check.is_magic
        assert check.constant == 27
        assert not check.degenerate

    def test_k3_degenerate(self):
        check = verify_closed_magic_cycle(part(9, [6, 9], [2, 5, 8], [1, 3, 4, 7]))
        assert check.is_magic
        assert check.constant == 45
        assert check.degenerate

    def test_k4_unbalanced_not_magic(self):
        check = verify_closed_magic_cycle(part(8, [1, 2], [3, 4], [5, 6], [7, 8]))
        assert not check.is_magic
        assert check.witness is not None

    def test_k2_rejected(self):
        with pytest.raises(ValueError):
            verify_closed_magic_cycle(part(4, [1, 4], [2, 3]))

    def test_closed_constant_without_equitability(self):
        # block sums 6,12,21,6,12,21: every consecutive triple is 39, yet the
        # partition is not equitable (s would be 13); the verifier checks the
        # closed condition itself, not equitability
        p = part(12, [6], [12], [5, 7, 9], [2, 4], [1, 11], [3, 8, 10])
        assert p.sums == (6, 12, 21, 6, 12, 21)
        check = verify_closed_magic_cycle(p)
        assert check.is_magic
        assert check.constant == 39


def test_solved_instances_are_magic():
    for sizes, n in [((2, 2, 2, 2), 8), ((2, 3, 4), 9), ((1, 2, 2, 2), 7), ((3, 4), 7)]:
        inst = Instance.from_sizes(n, sizes)
        res = solve(inst)
        assert res.status is SolveStatus.SOLVED
        s = magic_sum(n, inst.k)
        total = n * (n + 1) // 2
        check = verify_open_checked(res.partition)
        assert check.is_magic
        assert check.constant == total - s
        if inst.k >= 4:
            closed = verify_closed_magic_cycle(res.partition)
            assert closed.is_magic
            assert closed.constant == 3 * s
