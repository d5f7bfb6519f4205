"""Feasibility pipeline: divisibility, size-one rule, prefix condition."""

import importlib
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart.core import Instance, magic_sum
from equipart.feasibility import (
    FeasibilityStatus,
    condition_failing_index,
    feasibility,
    prefix_top_sum,
)
from equipart.lab import _box, enumerate_size_sequences
from equipart.solver import _FULL_KEY, _failing_union, solve_exact, solve_k2

from helpers import naive_completion_exists, naive_equitable_exists, reference_failing_prefix


class TestPrefixTopSum:
    def test_examples(self):
        assert prefix_top_sum(12, 2) == 23
        assert prefix_top_sum(8, 4) == 26
        assert prefix_top_sum(8, 8) == 36
        assert prefix_top_sum(8, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_top_sum(8, 9)
        with pytest.raises(ValueError):
            prefix_top_sum(8, -1)

    @pytest.mark.parametrize("n, P", [(5, 2.0), (5, True), (5, "2"), (5.0, 2), (True, 1), (0, 0)])
    def test_non_int_or_out_of_range_rejected(self, n, P):
        with pytest.raises(ValueError):
            prefix_top_sum(n, P)

    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_matches_brute_sum(self, n, data):
        P = data.draw(st.integers(min_value=0, max_value=n))
        assert prefix_top_sum(n, P) == sum(range(n - P + 1, n + 1))


class TestNecessaryCondition:
    def test_examples(self):
        assert condition_failing_index(8, (2, 2, 2, 2), 9) is None
        assert condition_failing_index(12, (2, 2, 8), 26) is not None
        assert condition_failing_index(9, (2, 3, 4), 15) is None

    def test_smallest_failing_index_reported(self):
        assert condition_failing_index(12, (2, 2, 8), 26) == 1
        # fails at j=2 while j=1 passes: top-6 = 75 < 2*40
        assert condition_failing_index(15, (3, 3, 9), 40) == 2
        assert prefix_top_sum(15, 3) >= 40

    def test_requires_integral_magic_sum(self, monkeypatch):
        # C(7, 2) = 21 has no integral share among k = 4 or k = 2 blocks: the
        # verdict stops at divisibility before the loop, and the routes that
        # would run the loop at their root reject the instance
        def unreachable(*args):
            raise AssertionError("prefix condition run without an integral magic sum")

        # the package's feasibility() hides its module of the same name
        module = importlib.import_module("equipart.feasibility")
        monkeypatch.setattr(module, "condition_failing_index", unreachable)
        verdict = feasibility(Instance.from_sizes(6, [1, 1, 2, 2]))
        assert verdict.status is FeasibilityStatus.INFEASIBLE_DIVISIBILITY
        with pytest.raises(ValueError):
            solve_exact(Instance.from_sizes(6, [1, 1, 2, 2]), budget=10)
        with pytest.raises(ValueError):
            solve_k2(Instance.from_sizes(6, [3, 3]))

    def test_last_index_is_always_equality(self):
        for n in range(1, 25):
            for k in range(1, n + 1):
                s = magic_sum(n, k)
                if s is None:
                    continue
                assert prefix_top_sum(n, n) == k * s

    def test_depends_on_sizes_only_through_prefix_sums(self):
        # evaluating the inequality directly from the prefix sums gives
        # the same answer as the instance-level check
        for inst in (
            Instance.from_sizes(12, [2, 2, 8]),
            Instance.from_sizes(9, [2, 3, 4]),
            Instance.from_sizes(15, [3, 3, 9]),
        ):
            s = magic_sum(inst.n, inst.k)
            by_prefix = all(
                prefix_top_sum(inst.n, P) >= j * s
                for j, P in enumerate(accumulate(inst.sizes), start=1)
            )
            assert by_prefix == (condition_failing_index(inst.n, inst.sizes, s) is None)


class TestUnionBound:
    """The exact search's union bound: condition_failing_index at the root,
    solver._failing_union at placed nodes."""

    def test_root_case_is_the_papers_inequality(self):
        # PAPER.md: sum_{i=1}^{P_j} (n - i + 1) >= j * C(n + 1, 2) / k for every
        # j, written here times k so that both sides stay integers
        failing = 0
        for inst in _box(40, range(3, 9), 1):
            n, k = inst.n, inst.k
            expected, top, P = None, 0, 0
            for j, p in enumerate(inst.sizes, start=1):
                top += sum(n - i + 1 for i in range(P + 1, P + p + 1))
                P += p
                if k * top < j * n * (n + 1) // 2:
                    expected = j
                    break
            assert condition_failing_index(n, inst.sizes, magic_sum(n, k)) == expected, inst
            failing += expected is not None
        assert failing > 0

    def test_verdict_is_the_union_bound_at_the_root(self):
        # The root state has every block open with need s and the pool all of
        # [n]; there the union bound, ranking blocks by need per slot, must
        # fail at the same j as the verdict's loop over the sorted sizes.
        got = {}
        for inst in _box(40, range(2, 9), 1):
            s = magic_sum(inst.n, inst.k)
            j = condition_failing_index(inst.n, inst.sizes, s)
            assert j == reference_failing_prefix(inst.sizes, [s] * inst.k, inst.n), inst
            got[inst.n, inst.sizes] = j
        # among them the two where the root fails at j = k - 1
        assert got[14, (3, 3, 8)] == 2 and got[15, (2, 2, 2, 2, 7)] == 4
        assert sum(j is not None for j in got.values()) > 1000

    def test_root_keeps_the_complement_of_the_largest_block(self):
        # at the root no block's own bounds are checked yet, so j = k - 1 can
        # fail: (14; 3, 3, 8) has s = 35 < tri(8), the largest block's minimum
        assert condition_failing_index(14, (3, 3, 8), 35) == 2
        assert condition_failing_index(15, (2, 2, 2, 2, 7), 24) == 4


    @staticmethod
    def _random_states(count, k_max=5, n_max=14):
        """count random partial states (e, left, need): labels n, ..., e + 1 placed at random."""
        rng = random.Random(3)
        states = 0
        while states < count:
            n, k = rng.randint(6, n_max), rng.randint(3, k_max)
            s = magic_sum(n, k)
            if s is None or n < k:
                continue
            sizes = [1] * k
            for _ in range(n - k):
                sizes[rng.randrange(k)] += 1
            left, need = sizes[:], [s] * k
            e = rng.randint(0, n)
            for x in range(n, e, -1):
                i = rng.choice([i for i in range(k) if left[i]])
                left[i] -= 1
                need[i] -= x
            states += 1
            yield e, left, need

    @staticmethod
    def _blocks_completable(e, left, need):
        """Every block's need lies between its smallest and largest completion from {1, ..., e}."""
        return all(j * (j + 1) // 2 <= d <= j * (2 * e + 1 - j) // 2 for j, d in zip(left, need))

    @staticmethod
    def _keys(left, need):
        """The union keys the search keeps for (left, need), in block order."""
        return [(d / j, -j, d) if j else _FULL_KEY for j, d in zip(left, need)]

    def test_dead_states_have_no_completion(self):
        # The search prunes a state when a block cannot be completed or, with
        # four or more open blocks, the routine finds a union that cannot.
        dead = beyond_single_blocks = 0
        for e, left, need in self._random_states(5000):
            completable = self._blocks_completable(e, left, need)
            m = sum(map(bool, left))
            if completable and not (m > 3 and _failing_union(self._keys(left, need), e, m)):
                continue
            dead += 1
            assert not naive_completion_exists(e, left, need), (e, left, need)
            # a state every single block of which could still be completed
            beyond_single_blocks += completable
        assert dead > 1000 and beyond_single_blocks > 20

    def test_inner_prefixes_prune_like_all_prefixes(self):
        # At a placed search state every open block meets its own bounds; there
        # the routine's check of j = 2 ... m - 2 prunes exactly when the check
        # of all prefixes does.  k up to 8 and n up to 30 give states that
        # first fail past j = 2.
        kept = pruned = deep = 0
        for e, left, need in self._random_states(30000, k_max=8, n_max=30):
            if not self._blocks_completable(e, left, need):
                continue
            kept += 1
            full = reference_failing_prefix(left, need, e)
            m = sum(map(bool, left))
            if m <= 3:  # the search's guard: no prefix is left to check
                assert full is None, (e, left, need)
                continue
            assert _failing_union(self._keys(left, need), e, m) == (full is not None), (e, left, need)
            pruned += full is not None
            deep += full is not None and full > 2
        assert kept > 3000 and pruned > 200 and deep > 10

    @staticmethod
    def _tie_states(count):
        """count states (e, left, need) where 2 or 3 blocks of different sizes share need / left."""
        rng = random.Random(7)
        for _ in range(count):
            k = rng.randint(4, 8)
            q, r = rng.randint(1, 3), rng.randint(1, 20)
            group = rng.sample(range(1, 5), rng.randint(2, 3))
            blocks = [(q * c, r * c) for c in group]  # need / left = r / q for each
            while len(blocks) < k:
                j = rng.randint(0, 6)
                blocks.append((j, rng.randint(j * (j + 1) // 2, j * (j + 12)) if j else 0))
            rng.shuffle(blocks)
            left, need = map(list, zip(*blocks))
            yield max(0, sum(left) + rng.randint(-4, 4)), left, need

    def test_routine_matches_the_build_and_sort_reference(self):
        # _failing_union ranks the keys it is handed.  Called as the search
        # calls it, with one key per block in block order, _FULL_KEY for a full
        # block and m >= 4 open blocks, it overflows exactly when the
        # reference's j = 2 ... m - 2 does; the full blocks' keys change nothing.
        # Most tie states have four or more open blocks, so they carry the counts.
        states = [*self._random_states(20000, k_max=8, n_max=30), *self._tie_states(30000)]
        with_full = tie_decides = inner_pruned = 0
        for e, left, need in states:
            m = sum(map(bool, left))
            if m < 4:
                continue
            j = reference_failing_prefix(left, need, e, True)
            assert _failing_union(self._keys(left, need), e, m) == (j is not None), (e, left, need)
            inner_pruned += j is not None and self._blocks_completable(e, left, need)
            with_full += m < len(left)
            # the failing union ends inside a run of equal need / left, so the
            # tie-break by fewer slots decides which union failed
            ranked = sorted((d / s for s, d in zip(left, need) if s), reverse=True)
            tie_decides += j is not None and ranked[j - 1] == ranked[j]
        assert with_full > 10000 and tie_decides > 1000 and inner_pruned > 200


class TestFeasibility:
    def test_size_one_feasible(self):
        v = feasibility(Instance.from_sizes(7, [1, 2, 2, 2]))
        assert v.status is FeasibilityStatus.FEASIBLE_PROVEN
        assert v.s == 7

    def test_size_one_infeasible(self):
        v = feasibility(Instance.from_sizes(9, [1, 2, 6]))
        assert v.status is FeasibilityStatus.INFEASIBLE_SIZE_ONE
        assert v.s == 15
        assert "15" in v.reason

    def test_condition_failure_with_index(self):
        v = feasibility(Instance.from_sizes(12, [2, 2, 8]))
        assert v.status is FeasibilityStatus.INFEASIBLE_CONDITION
        assert v.failing_index == 1

    def test_divisibility_failure(self):
        v = feasibility(Instance.from_sizes(6, [1, 1, 2, 2]))
        assert v.status is FeasibilityStatus.INFEASIBLE_DIVISIBILITY
        assert v.s is None

    def test_k1_always_feasible(self):
        for n in (1, 2, 5, 12):
            v = feasibility(Instance.from_sizes(n, [n]))
            assert v.status is FeasibilityStatus.FEASIBLE_PROVEN

    def test_all_singletons_feasible_only_for_n1(self):
        assert feasibility(Instance.from_sizes(1, [1])).predicts_feasible
        v = feasibility(Instance.from_sizes(3, [1, 1, 1]))
        assert v.status is FeasibilityStatus.INFEASIBLE_SIZE_ONE

    def test_k_le_4_proven(self):
        v = feasibility(Instance.from_sizes(16, [3, 4, 4, 5]))
        assert v.status is FeasibilityStatus.FEASIBLE_PROVEN
        # top-2 sum 31 cannot reach s=34, so a 2-element block is hopeless
        v2 = feasibility(Instance.from_sizes(16, [2, 4, 4, 6]))
        assert v2.status is FeasibilityStatus.INFEASIBLE_CONDITION
        assert v2.failing_index == 1

    def test_k_ge_5_conjectured(self):
        v = feasibility(Instance.from_sizes(15, [3, 3, 3, 3, 3]))
        assert v.status is FeasibilityStatus.CONDITION_HOLDS_CONJECTURED
        assert v.predicts_feasible

    def test_size_one_rule_matches_naive_oracle(self):
        # exhaustive over small n: every sequence starting with a size-1 part
        for n in range(2, 11):
            for k in range(2, n + 1):
                s = magic_sum(n, k)
                if s is None:
                    continue
                for sizes in enumerate_size_sequences(n, k, 1):
                    if sizes[0] != 1:
                        continue
                    v = feasibility(Instance(n=n, sizes=sizes))
                    assert v.predicts_feasible == naive_equitable_exists(n, sizes, s), (
                        n, k, sizes,
                    )

    def test_predictions_match_naive_oracle_on_box(self):
        # The exact search settles a predicted-infeasible row with the
        # verdict's own routine, so that direction needs a search that does
        # not share it: here, anchored enumeration without the union bound.
        infeasible = 0
        for inst in _box(22, [3, 4], 2):
            predicted = feasibility(inst).predicts_feasible
            s = magic_sum(inst.n, inst.k)
            assert predicted == naive_equitable_exists(inst.n, inst.sizes, s), inst
            infeasible += not predicted
        assert infeasible == 92  # of 153 rows


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=6),
)
def test_infeasible_statuses_never_claim_feasibility(n, k):
    if (n * (n + 1) // 2) % k != 0 or k > n:
        return
    for sizes in enumerate_size_sequences(n, k, 1):
        v = feasibility(Instance(n=n, sizes=sizes))
        assert v.predicts_feasible == (
            v.status
            in (
                FeasibilityStatus.FEASIBLE_PROVEN,
                FeasibilityStatus.CONDITION_HOLDS_CONJECTURED,
            )
        )
        if v.status is FeasibilityStatus.INFEASIBLE_CONDITION:
            assert 1 <= v.failing_index <= k
