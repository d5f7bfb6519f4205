"""Solver routes: exact search, constructions, greedy init, local search."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equipart
from equipart.core import (
    INFINITE_WIDTH,
    Instance,
    Partition,
    _State,
    implements,
    is_equitable,
    magic_sum,
)
from equipart.feasibility import FeasibilityStatus, feasibility, necessary_condition
from equipart.lab import _box, enumerate_size_sequences
from equipart.solver import (
    ExactStatus,
    SearchParams,
    SolveStats,
    SolveStatus,
    XorShift64Star,
    _best_move,
    _plateau_step,
    _search,
    greedy_init,
    local_search,
    solve,
    solve_exact,
    solve_k2,
    solve_p1_eq_1,
)

from helpers import (
    assign_width,
    k2_greedy_trace,
    naive_best_move,
    naive_equitable_exists,
    naive_plateau_move,
    random_valid_instance,
)

BIG_BUDGET = 10**8

#: sha256 over json.dumps([n, sizes, status, blocks, swaps, restarts]) of
#: solve(inst, SearchParams(max_restarts=4)) for every instance of
#: _box(40, [3, 4, 5], 2), one update per instance.  It pins the descent's
#: exact move sequence and the exact fallback's answers; change it only when
#: a change of moves or answers is intended.
SOLVE_BOX_SHA256 = "e7c89abfb8ed9e6becdad66cd08c659007d167bca721809695edbca0ebfc04df"

#: sha256 over json.dumps([n, sizes, blocks]) of solve_k2(inst) for every
#: k = 2 instance that passes necessary_condition with p_1 >= 2 and n <= 300,
#: then for four p_1 at each of n = 99,999, 100,000, 100,003 (the two
#: smallest feasible, n // 3 and n // 2), one update per instance.  It pins
#: the construction's blocks; change it only when a change of blocks is
#: intended.
K2_BOX_SHA256 = "94070b6daeedbf29bf430d12ec062ec6e41b9d8f711056cea7150f266b1a68ae"

#: The descent_stall benchmark instances: k >= 5, n > 100, where the descent
#: stalls and its plateau moves run thousands of times.
STALL_CORPUS = (
    (150, (16, 18, 23, 40, 53)),
    (119, (11, 11, 13, 16, 32, 36)),
    (159, (17, 19, 30, 44, 49)),
)

#: sha256 over json.dumps([n, sizes, status, blocks, swaps, restarts, nodes])
#: of solve(inst, SearchParams(seed=s, max_restarts=2)) for s in (4, 5) and
#: every instance of STALL_CORPUS, one update per solve.  It pins the plateau
#: moves at n > 100, beyond SOLVE_BOX_SHA256's n <= 40.
STALL_CORPUS_SHA256 = "9a6bd11ece2f65aee29e8178393e5a072baf17c0c0b455a9e2db5fcff293ab3e"

#: The rows of _box(40, [5, 6, 7, 8], 2) with n >= 16 whose descent,
#: local_search(inst, SearchParams(max_restarts=2)), takes a shrinking plateau
#: candidate other than the first at least 3 times.  They hold 109 of the box's
#: 149 such steps at infinite width and 142 of its 441 at finite width, in
#: 1,781 plateau steps; the whole box takes 658,937.
SHRINKING_PLATEAU_ROWS = (
    (27, (2, 3, 3, 3, 3, 3, 10)), (27, (3, 3, 3, 3, 3, 3, 9)),
    (31, (2, 3, 3, 3, 3, 3, 4, 10)), (31, (2, 3, 3, 3, 3, 3, 7, 7)),
    (31, (2, 3, 3, 3, 4, 4, 6, 6)), (31, (2, 3, 3, 4, 4, 4, 5, 6)),
    (32, (3, 3, 4, 4, 6, 12)), (32, (3, 3, 4, 7, 7, 8)), (32, (3, 4, 4, 4, 5, 12)),
    (32, (3, 4, 4, 4, 7, 10)), (32, (3, 3, 3, 3, 3, 3, 3, 11)),
    (32, (3, 3, 3, 3, 4, 4, 6, 6)), (32, (3, 3, 3, 4, 4, 5, 5, 5)),
    (32, (3, 3, 4, 4, 4, 4, 5, 5)), (34, (3, 3, 3, 3, 4, 6, 12)),
    (34, (3, 3, 3, 3, 4, 9, 9)), (34, (3, 3, 3, 3, 5, 8, 9)), (34, (3, 3, 3, 3, 7, 7, 8)),
    (34, (3, 3, 3, 4, 7, 7, 7)), (34, (4, 5, 5, 5, 5, 5, 5)),
    (35, (3, 3, 3, 4, 4, 8, 10)), (35, (3, 3, 3, 4, 5, 7, 10)), (35, (3, 3, 4, 5, 6, 6, 8)),
    (39, (4, 4, 4, 6, 6, 15)),
)


class TestXorShift:
    def test_deterministic(self):
        a = XorShift64Star(12345)
        b = XorShift64Star(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            XorShift64Star(0)

    def test_stays_in_64_bits(self):
        rng = XorShift64Star(99)
        assert all(0 <= rng.next_u64() < 2**64 for _ in range(100))


class TestSearchParams:
    def test_restart_seeds_must_not_wrap(self):
        # restart r seeds greedy_init with seed + r; 2**64 would wrap to 0
        with pytest.raises(ValueError, match="2\\*\\*64"):
            SearchParams(seed=2**64 - 1, max_restarts=1)
        assert SearchParams(seed=2**64 - 2, max_restarts=1).seed == 2**64 - 2

    def test_fields(self):
        # the exact search is bounded by its node budget alone, not by a size cutoff
        names = [f.name for f in dataclasses.fields(SearchParams)]
        assert names == ["seed", "max_restarts", "exact_node_budget"]


class TestSolveExact:
    def test_finds_equitable_partition(self):
        res = solve_exact(Instance.from_sizes(8, [2, 2, 2, 2]), budget=BIG_BUDGET)
        assert res.status is ExactStatus.FOUND
        p = res.partition
        assert implements(p, (2, 2, 2, 2))
        assert all(t == 9 for t in p.sums)

    def test_proves_absence_by_exhaustion(self):
        res = solve_exact(Instance.from_sizes(12, [2, 2, 8]), budget=BIG_BUDGET)
        assert res.status is ExactStatus.NOT_FOUND
        assert res.partition is None

    def test_uneven_sizes(self):
        res = solve_exact(Instance.from_sizes(9, [2, 3, 4]), budget=BIG_BUDGET)
        assert res.status is ExactStatus.FOUND
        assert all(t == 15 for t in res.partition.sums)
        assert implements(res.partition, (2, 3, 4))

    def test_budget_exhaustion_reported(self):
        res = solve_exact(Instance.from_sizes(16, [4, 4, 4, 4]), budget=3)
        assert res.status is ExactStatus.BUDGET
        assert res.partition is None
        assert res.nodes >= 3

    def test_requires_integral_magic_sum(self):
        with pytest.raises(ValueError):
            solve_exact(Instance.from_sizes(6, [3, 3]), budget=10)

    def test_agrees_with_naive_enumeration(self):
        # full oracle-vs-oracle, every size multiset for n <= 12
        for n in range(1, 13):
            for k in range(1, n + 1):
                s = magic_sum(n, k)
                if s is None:
                    continue
                for sizes in enumerate_size_sequences(n, k, 1):
                    res = solve_exact(Instance(n=n, sizes=sizes), budget=BIG_BUDGET)
                    assert res.status is not ExactStatus.BUDGET
                    found = res.status is ExactStatus.FOUND
                    assert found == naive_equitable_exists(n, sizes, s), (n, k, sizes)
                    if found:
                        assert is_equitable(res.partition, s)
                        assert implements(res.partition, sizes)

    def test_deep_instance_without_recursion(self):
        # one search level per element: a recursive search overflowed the stack here
        res = _search(Instance(n=1000, sizes=(500, 500)), 10**6, by_need=False)
        assert res.status is ExactStatus.FOUND
        assert res.nodes == 1500
        assert res.partition.blocks == (
            tuple(range(1, 251)) + tuple(range(751, 1001)),
            tuple(range(251, 751)),
        )
        assert is_equitable(res.partition, magic_sum(1000, 2))
        assert implements(res.partition, (500, 500))

    def test_deep_instance_through_both_stages(self):
        res = solve_exact(Instance(n=1000, sizes=(500, 500)), budget=10**6)
        assert res.status is ExactStatus.FOUND
        assert is_equitable(res.partition, magic_sum(1000, 2))
        assert implements(res.partition, (500, 500))

    @pytest.mark.parametrize("sizes", [
        (4, 4, 4, 5, 6, 9), (4, 4, 4, 5, 7, 8), (4, 4, 4, 6, 6, 8), (4, 4, 4, 6, 7, 7),
        (4, 4, 5, 5, 6, 8), (4, 4, 5, 5, 7, 7), (4, 4, 5, 6, 6, 7), (4, 5, 5, 5, 6, 7),
    ])
    def test_need_ordered_dive_finds_what_index_order_misses(self, sizes):
        # the index order alone spends all 250,000 nodes on each of these
        inst = Instance(n=32, sizes=sizes)
        res = solve_exact(inst, budget=250_000)
        assert res.status is ExactStatus.FOUND
        assert res.nodes <= 32 * 32
        assert is_equitable(res.partition, magic_sum(32, 6))
        assert implements(res.partition, sizes)

    def test_budget_split_between_stages(self):
        # the dive takes min(32 n, budget // 2) nodes, the index order the rest
        inst = Instance(n=32, sizes=(4, 4, 5, 5, 7, 7))
        assert solve_exact(inst, budget=1000).nodes == 1001
        assert solve_exact(inst, budget=0).nodes == 1
        assert solve_exact(inst, budget=1432).status is ExactStatus.FOUND
        assert solve_exact(inst, budget=1431).status is ExactStatus.BUDGET

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_rejected(self, budget):
        # BUDGET reports budget + 1 nodes, which a negative budget would break
        with pytest.raises(ValueError, match="budget"):
            solve_exact(Instance.from_sizes(12, (3, 4, 5)), budget)

    def test_child_order_does_not_change_proofs_of_absence(self):
        # the pruned tree does not depend on the order its children are tried in
        # and that tree fits in the budget whenever either order proves absence
        proofs = 0
        for inst in _box(26, [3, 4, 5, 6], 2):
            by_index = _search(inst, 10**5, by_need=False)
            by_need = _search(inst, 10**5, by_need=True)
            assert (by_index.status is ExactStatus.NOT_FOUND) == (
                by_need.status is ExactStatus.NOT_FOUND
            ), inst
            if by_index.status is ExactStatus.NOT_FOUND:
                assert by_index.nodes == by_need.nodes, inst
                proofs += 1
        assert proofs == 506

    def test_equal_size_blocks_ordered_by_least_element(self):
        res = solve_exact(Instance.from_sizes(8, [2, 2, 2, 2]), budget=BIG_BUDGET)
        mins = [b[0] for b in res.partition.blocks]
        assert mins == sorted(mins)


class TestSolveK2:
    def test_examples(self):
        assert solve_k2(Instance.from_sizes(7, [3, 4])).blocks == (
            (1, 6, 7),
            (2, 3, 4, 5),
        )
        assert solve_k2(Instance.from_sizes(4, [2, 2])).blocks == ((1, 4), (2, 3))

    def test_condition_violation_rejected(self):
        with pytest.raises(ValueError):
            solve_k2(Instance.from_sizes(8, [2, 6]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_k2(Instance.from_sizes(9, [2, 3, 4]))  # k != 2
        with pytest.raises(ValueError):
            solve_k2(Instance.from_sizes(3, [1, 2]))  # p1 < 2
        with pytest.raises(ValueError):
            solve_k2(Instance.from_sizes(6, [3, 3]))  # 21 odd

    def test_matches_positionwise_greedy_everywhere(self):
        # closed form vs the literal raise loop, exhaustively for n <= 80
        checked = 0
        for n in range(4, 81):
            s = magic_sum(n, 2)
            if s is None:
                continue
            for p1 in range(2, n // 2 + 1):
                inst = Instance.from_sizes(n, [p1, n - p1])
                if not necessary_condition(inst):
                    continue
                p = solve_k2(inst)
                assert list(p.blocks[0]) == sorted(k2_greedy_trace(n, p1, s))
                assert p.sums == (s, s)
                checked += 1
        assert checked > 200

    def test_large_instance(self):
        n = 10**6
        inst = Instance.from_sizes(n, [n // 3, n - n // 3])
        p = solve_k2(inst)
        s = magic_sum(n, 2)
        assert p.sums == (s, s)
        assert len(p.blocks[0]) == n // 3

    def test_blocks_digest(self):
        def box():
            for n in range(4, 301):
                for p1 in range(2, n // 2 + 1):
                    yield n, p1
            for n in (99_999, 100_000, 100_003):
                feasible = [p1 for p1 in range(2, n // 2 + 1)
                            if necessary_condition(Instance.from_sizes(n, [p1, n - p1]))]
                yield from ((n, p1) for p1 in (feasible[0], feasible[1], n // 3, n // 2))

        digest = hashlib.sha256()
        rows = 0
        for n, p1 in box():
            inst = Instance.from_sizes(n, [p1, n - p1])
            if magic_sum(n, 2) is None or not necessary_condition(inst):
                continue
            digest.update(json.dumps([n, inst.sizes, solve_k2(inst).blocks]).encode())
            rows += 1
        assert rows == 4734
        assert digest.hexdigest() == K2_BOX_SHA256

    def test_output_survives_full_validation(self):
        # rebuilding solve_k2's answer from its blocks gives the same
        # partition, across a spread of shapes
        for n in range(10, 2000, 37):
            if magic_sum(n, 2) is None:
                continue
            for p1 in (max(2, n // 3), n // 2):
                inst = Instance.from_sizes(n, [p1, n - p1])
                if not necessary_condition(inst):
                    continue
                p = solve_k2(inst)
                assert Partition.from_blocks(n, p.blocks) == p


class TestSolveP1Eq1:
    def test_examples(self):
        assert solve_p1_eq_1(Instance.from_sizes(7, [1, 2, 2, 2])).blocks == (
            (7,),
            (1, 6),
            (2, 5),
            (3, 4),
        )
        assert solve_p1_eq_1(Instance.from_sizes(5, [1, 2, 2])).blocks == (
            (5,),
            (1, 4),
            (2, 3),
        )
        assert solve_p1_eq_1(Instance.from_sizes(3, [1, 2])).blocks == ((3,), (1, 2))

    def test_every_block_sums_to_n(self):
        for n in range(1, 40, 2):
            inst = Instance.from_sizes(n, [1] + [2] * ((n - 1) // 2))
            p = solve_p1_eq_1(inst)
            assert all(t == n for t in p.sums)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            solve_p1_eq_1(Instance.from_sizes(9, [1, 2, 6]))


class TestGreedyInit:
    def test_deterministic_trace(self):
        p = greedy_init(Instance.from_sizes(8, [2, 2, 2, 2]), seed=0)
        assert p.blocks == ((1, 8), (2, 7), (3, 6), (4, 5))
        q = greedy_init(Instance.from_sizes(4, [2, 2]), seed=0)
        assert q.blocks == ((1, 4), (2, 3))

    def test_seeded_runs_reproduce(self):
        inst = Instance.from_sizes(15, [3, 5, 7])
        assert greedy_init(inst, seed=7) == greedy_init(inst, seed=7)

    def test_structural_postcondition(self):
        rng = random.Random(2024)
        for _ in range(50):
            inst = random_valid_instance(rng, n_max=30)
            for seed in (0, 1, rng.randint(1, 2**60)):
                p = greedy_init(inst, seed)
                assert implements(p, inst.sizes)
                assert tuple(len(b) for b in p.blocks) == inst.sizes


class TestLocalSearch:
    def test_first_move_is_lex_smallest_best_delta(self):
        # both (1,3) and (2,4) improve by -8; lexicographic order picks (1,3)
        p = Partition.from_blocks(4, [[1, 2], [3, 4]])
        assert _best_move(_State(p)) == (-8, 1, 3)

    def test_equitable_input_returned_unchanged(self):
        # the greedy start ((1, 8), (2, 7), (3, 6), (4, 5)) is already equitable
        inst = Instance(n=8, sizes=(2, 2, 2, 2))
        stats = SolveStats()
        out = local_search(inst, SearchParams(), stats=stats)
        assert out == greedy_init(inst, 0)
        assert (stats.swaps, stats.restarts) == (0, 0)

    def test_returns_witness_or_none(self):
        rng = random.Random(99)
        seen = {"witness": 0, "none": 0}
        for _ in range(25):
            inst = random_valid_instance(rng, n_max=20)
            s = magic_sum(inst.n, inst.k)
            params = SearchParams(seed=rng.randint(1, 2**32), max_restarts=4)
            out = local_search(inst, params)
            if out is None:
                seen["none"] += 1
            else:
                seen["witness"] += 1
                assert is_equitable(out, s)
                assert tuple(len(b) for b in out.blocks) == inst.sizes
        assert min(seen.values()) > 0, seen

    def test_stalled_descent_returns_none(self):
        # the first start stalls; the second is solved, its blocks in slot order
        inst = Instance(n=16, sizes=(3, 4, 4, 5))
        assert local_search(inst, SearchParams(max_restarts=0)) is None
        stats = SolveStats()
        out = local_search(inst, SearchParams(), stats=stats)
        assert stats.restarts == 1
        assert is_equitable(out, 34)
        assert tuple(len(b) for b in out.blocks) == inst.sizes


def _random_search_state(rng: random.Random):
    """A random (assign, sums, s, n) state with k in 2..6 and n <= 60.

    Sums are the true block sums, the true sums with some blocks forced
    equal, or arbitrary values near s with two forced equal, so ties and
    repeated sum gaps occur.  The searches treat sums as given data.
    """
    k = rng.randint(2, 6)
    n = rng.randint(k, 60)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    bounds = [0, *sorted(rng.sample(range(1, n), k - 1)), n]
    assign = [0] * (n + 1)
    sums = [0] * k
    for i in range(k):
        for x in labels[bounds[i] : bounds[i + 1]]:
            assign[x] = i
            sums[i] += x
    s = n * (n + 1) // (2 * k)
    mode = rng.randrange(3)
    if mode == 1:
        for _ in range(rng.randint(1, k - 1)):
            i, j = rng.sample(range(k), 2)
            sums[j] = sums[i]
    elif mode == 2:
        sums = [s + rng.randint(-n // 2, n // 2) for _ in range(k)]
        sums[rng.randrange(k)] = sums[rng.randrange(k)]
    return assign, sums, s, n


def _state_of(assign: list[int], n: int) -> _State:
    members = [[] for _ in range(max(assign) + 1)]
    for x in range(1, n + 1):
        members[assign[x]].append(x)
    return _State(Partition.from_blocks(n, members))


class TestMoveSearch:
    def test_moves_match_quadratic_reference(self):
        rng = random.Random(20141024)
        found = {"best": 0, "plateau": 0, "tie": 0}
        for _ in range(2500):
            assign, sums, s, n = _random_search_state(rng)
            state = _state_of(assign, n)
            state.sums = sums  # the searches treat sums as given data
            before = (list(assign), list(sums), [list(m) for m in state.members])
            move = _best_move(state)
            assert move == naive_best_move(assign, sums, n)
            cur_width = state.width(s)
            assert cur_width == assign_width(assign, sums, s, n)
            step = _plateau_step(state, s)
            assert (state.assign, state.sums, state.members) == before  # trial exchanges undone
            assert step == naive_plateau_move(assign, sums, s, n, cur_width)
            found["best"] += move is not None
            found["plateau"] += step is not None
            found["tie"] += len(set(sums)) < len(sums)
        assert min(found.values()) > 500, found

    def test_exchange_keeps_state_consistent(self):
        rng = random.Random(6916)
        for _ in range(300):
            assign, _, _, n = _random_search_state(rng)
            state = _state_of(assign, n)
            sizes = [len(m) for m in state.members]
            for _ in range(20):
                a, b = sorted(rng.sample(range(1, n + 1), 2))
                if state.assign[a] == state.assign[b]:
                    continue
                before = (list(state.assign), list(state.sums), [list(m) for m in state.members])
                state.exchange(a, b)
                assert state.sums == [sum(m) for m in state.members]
                assert [len(m) for m in state.members] == sizes
                assert all(m == sorted(m) for m in state.members)
                assert sorted(x for m in state.members for x in m) == list(range(1, n + 1))
                assert all(state.assign[x] == i for i, m in enumerate(state.members) for x in m)
                state.exchange(a, b)
                assert (state.assign, state.sums, state.members) == before
                state.exchange(a, b)

    def test_solve_output_digest(self):
        digest = hashlib.sha256()
        for inst in _box(40, [3, 4, 5], 2):
            res = solve(inst, SearchParams(max_restarts=4))
            blocks = res.partition.blocks if res.partition is not None else None
            row = [inst.n, inst.sizes, res.status.value, blocks, res.stats.swaps, res.stats.restarts]
            digest.update(json.dumps(row).encode())
        assert digest.hexdigest() == SOLVE_BOX_SHA256

    def test_stall_corpus_digest(self):
        digest = hashlib.sha256()
        for seed in (4, 5):
            for n, sizes in STALL_CORPUS:
                res = solve(Instance.from_sizes(n, sizes), SearchParams(seed=seed, max_restarts=2))
                blocks = res.partition.blocks if res.partition is not None else None
                stats = res.stats
                row = [n, sizes, res.status.value, blocks, stats.swaps, stats.restarts, stats.nodes]
                digest.update(json.dumps(row).encode())
        assert digest.hexdigest() == STALL_CORPUS_SHA256

    def test_plateau_steps_of_real_descents_match_reference(self, monkeypatch):
        # Random states reach the shrink branch in 2 of 2,500 and never at
        # infinite width, the only width the stall corpus produces; the
        # descent's own plateau states reach it at both.
        steps = []

        def record(state, s):
            before = (list(state.assign), list(state.sums), s, state.n)
            steps.append((*before, _plateau_step(state, s)))
            return steps[-1][-1]

        monkeypatch.setattr("equipart.solver._plateau_step", record)
        for n, sizes in SHRINKING_PLATEAU_ROWS:
            inst = Instance(n=n, sizes=sizes)
            local_search(inst, SearchParams(max_restarts=2))
        shrunk = {"infinite": 0, "finite": 0}  # steps not taking the first candidate
        for assign, sums, s, n, step in steps:
            cur_width = assign_width(assign, sums, s, n)
            assert step == naive_plateau_move(assign, sums, s, n, cur_width)
            first = next(
                (
                    (a, b)
                    for a in range(1, n)
                    for b in range(a + 1, n + 1)
                    if b - a == sums[assign[b]] - sums[assign[a]]
                ),
                None,
            )
            if step != first:
                shrunk["infinite" if cur_width == INFINITE_WIDTH else "finite"] += 1
        assert min(shrunk.values()) >= 100, shrunk


class TestSolve:
    def test_balanced_four_blocks(self):
        res = solve(Instance.from_sizes(8, [2, 2, 2, 2]))
        assert res.status is SolveStatus.SOLVED
        assert all(t == 9 for t in res.partition.sums)

    def test_infeasible_condition(self):
        res = solve(Instance.from_sizes(12, [2, 2, 8]))
        assert res.status is SolveStatus.PROVEN_INFEASIBLE
        assert res.partition is None
        assert res.verdict.status is FeasibilityStatus.INFEASIBLE_CONDITION
        assert res.verdict.failing_index == 1

    def test_size_one_route(self):
        res = solve(Instance.from_sizes(7, [1, 2, 2, 2]))
        assert res.status is SolveStatus.SOLVED
        assert res.partition.blocks == ((7,), (1, 6), (2, 5), (3, 4))

    def test_k1_and_k2_routes(self):
        res1 = solve(Instance.from_sizes(5, [5]))
        assert res1.status is SolveStatus.SOLVED
        assert res1.partition.blocks == ((1, 2, 3, 4, 5),)
        res2 = solve(Instance.from_sizes(7, [3, 4]))
        assert res2.status is SolveStatus.SOLVED
        assert res2.partition.sums == (14, 14)

    def test_k5_conjectured_still_solved(self):
        res = solve(Instance.from_sizes(15, [3, 3, 3, 3, 3]))
        assert res.status is SolveStatus.SOLVED
        assert res.verdict.status is FeasibilityStatus.CONDITION_HOLDS_CONJECTURED
        assert all(t == 24 for t in res.partition.sums)

    def test_blocks_match_size_slots(self):
        res = solve(Instance.from_sizes(9, [2, 3, 4]))
        assert tuple(len(b) for b in res.partition.blocks) == (2, 3, 4)

    def test_stalled_descent_falls_back_to_exact_search(self):
        # the descent stalls after 4 restarts; the exact search finds a witness
        inst = Instance.from_sizes(35, (4, 4, 6, 8, 13))
        res = solve(inst, SearchParams(max_restarts=4))
        assert res.status is SolveStatus.SOLVED
        assert (res.stats.nodes, res.stats.restarts) == (38, 4)
        assert is_equitable(res.partition, 126)
        assert tuple(len(b) for b in res.partition.blocks) == inst.sizes

    def test_stall_beyond_node_budget_is_budget_exhausted(self):
        res = solve(Instance.from_sizes(35, (4, 4, 6, 8, 13)),
                    SearchParams(max_restarts=4, exact_node_budget=10))
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.partition is None
        assert res.stats.nodes == 11

    def test_deterministic_for_fixed_seed(self):
        inst = Instance.from_sizes(16, [3, 4, 4, 5])
        a = solve(inst, SearchParams(seed=5))
        b = solve(inst, SearchParams(seed=5))
        assert a.status == b.status
        assert a.partition == b.partition

    def test_non_equitable_output_raises(self, monkeypatch):
        # a broken route must not come back SOLVED, whatever assert does
        monkeypatch.setattr(
            "equipart.solver.solve_k2", lambda inst: Partition.from_blocks(4, [[1, 2], [3, 4]])
        )
        with pytest.raises(RuntimeError):
            solve(Instance.from_sizes(4, [2, 2]))

    def test_blocks_out_of_slot_order_raise(self, monkeypatch):
        # equitable, but slot 0 holds a pair where the size-one block belongs
        monkeypatch.setattr(
            "equipart.solver.solve_p1_eq_1",
            lambda inst: Partition.from_blocks(7, [[3, 4], [2, 5], [1, 6], [7]]),
        )
        with pytest.raises(RuntimeError):
            solve(Instance.from_sizes(7, [1, 2, 2, 2]))

    def test_non_equitable_output_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            import equipart.solver as solver
            from equipart.core import Instance, Partition
            assert False  # proves asserts are stripped here
            solver.solve_k2 = lambda inst: Partition.from_blocks(4, [[1, 2], [3, 4]])
            try:
                solver.solve(Instance.from_sizes(4, [2, 2]))
            except RuntimeError:
                raise SystemExit(7)
            """
        )
        src = os.path.dirname(os.path.dirname(equipart.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 7, proc.stderr

    def test_solved_results_pass_structural_checks(self):
        rng = random.Random(7)
        for _ in range(40):
            inst = random_valid_instance(rng, n_max=18)
            res = solve(inst, SearchParams(seed=1))
            if res.status is SolveStatus.SOLVED:
                s = magic_sum(inst.n, inst.k)
                assert is_equitable(res.partition, s)
                assert implements(res.partition, inst.sizes)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=2, max_value=4),
    st.data(),
)
def test_condition_equivalent_to_oracle_for_k_le_4(n, k, data):
    # proven range: with all parts >= 2 the prefix condition decides existence
    s = magic_sum(n, k)
    if s is None:
        return
    sequences = list(enumerate_size_sequences(n, k, 2))
    if not sequences:
        return
    sizes = data.draw(st.sampled_from(sequences))
    inst = Instance(n=n, sizes=sizes)
    res = solve_exact(inst, budget=BIG_BUDGET)
    assert (res.status is ExactStatus.FOUND) == necessary_condition(inst)


def _assert_solved_in_slot_order(inst: Instance) -> None:
    res = solve(inst)
    assert res.status is SolveStatus.SOLVED, (inst, res.status)
    assert is_equitable(res.partition, magic_sum(inst.n, inst.k))
    assert tuple(len(b) for b in res.partition.blocks) == inst.sizes


def _proven_feasible(inst: Instance) -> bool:
    return feasibility(inst).status is FeasibilityStatus.FEASIBLE_PROVEN


def test_proven_feasible_k_le_4_solved_25_to_60():
    # every proven-feasible k in {3, 4} instance with parts >= 2 and 25 <= n <= 60
    box = [inst for inst in _box(60, [3, 4], 2) if inst.n >= 25 and _proven_feasible(inst)]
    assert len(box) == 1481
    for inst in box:
        _assert_solved_in_slot_order(inst)


def test_proven_feasible_k_le_4_solved_sample_61_to_200():
    rng = random.Random(2014)
    sample: list[Instance] = []
    while len(sample) < 200:
        n, k = rng.randint(61, 200), rng.choice((3, 4))
        if magic_sum(n, k) is None:
            continue
        cuts = sorted(rng.sample(range(1, n), k - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        if min(sizes) >= 2 and _proven_feasible(inst := Instance.from_sizes(n, sizes)):
            sample.append(inst)
    for inst in sample:
        _assert_solved_in_slot_order(inst)
