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
    SolveStatus,
    XorShift64Star,
    _best_move,
    _plateau_step,
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
SOLVE_BOX_SHA256 = "c24bf4bc17a11f3d9ed1d0eaa754ce09f04cab4b6b643e1c61cbf8faa2d1d1d4"


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
        res = solve_exact(Instance(n=1000, sizes=(500, 500)), budget=10**6)
        assert res.status is ExactStatus.FOUND
        assert res.nodes == 1500
        assert res.partition.blocks == (
            tuple(range(1, 251)) + tuple(range(751, 1001)),
            tuple(range(251, 751)),
        )
        assert is_equitable(res.partition, magic_sum(1000, 2))
        assert implements(res.partition, (500, 500))

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

    def test_output_survives_full_validation(self):
        # solve_k2 skips the O(n) validation pass; re-validate its output
        # through the checking constructor across a spread of shapes
        for n in range(10, 2000, 37):
            if magic_sum(n, 2) is None:
                continue
            for p1 in (max(2, n // 3), n // 2):
                inst = Instance.from_sizes(n, [p1, n - p1])
                if not necessary_condition(inst):
                    continue
                p = solve_k2(inst)
                assert Partition.from_blocks(n, p.blocks).sums == p.sums


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
        out = local_search(p, 5, SearchParams())
        assert out.blocks == ((2, 3), (1, 4))

    def test_equitable_input_returned_unchanged(self):
        p = Partition.from_blocks(4, [[1, 4], [2, 3]])
        assert local_search(p, 5, SearchParams()) is p

    def test_returns_witness_or_none(self):
        rng = random.Random(99)
        seen = {"witness": 0, "none": 0}
        for _ in range(25):
            inst = random_valid_instance(rng, n_max=20)
            s = magic_sum(inst.n, inst.k)
            start = greedy_init(inst, seed=rng.randint(1, 2**32))
            out = local_search(start, s, SearchParams(seed=3, max_restarts=4))
            if out is None:
                seen["none"] += 1
            else:
                seen["witness"] += 1
                assert is_equitable(out, s)
                assert tuple(len(b) for b in out.blocks) == inst.sizes
        assert min(seen.values()) > 0, seen

    def test_stalled_descent_returns_none(self):
        inst = Instance.from_sizes(16, [3, 4, 4, 5])
        start = greedy_init(inst, 0)
        assert local_search(start, 34, SearchParams(max_restarts=0)) is None
        out = local_search(start, 34, SearchParams())
        assert is_equitable(out, 34)
        assert implements(out, inst.sizes)


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
        assert (res.stats.nodes, res.stats.restarts) == (73, 4)
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
