"""Solver routes: exact search, constructions, and the solve() pipeline."""

import dataclasses
import hashlib
import itertools
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
from equipart.core import Instance, Partition, magic_sum
from equipart.feasibility import FeasibilityStatus, condition_failing_index, feasibility
from equipart.lab import _box, enumerate_size_sequences
from equipart.solver import (
    _FULL_KEY,
    ExactResult,
    ExactStatus,
    SearchParams,
    SolveStatus,
    _failing_union,
    solve,
    solve_exact,
    solve_k2,
)

from helpers import (
    k2_greedy_trace,
    naive_equitable_exists,
    random_valid_instance,
    reference_failing_prefix,
    reference_solve_exact,
)

BIG_BUDGET = 10**8

#: sha256 over json.dumps([n, sizes, status, blocks, 0, 0]) of
#: solve(inst, SearchParams(max_restarts=4)) for every instance of
#: _box(40, [3, 4, 5], 2), one update per instance.  It pins solve()'s
#: answers, which the restarted bounded search settles on this box; change
#: it only when a change of answers is intended.
SOLVE_BOX_SHA256 = "08b2ff39d2e09fe56b70ec967148489ff72753718a5cdc1f524fb32966996fb3"

#: sha256 over json.dumps([n, sizes, status, nodes]) of solve_exact(inst,
#: 250_000) for every instance of _box(40, [3, 4, 5], 2) then _box(32, [6], 2),
#: the oracle_sweep benchmark's 5,153 rows and 82,172 nodes, one update per
#: row; then the same rows again under the reversed order list(range(k))[::-1]
#: (74,075 nodes).  A node count moves with any change to what the search
#: prunes or the order it tries, so this pins the pruning itself; change it
#: only when a change of pruning is intended.
EXACT_BOX_SHA256 = "7a799a59b90408445f61acdcb44ad0341faa12943c4eaa88cda73c3b164b932d"

#: sha256 over json.dumps([n, sizes, blocks]) of solve_k2(inst) for every
#: k = 2 instance that passes the prefix condition with p_1 >= 2 and n <= 300,
#: then for four p_1 at each of n = 99,999, 100,000, 100,003 (the two
#: smallest feasible, n // 3 and n // 2), one update per instance.  It pins
#: the construction's blocks; change it only when a change of blocks is
#: intended.
K2_BOX_SHA256 = "94070b6daeedbf29bf430d12ec062ec6e41b9d8f711056cea7150f266b1a68ae"

#: The descent_stall benchmark instances: k >= 5, n > 100; the first bounded
#: search settles all three.
STALL_CORPUS = (
    (150, (16, 18, 23, 40, 53)),
    (119, (11, 11, 13, 16, 32, 36)),
    (159, (17, 19, 30, 44, 49)),
)

#: sha256 over json.dumps([n, sizes, status, blocks, 0, 0, nodes])
#: of solve(inst, SearchParams(seed=s, max_restarts=2)) for s in (4, 5) and
#: every instance of STALL_CORPUS, one update per solve.  It pins solve()'s
#: answers and node counts at n > 100, beyond SOLVE_BOX_SHA256's n <= 40.
STALL_CORPUS_SHA256 = "b752cba8d32d955410700cc6592acbd2f5f7888f3f7117cb43aaa8f9fa8440b0"

#: (n, sizes, status, nodes, search_restarts, sha256 of json.dumps(blocks)) of
#: solve(inst) at n near 10^4, k = 3, 4, 5: for each k a balanced instance,
#: then one pushed onto the prefix-condition boundary.  Each solves in run 0.
LARGE_N_SOLVES = (
    (9999, (2000, 3000, 4999), "solved", 22997, 0,
     "f15c098f225562166c8f8a40a6de9f012582e3070e0508b6a71be8cd762933bb"),
    (9999, (1835, 3000, 5164), "solved", 15633, 0,
     "9846d3e3bdcda6074d479e770d3bffba662093be2fd2ec2060c4fce08530ce10"),
    (10000, (1500, 2000, 2500, 4000), "solved", 29000, 0,
     "ffb728ecae85c7ee345043a9c477694efa770fe53d4cff7eb73db0ac3252ab98"),
    (10000, (1340, 2000, 2500, 4160), "solved", 22440, 0,
     "abf0bfa5ee9e85e8386264d1e8ff77131cfcd62b6842c79496c46c533d39a78d"),
    (10000, (1200, 1800, 2000, 2200, 2800), "solved", 33600, 0,
     "f048c7b52011b175fb85d853be424a3304cc6b08396b8293d8aaba6a2c81f42e"),
    (10000, (1056, 1800, 2000, 2200, 2944), "solved", 27192, 0,
     "e5c0d74d6b1bb5bbbbe3e0fd417c9fe1e5119725974cf6633484b00d8734fc9d"),
)

class TestSearchParams:
    def test_fields(self):
        # the exact search is bounded by its node budget alone, not by a size cutoff
        names = [f.name for f in dataclasses.fields(SearchParams)]
        assert names == ["seed", "max_restarts", "exact_node_budget"]

    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": -1},
            {"seed": True},
            {"seed": 1.0},
            {"max_restarts": -1},
            {"max_restarts": 2.0},
            {"max_restarts": False},
            {"exact_node_budget": -1},
            {"exact_node_budget": 2.5},
            {"exact_node_budget": "10"},
        ],
        ids=str,
    )
    def test_non_int_or_negative_rejected(self, kw):
        # a float restart count would otherwise fail mid-solve in range()
        with pytest.raises(ValueError, match=next(iter(kw))):
            SearchParams(**kw)

    def test_zero_and_large_values_accepted(self):
        SearchParams(seed=2**70, max_restarts=0, exact_node_budget=0)


class TestSolveExact:
    def test_finds_equitable_partition(self):
        res = solve_exact(Instance.from_sizes(8, [2, 2, 2, 2]), budget=BIG_BUDGET)
        assert res.status is ExactStatus.FOUND
        p = res.partition
        assert tuple(map(len, p.blocks)) == (2, 2, 2, 2)
        assert all(t == 9 for t in p.sums)

    def test_proves_absence_by_exhaustion(self):
        res = solve_exact(Instance.from_sizes(12, [2, 2, 8]), budget=BIG_BUDGET)
        assert res.status is ExactStatus.NOT_FOUND
        assert res.partition is None

    def test_uneven_sizes(self):
        res = solve_exact(Instance.from_sizes(9, [2, 3, 4]), budget=BIG_BUDGET)
        assert res.status is ExactStatus.FOUND
        assert all(t == 15 for t in res.partition.sums)
        assert tuple(map(len, res.partition.blocks)) == (2, 3, 4)

    def test_budget_exhaustion_reported(self):
        res = solve_exact(Instance.from_sizes(16, [4, 4, 4, 4]), budget=3)
        assert res.status is ExactStatus.BUDGET
        assert res.partition is None
        assert res.nodes == 4

    @pytest.mark.parametrize("n, sizes, nodes", [
        (15, (3, 5, 7), 24),
        (16, (4, 4, 4, 4), 40),
        (24, (4, 5, 6, 9), 63),
        (20, (3, 4, 4, 4, 5), 138),
    ])
    def test_every_budget_below_the_witness_reports_budget_plus_one(self, n, sizes, nodes):
        # Every child the search tries is a node, whether it is placed or
        # fails its bounds at once, so the witness's node count is pinned: a
        # budget b cut anywhere before the witness reports b + 1, and that
        # count itself is enough.
        inst = Instance.from_sizes(n, sizes)
        ref = solve_exact(inst, BIG_BUDGET)
        assert ref.status is ExactStatus.FOUND and ref.nodes == nodes
        for b in range(ref.nodes):
            assert solve_exact(inst, b) == ExactResult(ExactStatus.BUDGET, None, b + 1)
        assert solve_exact(inst, ref.nodes) == ref

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
                        assert set(res.partition.sums) == {s}
                        assert tuple(map(len, res.partition.blocks)) == sizes

    def test_deep_instance_without_recursion(self):
        # one search level per element: a recursive search overflowed the stack here
        res = solve_exact(Instance(n=1000, sizes=(500, 500)), 10**6)
        assert res.status is ExactStatus.FOUND
        assert res.nodes == 1500
        assert res.partition.blocks == (
            tuple(range(1, 251)) + tuple(range(751, 1001)),
            tuple(range(251, 751)),
        )
        assert set(res.partition.sums) == {magic_sum(1000, 2)}
        assert tuple(map(len, res.partition.blocks)) == (500, 500)

    @pytest.mark.parametrize("sizes", [
        (4, 4, 4, 5, 6, 9), (4, 4, 4, 5, 7, 8), (4, 4, 4, 6, 6, 8), (4, 4, 4, 6, 7, 7),
        (4, 4, 5, 5, 6, 8), (4, 4, 5, 5, 7, 7), (4, 4, 5, 6, 6, 7), (4, 5, 5, 5, 6, 7),
    ])
    def test_need_ordered_dive_finds_what_index_order_misses(self, sizes):
        # The name is from the two-stage search that first found these rows.
        # The index order with the per-block bound alone spends all 250,000
        # nodes on each of them; with the union bound it finds each in 32 n.
        inst = Instance(n=32, sizes=sizes)
        res = solve_exact(inst, budget=32 * 32)
        assert res.status is ExactStatus.FOUND
        assert set(res.partition.sums) == {magic_sum(32, 6)}
        assert tuple(map(len, res.partition.blocks)) == sizes

    def test_oracle_box_absence_settled_at_the_root(self):
        # The union bound at the root is the prefix condition, so every proof
        # of absence costs no node, also at budget 0.  For k <= 4 the condition
        # is sufficient, so NOT_FOUND holds exactly when the verdict is infeasible.
        total = 0
        for inst in [*_box(40, [3, 4, 5], 2), *_box(32, [6], 2)]:
            res = solve_exact(inst, budget=250_000)
            assert res.status is not ExactStatus.BUDGET, inst
            total += res.nodes
            if res.status is ExactStatus.NOT_FOUND:
                assert res.nodes == 0, inst
                assert solve_exact(inst, budget=0) == res, inst
            if inst.k <= 4:
                found = res.status is not ExactStatus.NOT_FOUND
                assert found == feasibility(inst).predicts_feasible, inst
        assert total <= 250_000

    @pytest.mark.parametrize("budget", [-1, -5, 10.5, 10.0, True, None])
    def test_negative_budget_rejected(self, budget):
        # BUDGET reports budget + 1 nodes, which a negative budget would
        # break; a non-int budget is rejected at the door, not deep in a run
        with pytest.raises(ValueError, match="budget"):
            solve_exact(Instance.from_sizes(12, (3, 4, 5)), budget)

    def test_equal_size_blocks_ordered_by_least_element(self):
        res = solve_exact(Instance.from_sizes(8, [2, 2, 2, 2]), budget=BIG_BUDGET)
        mins = [b[0] for b in res.partition.blocks]
        assert mins == sorted(mins)

    def test_any_trial_order_settles_the_same(self):
        # The equal-size rule is keyed by block index, so a shuffled order
        # prunes the same states: it finds a witness exactly where index
        # order does, and its NOT_FOUND is still a proof of absence.  The
        # n <= 12 box with parts of size 1 holds 7 proofs that take nodes.
        rng = random.Random(16)
        deep_proofs = 0
        for inst in [*_box(24, [3, 4, 5], 2), *_box(12, range(1, 13), 1)]:
            ref = solve_exact(inst, BIG_BUDGET)
            s = magic_sum(inst.n, inst.k)
            for _ in range(3):
                order = list(range(inst.k))
                rng.shuffle(order)
                res = solve_exact(inst, BIG_BUDGET, order)
                assert res.status is ref.status, (inst, order)
                if res.status is ExactStatus.FOUND:
                    assert set(res.partition.sums) == {s}, (inst, order)
                    assert tuple(len(b) for b in res.partition.blocks) == inst.sizes
                else:
                    deep_proofs += res.nodes > 0
        assert deep_proofs >= 7

    def test_matches_the_max_floors_reference(self):
        # The child test counts the floors at e + 1 once per label instead of
        # taking max(floors) per child; it must accept exactly the same
        # children, so status, nodes and blocks equal the reference's at every
        # budget, also one that ends mid-search.
        rng = random.Random(29)
        runs = []
        while len(runs) < 1500:
            k = rng.randint(3, 8)
            n = rng.randint(2 * k, 60)
            if n * (n + 1) // 2 % k:
                continue
            low = rng.choice((1, 2))
            sizes = [low] * k
            for _ in range(n - low * k):
                sizes[rng.randrange(k)] += 1
            runs.append((Instance.from_sizes(n, sizes), rng.sample(range(k), k)))
        for n, sizes in STALL_CORPUS:
            inst = Instance.from_sizes(n, sizes)
            runs += [(inst, None), (inst, rng.sample(range(inst.k), inst.k))]
        found = backtracked = cut = 0
        for inst, order in runs:
            full = reference_solve_exact(inst, 200_000, order)
            found += full.status is ExactStatus.FOUND
            backtracked += full.nodes > 2 * inst.n
            mid = {rng.randrange(2, full.nodes) for _ in range(2)} if full.nodes > 2 else set()
            cut += len(mid)
            for budget in sorted({0, 1, 200_000, *mid}):
                want = full if budget == 200_000 else reference_solve_exact(inst, budget, order)
                # an ExactResult is its status, partition and nodes
                assert solve_exact(inst, budget, order) == want, (inst, order, budget)
        assert found > 800 and backtracked > 500 and cut > 1500, (found, backtracked, cut)

    def test_kept_union_keys_equal_rebuilt_keys(self, monkeypatch):
        # The search writes block i's union key only where it places or
        # restores block i.  At every union test the kept keys equal keys
        # rebuilt from the search's own left and need, and the routine answers
        # as the build-and-sort reference does.
        calls = []

        def checked(keys, e, m):
            search = sys._getframe(1).f_locals
            left, need = search["left"], search["need"]
            assert keys == [(d / j, -j, d) if j else _FULL_KEY for j, d in zip(left, need)]
            assert (e, m) == (search["e"], sum(map(bool, left)))
            got = _failing_union(keys, e, m)
            assert got == (reference_failing_prefix(left, need, e, True) is not None)
            calls.append((got, 0 in left))
            return got

        monkeypatch.setattr("equipart.solver._failing_union", checked)
        rng = random.Random(28)
        for inst in _box(28, [4, 5, 6], 2):
            for order in (None, rng.sample(range(inst.k), inst.k)):
                solve_exact(inst, 20_000, order)
        pruned, with_full = map(sum, zip(*calls))
        assert len(calls) > 20_000 and pruned > 9_000 and with_full > 1_500, (pruned, with_full)

    def test_small_k_calls_the_union_routine_only_at_the_root(self, monkeypatch):
        # With k <= 3 no placed node has four open blocks, so the search keeps
        # no keys and never calls the union routine: its one union test is the
        # root's, the verdict's condition_failing_index.  From k = 4 the placed
        # nodes call the routine too.
        root, inner = [], []

        def counting(calls, routine):
            def count(*args):
                calls.append(args)
                return routine(*args)
            return count

        monkeypatch.setattr(
            "equipart.solver.condition_failing_index", counting(root, condition_failing_index)
        )
        monkeypatch.setattr("equipart.solver._failing_union", counting(inner, _failing_union))
        box = list(_box(30, [1, 2, 3], 1))
        for inst in box:
            solve_exact(inst, BIG_BUDGET)
        assert (len(root), len(inner)) == (len(box), 0)
        solve_exact(Instance.from_sizes(16, (3, 4, 4, 5)), BIG_BUDGET)
        assert len(root) == len(box) + 1 and inner
        # the root test runs at every k: these fail the prefix condition at
        # j = 2 and j = 4, and take no node
        for n, sizes in ((14, (3, 3, 8)), (15, (2, 2, 2, 2, 7))):
            for budget in (0, BIG_BUDGET):
                res = solve_exact(Instance.from_sizes(n, sizes), budget)
                assert (res.status, res.nodes) == (ExactStatus.NOT_FOUND, 0)

    def test_index_order_is_the_default(self):
        for inst in _box(30, [3, 4, 5, 6], 2):
            for budget in (BIG_BUDGET, 2 * inst.n):
                assert solve_exact(inst, budget, list(range(inst.k))) == solve_exact(inst, budget)

    def test_exact_box_digest(self):
        box = [*_box(40, [3, 4, 5], 2), *_box(32, [6], 2)]
        digest = hashlib.sha256()
        for reverse in (False, True):
            for inst in box:
                res = solve_exact(inst, 250_000, list(range(inst.k))[::-1] if reverse else None)
                digest.update(json.dumps([inst.n, inst.sizes, res.status.value, res.nodes]).encode())
        assert len(box) == 5153
        assert digest.hexdigest() == EXACT_BOX_SHA256

    @pytest.mark.parametrize(
        "order", [[0, 1], [0, 1, 1], [1, 2, 3], [0, 1, 2, 3], [0.0, 1, 2], [False, 1, 2]]
    )
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            solve_exact(Instance.from_sizes(12, (3, 4, 5)), BIG_BUDGET, order)


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
                if condition_failing_index(n, inst.sizes, s) is not None:
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
                s = magic_sum(n, 2)
                feasible = [p1 for p1 in range(2, n // 2 + 1)
                            if condition_failing_index(n, (p1, n - p1), s) is None]
                yield from ((n, p1) for p1 in (feasible[0], feasible[1], n // 3, n // 2))

        digest = hashlib.sha256()
        rows = 0
        for n, p1 in box():
            inst = Instance.from_sizes(n, [p1, n - p1])
            s = magic_sum(n, 2)
            if s is None or condition_failing_index(n, inst.sizes, s) is not None:
                continue
            digest.update(json.dumps([n, inst.sizes, solve_k2(inst).blocks]).encode())
            rows += 1
        assert rows == 4734
        assert digest.hexdigest() == K2_BOX_SHA256

    def test_output_survives_full_validation(self):
        # rebuilding solve_k2's answer from its blocks gives the same
        # partition, across a spread of shapes
        for n in range(10, 2000, 37):
            s = magic_sum(n, 2)
            if s is None:
                continue
            for p1 in (max(2, n // 3), n // 2):
                inst = Instance.from_sizes(n, [p1, n - p1])
                if condition_failing_index(n, inst.sizes, s) is not None:
                    continue
                p = solve_k2(inst)
                assert Partition.from_blocks(n, p.blocks) == p


class TestSizeOneRoute:
    def test_examples(self):
        assert solve(Instance.from_sizes(7, [1, 2, 2, 2])).partition.blocks == (
            (7,),
            (1, 6),
            (2, 5),
            (3, 4),
        )
        assert solve(Instance.from_sizes(5, [1, 2, 2])).partition.blocks == (
            (5,),
            (1, 4),
            (2, 3),
        )
        assert solve(Instance.from_sizes(3, [1, 2])).partition.blocks == ((3,), (1, 2))

    def test_every_block_sums_to_n(self):
        for n in [*range(1, 40, 2), 100_001]:
            res = solve(Instance.from_sizes(n, [1] + [2] * ((n - 1) // 2)))
            assert res.status is SolveStatus.SOLVED
            assert res.stats.nodes == 0
            assert res.partition.blocks[0] == (n,)
            assert all(t == n for t in res.partition.sums)

    def test_wrong_shape_rejected(self):
        res = solve(Instance.from_sizes(9, [1, 2, 6]))
        assert res.status is SolveStatus.PROVEN_INFEASIBLE
        assert res.verdict.status is FeasibilityStatus.INFEASIBLE_SIZE_ONE


class TestSolveDigests:
    def test_solve_output_digest(self):
        digest = hashlib.sha256()
        for inst in _box(40, [3, 4, 5], 2):
            res = solve(inst, SearchParams(max_restarts=4))
            blocks = res.partition.blocks if res.partition is not None else None
            # 0, 0 stand where the exchange descent's swap and restart counts
            # were written, so the digest pinned before its removal still holds.
            row = [inst.n, inst.sizes, res.status.value, blocks, 0, 0]
            digest.update(json.dumps(row).encode())
        assert digest.hexdigest() == SOLVE_BOX_SHA256

    def test_stall_corpus_digest(self):
        digest = hashlib.sha256()
        for seed in (4, 5):
            for n, sizes in STALL_CORPUS:
                res = solve(Instance.from_sizes(n, sizes), SearchParams(seed=seed, max_restarts=2))
                blocks = res.partition.blocks if res.partition is not None else None
                # 0, 0: the removed descent's swap and restart counts, as in
                # test_solve_output_digest.
                row = [n, sizes, res.status.value, blocks, 0, 0, res.stats.nodes]
                digest.update(json.dumps(row).encode())
        assert digest.hexdigest() == STALL_CORPUS_SHA256

    @pytest.mark.parametrize("n, sizes, status, nodes, restarts, blocks_sha256", LARGE_N_SOLVES)
    def test_large_n_solves(self, n, sizes, status, nodes, restarts, blocks_sha256):
        res = solve(Instance.from_sizes(n, sizes))
        blocks = hashlib.sha256(json.dumps(res.partition.blocks).encode()).hexdigest()
        assert (res.status.value, res.stats.nodes, res.stats.search_restarts, blocks) == (
            status, nodes, restarts, blocks_sha256)


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

    def test_first_run_finds_a_witness_within_its_cutoff(self):
        # the first bounded search finds a witness inside its 4n cutoff
        inst = Instance.from_sizes(35, (4, 4, 6, 8, 13))
        res = solve(inst, SearchParams(max_restarts=0))
        assert res.status is SolveStatus.SOLVED
        assert (res.stats.nodes, res.stats.search_restarts) == (73, 0)
        assert set(res.partition.sums) == {126}
        assert tuple(len(b) for b in res.partition.blocks) == inst.sizes

    def test_search_beyond_node_budget_is_budget_exhausted(self):
        res = solve(Instance.from_sizes(35, (4, 4, 6, 8, 13)),
                    SearchParams(max_restarts=0, exact_node_budget=10))
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.partition is None
        assert res.stats.nodes == 11

    def test_cut_off_search_restarts_in_a_shuffled_order(self):
        # index order spends its 4n = 80 nodes; restart 1 shuffles the trial
        # order with random.Random(seed) and finds a witness
        inst = Instance.from_sizes(20, (3, 4, 4, 4, 5))
        assert solve_exact(inst, 80).status is ExactStatus.BUDGET
        for seed in (0, 3):
            order = list(range(5))
            random.Random(seed).shuffle(order)
            second = solve_exact(inst, 160, order)
            res = solve(inst, SearchParams(seed=seed))
            assert res.status is SolveStatus.SOLVED
            assert res.partition == second.partition
            assert (res.stats.nodes, res.stats.search_restarts) == (80 + second.nodes, 1)

    def test_last_run_takes_the_rest_of_the_budget(self):
        # With one run, that run is the last: it is not cut off at 4n = 80
        # nodes but searches in index order on the whole budget, so solve()
        # places each of the full search's nodes once.
        inst = Instance.from_sizes(20, (3, 4, 4, 4, 5))
        full = solve_exact(inst, BIG_BUDGET)
        res = solve(inst, SearchParams(max_restarts=0))
        assert res.status is SolveStatus.SOLVED
        assert res.partition == full.partition
        assert (res.stats.nodes, res.stats.search_restarts) == (full.nodes, 0) == (138, 0)

    def test_last_restart_searches_on_what_run_0_left(self):
        # Run 0 spends its 4n = 80 nodes.  Restart 1 is the last run, so its
        # shuffled order is not cut off at 160 nodes but searches on the
        # budget run 0 left: it finds a witness after 717 nodes within 920,
        # and is cut off within 620.
        inst = Instance.from_sizes(20, (3, 3, 3, 4, 7))
        assert solve_exact(inst, 80).status is ExactStatus.BUDGET
        order = list(range(5))
        random.Random(0).shuffle(order)
        for budget, status in ((1000, SolveStatus.SOLVED), (700, SolveStatus.BUDGET_EXHAUSTED)):
            last = solve_exact(inst, budget - 80, order)
            res = solve(inst, SearchParams(max_restarts=1, exact_node_budget=budget))
            assert res.status is status
            assert res.partition == last.partition
            assert (res.stats.nodes, res.stats.search_restarts) == (80 + last.nodes, 1)
        assert (last.nodes, res.stats.nodes) == (621, 701)

    def test_small_budget_bounds_a_large_solve(self):
        # 10 nodes cannot place 10^4 labels: run 0's cap is the whole budget,
        # so it is the last run, and it reports the node it did not place
        inst = Instance.from_sizes(10_000, (1200, 1800, 2000, 2200, 2800))
        res = solve(inst, SearchParams(exact_node_budget=10))
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.partition is None
        assert (res.stats.nodes, res.stats.search_restarts) == (11, 0)

    def test_shared_budget_bounds_nodes_over_all_stages(self):
        # the bounded runs and the last search draw on one budget: a solve
        # places at most that many nodes, and a cut-off one reports budget + 1
        insts = [Instance.from_sizes(n, sizes) for n, sizes in (
            (35, (4, 4, 6, 8, 13)), (20, (3, 4, 4, 4, 5)), (15, (2, 2, 2, 3, 3, 3)),
            (32, (3, 3, 4, 4, 4, 4, 5, 5)), (48, (7, 8, 16, 17)),
        )]
        for restarts in (0, 2, 7):
            for inst in insts:
                for budget in (0, 1, 7, 60, 100, 300, 1000):
                    params = SearchParams(max_restarts=restarts, exact_node_budget=budget)
                    res = solve(inst, params)
                    assert res.stats.nodes <= budget + 1, (inst, params)
                    if res.status is SolveStatus.BUDGET_EXHAUSTED:
                        assert res.stats.nodes == budget + 1, (inst, params)
                    else:
                        assert res.status is SolveStatus.SOLVED, (inst, params)

    def test_counters_equal_a_replay_of_the_runs(self):
        # Replay the schedule of solve()'s docstring with solve_exact: run r in
        # index order, then in orders shuffled by random.Random(seed), cut off
        # at 4n max(1, k // 4) 2^r nodes, the last run on what is left.  Seed 0
        # adds the box's two solves that restart twice.
        settled = {ExactStatus.FOUND: SolveStatus.SOLVED,
                   ExactStatus.NOT_FOUND: SolveStatus.PROVEN_INFEASIBLE,
                   ExactStatus.BUDGET: SolveStatus.BUDGET_EXHAUSTED}
        restarted = twice = cut_off = 0
        for inst in _box(26, [4, 5, 6], 2):
            if not feasibility(inst).predicts_feasible:
                continue
            cutoff = 4 * inst.n * max(1, inst.k // 4)
            for seed, restarts, budget in itertools.product(
                    (3, 0), (0, 1, 7), (0, 7, 100, 1000, 10**6)):
                order, shuffle = list(range(inst.k)), random.Random(seed).shuffle
                remaining, spent = budget, 0
                for r in range(restarts + 1):
                    if r:
                        shuffle(order)
                    cap = remaining if r == restarts else min(cutoff * 2**r, remaining)
                    run = solve_exact(inst, cap, order)
                    if run.status is not ExactStatus.BUDGET or cap == remaining:
                        break
                    spent += cap
                    remaining -= cap
                res = solve(inst, SearchParams(
                    seed=seed, max_restarts=restarts, exact_node_budget=budget))
                assert (res.status, res.partition, res.stats.nodes,
                        res.stats.search_restarts) == (
                    settled[run.status], run.partition, spent + run.nodes, r), (
                    inst, seed, restarts, budget)
                restarted += r > 0
                twice += r > 1
                cut_off += res.status is SolveStatus.BUDGET_EXHAUSTED
        # the box keeps reaching restarts, second restarts and solves cut off
        assert restarted >= 60 and twice >= 2 and cut_off >= 1000, (restarted, twice, cut_off)

    def test_shuffle_generator_is_seeded_on_the_first_restart(self, monkeypatch):
        # random.Random(seed) is built once a run is cut off, and only once:
        # a solve settled by run 0 builds none, one with two restarts one.
        built = []

        class Counting(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr("equipart.solver.random.Random", Counting)
        for n, sizes, seed, restarts in (
            (16, (3, 4, 4, 5), 3, 0), (20, (3, 4, 4, 4, 5), 3, 1), (20, (3, 3, 3, 4, 7), 0, 2),
        ):
            res = solve(Instance.from_sizes(n, sizes), SearchParams(seed=seed))
            assert res.status is SolveStatus.SOLVED
            assert (res.stats.search_restarts, built) == (restarts, [seed][:restarts])
            built.clear()

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
        # equitable, but slot 0 holds the size-4 block where the size-3 one belongs
        monkeypatch.setattr(
            "equipart.solver.solve_k2",
            lambda inst: Partition.from_blocks(7, [[2, 3, 4, 5], [1, 6, 7]]),
        )
        with pytest.raises(RuntimeError):
            solve(Instance.from_sizes(7, [3, 4]))

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
                assert set(res.partition.sums) == {s}
                assert tuple(map(len, res.partition.blocks)) == inst.sizes


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
    assert (res.status is ExactStatus.FOUND) == (condition_failing_index(n, sizes, s) is None)


def _assert_solved_in_slot_order(inst: Instance) -> None:
    res = solve(inst)
    assert res.status is SolveStatus.SOLVED, (inst, res.status)
    assert set(res.partition.sums) == {magic_sum(inst.n, inst.k)}
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
