"""Sweep machinery: enumeration, condition-vs-oracle rows, determinism."""

import dataclasses
import functools
import os
import subprocess
import sys
from itertools import combinations_with_replacement

import pytest

from equipart import lab
from equipart.core import Instance, magic_sum
from equipart.lab import (
    SweepReport,
    check_symmetric,
    enumerate_size_sequences,
    sweep,
)
from equipart.solver import solve_exact

from helpers import canon


class TestEnumerateSizeSequences:
    def test_examples(self):
        assert list(enumerate_size_sequences(8, 4, 1)) == [
            (1, 1, 1, 5),
            (1, 1, 2, 4),
            (1, 1, 3, 3),
            (1, 2, 2, 3),
            (2, 2, 2, 2),
        ]
        assert list(enumerate_size_sequences(8, 4, 2)) == [(2, 2, 2, 2)]
        assert list(enumerate_size_sequences(8, 4, 0)) == list(enumerate_size_sequences(8, 4, 1))
        assert list(enumerate_size_sequences(3, 4, 1)) == []

    def test_sequences_are_sorted_and_sum(self):
        for seq in enumerate_size_sequences(14, 4, 2):
            assert sum(seq) == 14
            assert all(a <= b for a, b in zip(seq, seq[1:]))
            assert seq[0] >= 2

    def test_lexicographic_order(self):
        seqs = list(enumerate_size_sequences(12, 3, 1))
        assert seqs == sorted(seqs)

    def test_matches_sorted_combinations(self):
        # the reference: every multiset of k parts in [lo, n], in the order
        # combinations_with_replacement draws them, kept when it sums to n
        for n in range(1, 19):
            for k in range(1, 7):
                for min_part in range(4):
                    lo = max(min_part, 1)
                    expected = [c for c in combinations_with_replacement(range(lo, n + 1), k)
                                if sum(c) == n]
                    assert list(enumerate_size_sequences(n, k, min_part)) == expected

    def test_thousands_of_parts(self):
        # one stack frame per part overflowed the interpreter's stack near k = 1000
        assert list(enumerate_size_sequences(3000, 1500, 2)) == [(2,) * 1500]
        seqs = list(enumerate_size_sequences(3002, 1500, 2))
        assert seqs == [(2,) * 1499 + (4,), (2,) * 1498 + (3, 3)]

    def test_invalid_bounds(self):
        # a float or bool n, k or min_part is rejected, not fed to range()
        for args in ((0, 3, 1), (5, 0, 1), (5.0, 2, 1), (5, 2, 1.5), (True, 1, 1),
                     (5, True, 1), (5, 2, -1)):
            with pytest.raises(ValueError):
                list(enumerate_size_sequences(*args))


class TestSweep:
    def test_single_row_box(self):
        # only n=7,8 have integral magic sums for k=4 below 8, and n=7 admits
        # no sequence with parts >= 2
        report = sweep(8, {4}, 2)
        assert report.totals["rows"] == 1
        assert report.totals["mismatches"] == 0
        row = report.rows[0]
        assert (row.n, row.k, row.sizes) == (8, 4, (2, 2, 2, 2))
        assert row.oracle == "found"
        assert row.agree

    def test_k3_box_clean(self):
        report = sweep(12, {3}, 2)
        assert report.totals["mismatches"] == 0
        assert report.totals["budget"] == 0
        assert all(r.agree for r in report.rows)

    def test_rows_sorted(self):
        # rows come back in box order, serially and through the worker pool
        for workers in (1, 2):
            report = sweep(10, {2, 3}, 1, workers=workers)
            keys = [(r.n, r.k, r.sizes) for r in report.rows]
            assert keys == sorted(keys)
            report = check_symmetric(12, workers=workers)
            keys = [(r.m, r.p) for r in report.rows]
            assert keys == sorted(keys)

    def test_mismatches_subset_of_rows(self):
        report = sweep(12, {2, 3}, 1)
        assert all(not r.agree for r in report.mismatches)
        assert set(report.mismatches) <= set(report.rows)

    def test_budget_rows_counted_not_mismatched(self):
        report = sweep(16, {4}, 2, budget=2)
        assert report.totals["budget"] > 0
        assert report.totals["mismatches"] == 0
        assert report.budget_rows == report.totals["budget"]

    def test_byte_identical_reports(self):
        a = canon(sweep(12, {2, 3}, 2).to_jsonable())
        b = canon(sweep(12, {2, 3}, 2).to_jsonable())
        assert a == b

    def test_workers_do_not_change_output(self):
        serial = canon(sweep(10, {2, 3}, 2, workers=1).to_jsonable())
        parallel = canon(sweep(10, {2, 3}, 2, workers=2).to_jsonable())
        assert serial == parallel

    def test_condition_refuted_rows_skip_the_search(self, monkeypatch):
        # the verdict's refutation is the search's root test, so the row is
        # settled without a search; every other row is searched once.  Both
        # sweep families keep that one rule.
        unpatched = sweep(40, {3, 4, 5}, 2, 250_000).to_jsonable()
        unpatched_symmetric = check_symmetric(40, 250_000).to_jsonable()
        searched = []

        def counting(inst, *args, **kwargs):
            searched.append((inst.n, inst.sizes))
            return solve_exact(inst, *args, **kwargs)

        monkeypatch.setattr(lab, "solve_exact", counting)
        report = sweep(40, {3, 4, 5}, 2, 250_000)
        refuted = [r for r in report.rows if r.verdict == "infeasible_condition"]
        assert refuted and all(r.oracle == "not_found" for r in refuted)
        # what the search would have said, at any budget: not_found at node 0
        for r in refuted:
            exact = solve_exact(Instance(n=r.n, sizes=r.sizes), budget=0)
            assert (exact.status.value, exact.nodes) == ("not_found", 0), r
        assert searched == [(r.n, r.sizes) for r in report.rows
                            if r.verdict != "infeasible_condition"]
        assert report.to_jsonable() == unpatched

        # equal sizes always pass the prefix condition, so only a
        # non-integral magic sum skips the search; part size 1 (the size-one
        # verdict) and part sizes >= 2 with an integral sum are searched
        searched.clear()
        report = check_symmetric(40, 250_000)
        integral = [(r.n, (r.m,) * r.p) for r in report.rows if magic_sum(r.n, r.p) is not None]
        assert searched == integral
        assert any(sizes[0] == 1 for _, sizes in integral)
        assert any(sizes[0] >= 2 for _, sizes in integral)
        assert len(integral) < len(report.rows)
        assert all(r.oracle == "not_found" for r in report.rows
                   if magic_sum(r.n, r.p) is None)
        assert report.to_jsonable() == unpatched_symmetric

    @pytest.mark.parametrize("cpus,expected", [(2, [2]), (1, []), (None, [])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, expected):
        # a fake pool records the size it was asked for and maps serially,
        # so no worker process is ever started
        requested = []

        class FakePool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, tasks):
                return [worker(t) for t in tasks]

        # _run_tasks imports Pool when it needs one, so patch it at the source
        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr(lab.os, "cpu_count", lambda: cpus)
        report = sweep(10, {2, 3}, 2, workers=10_000)
        assert requested == expected
        assert canon(report.to_jsonable()) == canon(sweep(10, {2, 3}, 2).to_jsonable())

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # a serial run pays nothing for the worker pool it never starts
        script = "import sys, equipart.cli; sys.exit('multiprocessing' in sys.modules)"
        src = os.path.dirname(os.path.dirname(lab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


RUNS = {
    "sweep": lambda kw: sweep(10, {3}, 2, **kw),
    "symmetric": lambda kw: check_symmetric(8, **kw),
}
BAD_BUDGET_OR_WORKERS = [
    {"budget": -1},
    {"budget": 2.5},
    {"budget": True},
    {"workers": 0},
    {"workers": -4},
    {"workers": 2.0},
    {"workers": True},
]
# (call, the argument its error names)
REJECTED = [
    pytest.param(functools.partial(run, kw), next(iter(kw)), id=f"{kw}-{name}")
    for kw in BAD_BUDGET_OR_WORKERS
    for name, run in RUNS.items()
] + [
    # a float box bound would otherwise fail with TypeError inside range()
    pytest.param(lambda: sweep(10.5, {3}, 2), "n_max", id="sweep-float-n_max"),
    pytest.param(lambda: sweep(10, {3}, 2.5), "min_part", id="sweep-float-min_part"),
    pytest.param(lambda: sweep(10, {3.0}, 2), "k", id="sweep-float-k"),
    pytest.param(lambda: check_symmetric(8.5), "max_total", id="symmetric-float-max_total"),
]


class TestBudgetAndWorkers:
    @pytest.mark.parametrize("call,name", REJECTED)
    def test_rejected_before_any_row(self, monkeypatch, call, name):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(lab, "solve_exact", no_rows)
        with pytest.raises(ValueError, match=name):
            call()

    @pytest.mark.parametrize("run", list(RUNS.values()), ids=list(RUNS))
    def test_zero_budget_is_valid(self, run):
        report = run({"budget": 0})
        assert report.totals["budget"] > 0


#: A sweep with budget rows and a check_symmetric run, each small.
SMALL_REPORTS = pytest.mark.parametrize("make", [
    lambda: sweep(16, {3, 4, 5}, 2, budget=20),
    lambda: check_symmetric(12, budget=20),
], ids=["sweep", "check_symmetric"])


class TestToJsonable:
    @SMALL_REPORTS
    def test_rows_equal_asdict(self, make):
        report = make()
        payload = report.to_jsonable()
        assert report.mismatches or report.totals["budget"]  # the box is not trivial
        for key in ("rows", "mismatches"):
            assert payload[key] == [dataclasses.asdict(r) for r in getattr(report, key)]

    @SMALL_REPORTS
    def test_edits_leave_the_report_alone(self, make):
        report = make()
        before = canon(report.to_jsonable())
        payload = report.to_jsonable()
        for key in ("config", "totals"):
            payload[key]["extra"] = 1
            for value in payload[key].values():
                if isinstance(value, list):
                    value.append(99)
        for row in payload["rows"] + payload["mismatches"]:
            row["agree"] = None
        payload["rows"].clear()
        assert canon(report.to_jsonable()) == before

    @SMALL_REPORTS
    def test_totals_recount_the_rows(self, make):
        # key order is part of the result: rows, mismatches, the three oracle
        # answers, then each verdict in the order it first appears
        report = make()
        rows = report.rows
        expected = {"rows": len(rows), "mismatches": sum(not r.agree for r in rows)}
        for oracle in ("found", "not_found", "budget"):
            expected[oracle] = sum(r.oracle == oracle for r in rows)
        for r in rows:
            if isinstance(r, lab.SweepRow):
                key = f"verdict_{r.verdict}"
                expected[key] = expected.get(key, 0) + 1
        assert list(report.totals.items()) == list(expected.items())
        assert report.mismatches == tuple(r for r in rows if not r.agree)


class TestCheckSymmetric:
    def test_small_box_rows(self):
        report = check_symmetric(6)
        by_key = {(r.m, r.p): r for r in report.rows}
        # two parts of size two: {1,4},{2,3} exists and parity rule agrees
        assert by_key[(2, 2)].oracle == "found"
        assert by_key[(2, 2)].criterion is True
        # two parts of size three: total 21 is odd, no labeling, rule false
        assert by_key[(3, 2)].oracle == "not_found"
        assert by_key[(3, 2)].criterion is False
        assert report.totals["mismatches"] == 0

    def test_three_by_three_exists(self):
        report = check_symmetric(9)
        row = {(r.m, r.p): r for r in report.rows}[(3, 3)]
        assert row.oracle == "found"
        assert row.criterion is True
        assert row.agree

    def test_size_one_parts_never_magic(self):
        # complete graphs: the parity clause would claim (1, odd p) exists
        report = check_symmetric(10)
        for row in report.rows:
            if row.m == 1:
                assert row.criterion is False
                assert row.oracle == "not_found"
                assert row.agree

    def test_full_desk_scale_clean(self):
        report = check_symmetric(21)
        assert report.totals["mismatches"] == 0
        assert report.totals["budget"] == 0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            check_symmetric(1)


def test_report_json_shape():
    report = sweep(8, {4}, 2)
    assert isinstance(report, SweepReport)
    data = report.to_jsonable()
    assert set(data) == {"config", "totals", "rows", "mismatches"}
    assert tuple(data["rows"][0]["sizes"]) == (2, 2, 2, 2)
