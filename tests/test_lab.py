"""Sweep machinery: enumeration, condition-vs-oracle rows, determinism."""

import pytest

from equipart import lab
from equipart.lab import (
    SweepReport,
    check_symmetric,
    descent_success,
    enumerate_size_sequences,
    sweep,
)


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
        assert list(enumerate_size_sequences(3, 4, 1)) == []

    def test_sequences_are_sorted_and_sum(self):
        for seq in enumerate_size_sequences(14, 4, 2):
            assert sum(seq) == 14
            assert all(a <= b for a, b in zip(seq, seq[1:]))
            assert seq[0] >= 2

    def test_lexicographic_order(self):
        seqs = list(enumerate_size_sequences(12, 3, 1))
        assert seqs == sorted(seqs)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_size_sequences(0, 3, 1))


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
        report = sweep(10, {2, 3}, 1)
        keys = [(r.n, r.k, r.sizes) for r in report.rows]
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
        a = sweep(12, {2, 3}, 2).to_json()
        b = sweep(12, {2, 3}, 2).to_json()
        assert a == b

    def test_workers_do_not_change_output(self):
        serial = sweep(10, {2, 3}, 2, workers=1).to_json()
        parallel = sweep(10, {2, 3}, 2, workers=2).to_json()
        assert serial == parallel

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

        monkeypatch.setattr(lab, "Pool", FakePool)
        monkeypatch.setattr(lab.os, "cpu_count", lambda: cpus)
        report = sweep(10, {2, 3}, 2, workers=10_000)
        assert requested == expected
        assert report.to_json() == sweep(10, {2, 3}, 2).to_json()


@pytest.mark.parametrize(
    "run",
    [
        lambda kw: sweep(10, {3}, 2, **kw),
        lambda kw: check_symmetric(8, **kw),
    ],
    ids=["sweep", "symmetric"],
)
class TestBudgetAndWorkers:
    @pytest.mark.parametrize(
        "kw", [{"budget": -1}, {"workers": 0}, {"workers": -4}], ids=str
    )
    def test_rejected_before_any_row(self, monkeypatch, run, kw):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(lab, "solve_exact", no_rows)
        with pytest.raises(ValueError):
            run(kw)

    def test_zero_budget_is_valid(self, run):
        report = run({"budget": 0})
        assert report.totals["budget"] > 0


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


class TestDescentSuccess:
    def test_measured_rate_at_desk_scale(self):
        # the exchange descent alone (no exact fallback) currently clears
        # every feasible instance in this box; frozen from a measured run
        report = descent_success(16, {3, 4}, 2)
        assert report["attempted"] == 30
        assert report["solved_by_descent"] == 30
        assert report["rate"] == 1.0
        assert report["failures"] == []

    def test_counts_only_oracle_feasible_instances(self):
        report = descent_success(12, {3}, 2)
        assert report["attempted"] <= 13  # sequences for n in {6,8,9,11,12}
        assert 0.0 <= report["rate"] <= 1.0


def test_report_json_shape():
    report = sweep(8, {4}, 2)
    assert isinstance(report, SweepReport)
    data = report.to_jsonable()
    assert set(data) == {"config", "totals", "rows", "mismatches"}
    assert tuple(data["rows"][0]["sizes"]) == (2, 2, 2, 2)
