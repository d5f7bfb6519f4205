"""Command-line behavior: outputs, exit codes, JSON round-trips."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestCheck:
    def test_infeasible_condition_message_and_code(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "12", "--k", "3", "--sizes", "2,2,8")
        assert code == 1
        assert "condition fails at j=1 (23 < 26)" in out

    def test_feasible_proven(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "8", "--k", "4", "--sizes", "2,2,2,2")
        assert code == 0
        assert "feasible (proven)" in out

    def test_conjectured_is_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "15", "--k", "5", "--sizes", "3,3,3,3,3")
        assert code == 3
        assert "conjectured" in out

    def test_json_carries_same_facts_as_text(self, capsys):
        code, payload = run_json(capsys, "check", "--n", "12", "--k", "3", "--sizes", "2,2,8")
        assert code == 1
        assert payload["status"] == "infeasible_condition"
        assert payload["detail"] == {"failing_index": 1, "prefix_sum": 23, "required": 26}
        assert payload["magic_sum"] == 26

    def test_sizes_order_not_significant(self, capsys):
        code, payload = run_json(capsys, "check", "--n", "12", "--k", "3", "--sizes", "8,2,2")
        assert code == 1
        assert payload["sizes"] == [2, 2, 8]


class TestUsageErrors:
    def test_sum_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "9", "--k", "3", "--sizes", "2,2,8")
        assert code == 2
        assert "sum to" in err

    def test_non_positive_size(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "4", "--k", "2", "--sizes", "0,4")
        assert code == 2

    def test_k_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "8", "--k", "3", "--sizes", "2,2,2,2")
        assert code == 2

    def test_garbage_sizes(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "8", "--k", "2", "--sizes", "a,b")
        assert code == 2

    def test_seed_beyond_64_bits(self, capsys):
        # 2**64 + 5 would silently run as seed 5
        code, _, err = run_cli(
            capsys, "solve", "--n", "8", "--sizes", "2,2,2,2", "--seed", str(2**64 + 5)
        )
        assert code == 2
        assert "2**64" in err

    def test_exact_cutoff_flag_is_gone(self, capsys):
        # argparse rejects an unknown flag by raising SystemExit(2)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--n", "8", "--sizes", "2,2,2,2", "--exact-cutoff", "24"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--nmax", "10", "--k", "3", "--budget", "-1"),
            ("sweep", "--nmax", "10", "--k", "3", "--workers", "0"),
            ("sweep", "--nmax", "10", "--k", "3", "--workers", "-4"),
            ("symmetric", "--max-total", "8", "--budget", "-1"),
            ("symmetric", "--max-total", "8", "--workers", "0"),
            ("symmetric", "--max-total", "8", "--workers", "-4"),
        ],
        ids=[
            "sweep-budget", "sweep-workers-0", "sweep-workers-neg",
            "symmetric-budget", "symmetric-workers-0", "symmetric-workers-neg",
        ],
    )
    def test_malformed_budget_or_workers(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestSolve:
    def test_solved_json_schema(self, capsys):
        code, payload = run_json(
            capsys, "solve", "--n", "8", "--k", "4", "--sizes", "2,2,2,2"
        )
        assert code == 0
        assert payload["status"] == "solved"
        assert [sum(b) for b in payload["blocks"]] == [9, 9, 9, 9]
        assert payload["graph_constant"] == 27
        assert set(payload) == {
            "n", "k", "sizes", "status", "magic_sum", "blocks",
            "graph_constant", "stats", "detail",
        }

    def test_infeasible_exit(self, capsys):
        code, payload = run_json(
            capsys, "solve", "--n", "12", "--k", "3", "--sizes", "2,2,8"
        )
        assert code == 1
        assert payload["status"] == "proven_infeasible"
        assert payload["blocks"] is None

    def test_stalled_descent_settled_by_exact_search(self, capsys):
        code, payload = run_json(
            capsys, "solve", "--n", "35", "--sizes", "4,4,6,8,13", "--max-restarts", "4"
        )
        assert code == 0
        assert payload["status"] == "solved"
        assert payload["stats"]["nodes"] == 73

    def test_text_reports_same_blocks(self, capsys):
        _, payload = run_json(capsys, "solve", "--n", "7", "--k", "2", "--sizes", "3,4")
        code, out, _ = run_cli(capsys, "solve", "--n", "7", "--k", "2", "--sizes", "3,4")
        assert code == 0
        for block in payload["blocks"]:
            assert "{" + ",".join(map(str, block)) + "}" in out


class TestLabel:
    def test_parts_and_constant(self, capsys):
        code, out, _ = run_cli(capsys, "label", "--n", "7", "--k", "4", "--sizes", "1,2,2,2")
        assert code == 0
        assert "part 0: {7}" in out
        assert "sums to: 21" in out  # c = 28 - 7


class TestVerify:
    def test_round_trip_from_solve(self, capsys, tmp_path, monkeypatch):
        _, payload = run_json(capsys, "solve", "--n", "9", "--k", "3", "--sizes", "2,3,4")
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "magic: yes, constant 30" in out

    def test_stdin_input(self, capsys, monkeypatch):
        data = json.dumps({"n": 4, "blocks": [[1, 4], [2, 3]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "constant 5" in out

    def test_not_magic_exit_one(self, capsys, monkeypatch):
        data = json.dumps({"n": 4, "blocks": [[1, 2], [3, 4]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "witness vertices 1 and 3" in out

    def test_closed_mode(self, capsys, monkeypatch):
        data = json.dumps({"n": 8, "blocks": [[1, 8], [2, 7], [3, 6], [4, 5]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, out, _ = run_cli(capsys, "verify", "--closed")
        assert code == 0
        assert "constant 27" in out

    def test_malformed_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2, 3]"))
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "blocks": [["a", "b"], ["c"]]}',
            '{"n": 4, "blocks": [5, [1, 2, 3]]}',
            '{"n": 1e400, "blocks": [[1, 2], [3]]}',
            '{"n": 3, "blocks": [[1.0, 2.0], [3]]}',
            '{"n": 3, "blocks": [[true, 2], [3]]}',
            '{"n": "3", "blocks": [[1, 2], [3]]}',
            '{"n": 3, "blocks": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=[
            "string-labels", "non-list-block", "huge-float-n", "float-labels",
            "bool-label", "string-n", "deep-nesting",
        ],
    )
    def test_non_integer_input_is_usage_error(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "verify")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_closed_mode_needs_three_blocks(self, capsys, monkeypatch):
        data = json.dumps({"n": 4, "blocks": [[1, 4], [2, 3]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, _, err = run_cli(capsys, "verify", "--closed")
        assert code == 2
        assert "k >= 3" in err


class TestSweepCommands:
    def test_clean_sweep_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--nmax", "8", "--k", "4", "--min-part", "2")
        assert code == 0
        assert "rows: 1  mismatches: 0" in out

    def test_budget_exhaustion_exits_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--nmax", "16", "--k", "4", "--min-part", "2",
            "--budget", "2",
        )
        assert code == 3
        assert "budget" in out

    def test_json_report(self, capsys):
        code, payload = run_json(capsys, "sweep", "--nmax", "8", "--k", "4,3", "--min-part", "2")
        assert code == 0
        assert payload["config"]["k_set"] == [3, 4]
        assert payload["totals"]["mismatches"] == 0

    def test_symmetric_clean(self, capsys):
        code, out, _ = run_cli(capsys, "symmetric", "--max-total", "10")
        assert code == 0
        assert "mismatches: 0" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "sweep", "--nmax", "8", "--k", "4", "--min-part", "2",
            "--format", "json", "-o", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["totals"]["rows"] == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=-2, max_value=12) | json_values,
    blocks=st.lists(st.lists(st.integers(min_value=-1, max_value=13), max_size=6), max_size=5)
    | json_values,
    closed=st.booleans(),
)
def test_verify_survives_arbitrary_json(n, blocks, closed):
    # any JSON document ends in an exit code, never in an escaped exception
    argv = ["verify", "--closed"] if closed else ["verify"]
    stdin = io.StringIO(json.dumps({"n": n, "blocks": blocks}))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", stdin)
            code = main(argv)
    assert code in (0, 1, 2)
