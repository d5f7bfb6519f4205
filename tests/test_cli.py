"""Command-line behavior: outputs, exit codes, JSON round-trips."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equipart import cli, lab, solver
from equipart.cli import main
from equipart.feasibility import FeasibilityStatus

from helpers import joined_json_text


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


class TestExitTable:
    def test_every_status_has_its_readme_code(self):
        # README: 0 solved / proven feasible / magic; 1 infeasible or not magic;
        # 3 inconclusive (conjectured verdict, budget exhaustion)
        readme = {
            "solved": 0, "feasible_proven": 0, "magic": 0,
            "proven_infeasible": 1, "infeasible_divisibility": 1, "infeasible_condition": 1,
            "infeasible_size_one": 1, "not_magic": 1,
            "budget_exhausted": 3, "condition_holds_conjectured": 3,
        }
        written = ({s.value for s in FeasibilityStatus} | {s.value for s in solver.SolveStatus}
                   | {"magic", "not_magic"})
        assert set(readme) == written
        assert cli._EXIT_BY_STATUS == readme


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

    def test_garbage_sweep_k(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--nmax", "5", "--k", "")
        assert (code, out) == (2, "")
        assert err == "error: k must be comma-separated integers, got ''\n"

    def test_seed_beyond_64_bits(self, capsys):
        # random.Random takes a seed of any size
        code, _, _ = run_cli(
            capsys, "solve", "--n", "8", "--sizes", "2,2,2,2", "--seed", str(2**64 + 5)
        )
        assert code == 0

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

    SEARCH_RESULTS = pytest.mark.parametrize(
        "exact_status, code, status",
        [("NOT_FOUND", 1, "proven_infeasible"), ("BUDGET", 3, "budget_exhausted")],
    )

    def _assert_exit_follows_the_result(self, capsys, monkeypatch, command,
                                        exact_status, code, status):
        # A conjectured (k >= 5) instance: a search that proves absence exits 1
        # like any proven_infeasible solve; one cut off on budget exits 3.
        def exact(inst, budget, order=None):
            return solver.ExactResult(
                status=solver.ExactStatus[exact_status], partition=None, nodes=1)

        monkeypatch.setattr(solver, "solve_exact", exact)
        got, payload = run_json(capsys, command, "--n", "15", "--sizes", "3,3,3,3,3")
        assert (got, payload["status"]) == (code, status)
        assert payload["detail"]["verdict"] == "condition_holds_conjectured"

    @SEARCH_RESULTS
    def test_exit_code_follows_the_result(self, capsys, monkeypatch, exact_status, code, status):
        self._assert_exit_follows_the_result(
            capsys, monkeypatch, "solve", exact_status, code, status)

    @SEARCH_RESULTS
    def test_label_exit_code_follows_the_result(
            self, capsys, monkeypatch, exact_status, code, status):
        # label shares solve's handler, and so its exit code
        self._assert_exit_follows_the_result(
            capsys, monkeypatch, "label", exact_status, code, status)

    def test_single_search_run_settles_within_its_cutoff(self, capsys):
        code, payload = run_json(
            capsys, "solve", "--n", "35", "--sizes", "4,4,6,8,13", "--max-restarts", "0"
        )
        assert code == 0
        assert payload["status"] == "solved"
        assert payload["stats"]["nodes"] == 73

    def test_search_defaults_are_search_params(self):
        args = cli.build_parser().parse_args(["solve", "--n", "5", "--sizes", "5"])
        assert (args.seed, args.max_restarts, args.exact_budget) == dataclasses.astuple(
            solver.SearchParams())

    def test_stats_count_search_restarts(self, capsys):
        # index order spends its 4n = 80 nodes, and restart 1 finds a witness
        argv = ("solve", "--n", "20", "--sizes", "3,4,4,4,5")
        code, payload = run_json(capsys, *argv)
        assert code == 0
        stats = payload["stats"]
        assert set(stats) == {"nodes", "search_restarts", "elapsed"}
        assert stats["search_restarts"] == 1
        assert stats["nodes"] > 80
        _, out, _ = run_cli(capsys, *argv)
        assert f"nodes={stats['nodes']} search_restarts=1 " in out

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

    def test_read_keeps_the_block_order_of_the_input(self, monkeypatch):
        # the parsed lists are handed to Partition one by one and taken out of the document
        blocks = [[7, 5], [1, 2, 4], [6, 3], [8]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 8, "blocks": blocks})))
        p = cli._read_partition(argparse.Namespace(input="-"))
        assert p.blocks == ((5, 7), (1, 2, 4), (3, 6), (8,))
        assert p.sums == (12, 7, 9, 8)

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

    @pytest.mark.parametrize(
        "text,flags,expected",
        [
            (
                '{"n": 8, "blocks": [[4, 5], [8, 1], [2, 7], [3, 6]]}', [],
                {"n": 8, "k": 4, "sizes": [2, 2, 2, 2], "status": "magic", "magic_sum": 9,
                 "graph_constant": 27, "stats": None,
                 "detail": {"mode": "open", "witness": None, "degenerate": False}},
            ),
            (
                '{"n": 6, "blocks": [[6, 1, 2], [3, 4], [5]]}', [],
                {"n": 6, "k": 3, "sizes": [1, 2, 3], "status": "not_magic", "magic_sum": 7,
                 "graph_constant": None, "stats": None,
                 "detail": {"mode": "open", "witness": [1, 3], "degenerate": False}},
            ),
            (
                '{"n": 6, "blocks": [[6, 1, 2], [3, 4], [5]]}', ["--closed"],
                {"n": 6, "k": 3, "sizes": [1, 2, 3], "status": "magic", "magic_sum": 7,
                 "graph_constant": 21, "stats": None,
                 "detail": {"mode": "closed", "witness": None, "degenerate": True}},
            ),
        ],
        ids=["magic", "not-magic", "closed"],
    )
    def test_json_payload_has_no_blocks(self, capsys, monkeypatch, text, flags, expected):
        # verify has no partition of its own to report; it does not echo its input
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        _, payload = run_json(capsys, "verify", *flags)
        assert payload == {**expected, "blocks": None}

    def test_closed_mode_needs_three_blocks(self, capsys, monkeypatch):
        data = json.dumps({"n": 4, "blocks": [[1, 4], [2, 3]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, _, err = run_cli(capsys, "verify", "--closed")
        assert code == 2
        assert "k >= 3" in err

    def test_instance_commands_share_nine_keys(self, capsys, monkeypatch):
        # check, solve and verify build their payload from one base
        instance = ("--n", "6", "--k", "3", "--sizes", "3,2,1")
        payloads = [run_json(capsys, cmd, *instance)[1] for cmd in ("check", "solve")]
        blocks = [[6, 1, 2], [3, 4], [5]]  # input parts of sizes 3, 2, 1
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 6, "blocks": blocks})))
        payloads.append(run_json(capsys, "verify")[1])
        keys = {"n", "k", "sizes", "status", "magic_sum", "blocks",
                "graph_constant", "stats", "detail"}
        assert [set(payload) for payload in payloads] == [keys] * 3
        verified = payloads[2]
        assert verified["k"] == len(blocks)
        assert verified["sizes"] == sorted(map(len, blocks))


K2_LARGE = ("--n", "10000", "--k", "2", "--sizes", "3000,7000")  # constant 50005000 - 25002500


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv,constant",
        [(K2_LARGE, 25002500), (("--n", "9", "--k", "3", "--sizes", "2,3,4"), 30)],
        ids=["k2-n10000", "k3"],
    )
    def test_verify_reads_the_file_solve_wrote(self, capsys, tmp_path, argv, constant):
        path = tmp_path / "solution.json"
        code, out, _ = run_cli(capsys, "solve", *argv, "--format", "json", "-o", str(path))
        assert (code, out) == (0, "")
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0
        assert f"magic: yes, constant {constant}" in out

    def test_indent_layout_still_verifies(self, capsys, tmp_path):
        # files written before the one-item-per-line layout used indent=2
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        run_cli(capsys, "solve", *K2_LARGE, "--format", "json", "-o", str(new))
        payload = json.loads(new.read_text())
        old.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        answers = [run_json(capsys, "verify", "--input", str(path)) for path in (new, old)]
        assert answers[0] == answers[1]
        assert answers[0][0] == 0
        assert answers[0][1]["graph_constant"] == 25002500


def _list_lines(out, key):
    """The lines of a list field, between its opening and closing bracket lines."""
    lines = out.splitlines()
    start = lines.index(f'  "{key}": [') + 1
    end = next(i for i in range(start, len(lines)) if lines[i] in ("  ]", "  ],"))
    return [json.loads(line.strip().rstrip(",")) for line in lines[start:end]]


class TestJsonLayout:
    def test_one_line_per_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--n", "35", "--sizes", "4,4,6,8,13", "--format", "json"
        )
        assert code == 0
        assert _list_lines(out, "blocks") == json.loads(out)["blocks"]

    def test_one_line_per_sweep_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--nmax", "12", "--k", "3", "--format", "json")
        assert code == 0
        assert _list_lines(out, "rows") == json.loads(out)["rows"]
        assert '  "mismatches": [],' in out.splitlines()

    def test_json_answer_renders_no_text(self, capsys, monkeypatch):
        def no_text(blocks):
            raise AssertionError("text rendered for a JSON answer")

        monkeypatch.setattr(cli, "_blocks_text", no_text)
        for command in ("solve", "label"):
            code, payload = run_json(capsys, command, *K2_LARGE)
            assert code == 0
            assert payload["status"] == "solved"


def _payload_of(monkeypatch, *argv):
    """The payload a command hands to _emit, written nowhere."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", lambda args, payload, text: seen.append(payload))
        main(list(argv))
    return seen[0]


class TestStreamedJson:
    """_emit writes, field by field and item by item, the joined document's bytes."""

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep", "check", "label", "symmetric"])
    def test_file_and_stdout_bytes_match_the_joined_text(
            self, capsysbinary, monkeypatch, tmp_path, command):
        solved = _payload_of(monkeypatch, "solve", *K2_LARGE)
        solved["stats"]["elapsed"] = 0.25  # the one field that differs run to run
        if command == "solve":
            payload = solved
        elif command == "verify":
            path = tmp_path / "solved.json"
            path.write_text(json.dumps(solved))
            payload = _payload_of(monkeypatch, "verify", "--input", str(path))
        elif command == "sweep":
            payload = _payload_of(monkeypatch, "sweep", "--nmax", "14", "--k", "3,4")
        elif command == "check":
            payload = _payload_of(monkeypatch, "check", "--n", "12", "--sizes", "2,2,8")
        elif command == "label":
            payload = _payload_of(monkeypatch, "label", "--n", "35", "--sizes", "4,4,6,8,13")
            payload["stats"]["elapsed"] = 0.25
        else:
            payload = _payload_of(monkeypatch, "symmetric", "--max-total", "14")
        expected = joined_json_text(payload).encode()
        out = tmp_path / "out.json"
        for output in (str(out), None):
            cli._emit(argparse.Namespace(format="json", output=output), payload, None)
        assert out.read_bytes() == expected
        assert capsysbinary.readouterr().out == expected


class TestBlockForm:
    """A block's %-formats, one per run of labels, write the JSON encoder's and str join's text."""

    @settings(max_examples=200, deadline=None)
    @given(block=st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=40),
           as_tuple=st.booleans())
    @example(block=[], as_tuple=True)
    @example(block=[7], as_tuple=True)
    @example(block=list(range(-3000, 3000)), as_tuple=True)
    @example(block=[2**63, -2**63 - 1, 2**64 + 1, 0], as_tuple=False)
    def test_json_and_text_forms_equal_what_they_replace(self, block, as_tuple):
        block = tuple(block) if as_tuple else block
        text = "{" + ",".join(map(str, block)) + "}"
        assert "".join(cli._blocks_text([block])) == text
        assert "".join(cli._blocks_text([block, block])) == f"{text} {text}"
        if as_tuple:
            form = "".join(cli._block_runs(block, ", ", "[", "]"))
            assert form == cli._ENCODER.encode(block)
            assert json.loads(form) == list(block)
        # the writer sends a tuple block through the format and a list through the encoder
        payload = {"blocks": [block, block], "n": len(block)}
        out = io.StringIO()
        cli._write_json(out, payload)
        assert out.getvalue() == joined_json_text(payload)
        assert json.loads(out.getvalue())["blocks"] == [list(block)] * 2

    @pytest.mark.parametrize("run", [1, 2, 3, 7])
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 6, 7, 14, 15])
    def test_runs_write_the_one_format_bytes(self, monkeypatch, run, size):
        # a block longer than a run is written in runs that join to the one-format text
        block = tuple(range(-3, size - 3))
        for sep, head, tail in ((", ", "[", "]"), (",", " {", "}")):
            whole = head + sep.join(map(str, block)) + tail
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_RUN", run)
                pieces = list(cli._block_runs(block, sep, head, tail))
                listed = "".join(cli._block_runs(list(block), sep, head, tail))
                texts = "".join(cli._blocks_text([block, list(block)]))
            assert "".join(pieces) == listed == whole
            assert len(pieces) == max(1, -(-size // run))
            assert texts == "{" + ",".join(map(str, block)) + "} {" + ",".join(map(str, block)) + "}"


#: sha256 of the --format json file that each oracle_sweep benchmark command
#: writes.  The acceptance digests pin the compact canonical JSON of
#: SweepReport.to_jsonable(); these pin the CLI's own layout of the same
#: report, one row per line.  Change them only when a change of output is
#: intended.
SWEEP_JSON_SHA256 = {
    ("40", "3,4,5"): "c56d9f1fc8d33f791fc365d77aa167f08c1f3ab60f35076bc049b9ef6bde1368",
    ("32", "6"): "6c58d126e83f4763b7db1e2beabdb39c30fc9de5c19e032eb69b516233442d2f",
}


def _oracle_never_finds(monkeypatch, budget_at_n=None):
    """Make the lab's oracle answer not_found, or budget at n = budget_at_n.

    Every row the condition predicts feasible then disagrees.  The patch
    does not reach worker processes, so the runs use one worker.
    """
    def exact(inst, budget, order=None):
        status = "BUDGET" if inst.n == budget_at_n else "NOT_FOUND"
        return solver.ExactResult(solver.ExactStatus[status], None, 0)

    monkeypatch.setattr(lab, "solve_exact", exact)


#: The text line for the (m, p) = (2, 2) row when the oracle finds no labeling.
SYMMETRIC_CANDIDATE = (
    "counterexample candidate: SymmetricRow(m=2, p=2, n=4, criterion=True, "
    "oracle='not_found', agree=False)"
)


class TestSweepCommands:
    @pytest.mark.parametrize("nmax, ks", list(SWEEP_JSON_SHA256))
    def test_benchmark_sweep_json_bytes(self, capsys, tmp_path, nmax, ks):
        path = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys, "sweep", "--nmax", nmax, "--k", ks, "--min-part", "2",
            "--budget", "250000", "--workers", "1", "--format", "json", "-o", str(path),
        )
        assert code == 0
        assert out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_JSON_SHA256[nmax, ks]

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

    def test_thousand_part_box_exits_three_without_a_traceback(self):
        # a run cut off by its budget exits 3; a crash would print a traceback and exit 1
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "equipart.cli", "sweep", "--nmax", "2000", "--k", "1000",
             "--budget", "10"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (3, "")
        assert "unresolved rows (budget exhausted): 1" in proc.stdout

    def test_json_report(self, capsys):
        code, payload = run_json(capsys, "sweep", "--nmax", "8", "--k", "4,3", "--min-part", "2")
        assert code == 0
        assert payload["config"]["k_set"] == [3, 4]
        assert payload["totals"]["mismatches"] == 0

    def test_symmetric_clean(self, capsys):
        code, out, _ = run_cli(capsys, "symmetric", "--max-total", "10")
        assert code == 0
        assert "mismatches: 0" in out

    def test_counterexample_candidate_exits_one(self, capsys, monkeypatch):
        _oracle_never_finds(monkeypatch)
        argv = ("sweep", "--nmax", "8", "--k", "4", "--workers", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert (
            "counterexample candidate: SweepRow(n=8, k=4, sizes=(2, 2, 2, 2), "
            "verdict='feasible_proven', predicted=True, oracle='not_found', agree=False)"
        ) in out.splitlines()
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload["totals"]["mismatches"] == 1
        assert payload["mismatches"] == payload["rows"]

    def test_symmetric_counterexample_candidate_exits_one(self, capsys, monkeypatch):
        _oracle_never_finds(monkeypatch)
        code, out, _ = run_cli(capsys, "symmetric", "--max-total", "4", "--workers", "1")
        assert code == 1
        assert SYMMETRIC_CANDIDATE in out.splitlines()

    def test_mismatch_outranks_an_unresolved_row(self, capsys, monkeypatch):
        # (1, 3) is cut off by its budget and (2, 2) disagrees: the mismatch sets the exit code
        _oracle_never_finds(monkeypatch, budget_at_n=3)
        code, out, _ = run_cli(capsys, "symmetric", "--max-total", "4", "--workers", "1")
        assert code == 1
        unresolved = "unresolved rows (budget exhausted): 1"
        assert out.splitlines()[-2:] == [SYMMETRIC_CANDIDATE, unresolved]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "sweep", "--nmax", "8", "--k", "4", "--min-part", "2",
            "--format", "json", "-o", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["totals"]["rows"] == 1


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_command_lines():
    """The README's `equipart ...` lines with no pipe, trailing comments dropped."""
    with open(README, encoding="utf-8") as handle:
        lines = [line.split("#")[0].strip() for line in handle if line.startswith("equipart ")]
    return [line[len("equipart "):] for line in lines if "|" not in line]


def _masked_sha256(out):
    """sha256 of stdout with the one run-to-run figure, the elapsed seconds, masked."""
    out = re.sub(r'("elapsed": |elapsed=)[0-9.e-]+', r"\1#", out)
    return hashlib.sha256(out.encode()).hexdigest()


#: Exit code and masked stdout sha256 of each command line: the README's lines
#: that need no pipe, then check, solve and label in text and JSON on the
#: size-one route (7; 1,2,2,2), the size-one verdict (9; 1,2,6) and a prefix
#: condition that first fails at j = 4 (15; 2,2,2,2,7), then check on a magic
#: sum that does not divide (5; 2,3) and on the second size-one reason, a
#: size-1 block beside a block that is not a pair (7; 1,1,2,3).  Change them
#: only when a change of output is intended.
GOLDEN_STDOUT = {
    "check --n 12 --k 3 --sizes 2,2,8": (
        1, "3f052965be80fb3e4bfed954f84d91e3928c4d0ec47298edb21f9b196872e84a"),
    "solve --n 8 --k 4 --sizes 2,2,2,2 --format json": (
        0, "4dd59ddbd82ddec42d8dda41566c5659ea8c7b28b5a595bb2e0d29d758ecd8a3"),
    "solve --n 20 --k 5 --sizes 3,4,4,4,5": (
        0, "d5b85e01199db43feb952b3f2b17bb524244c81d2bfa42a99ba3a0e29bfbade2"),
    "solve --n 32 --k 4 --sizes 5,7,9,11 --exact-budget 10": (
        3, "42615396908cc4e0046cb29961b5299aa57c776f89139e025310806901aa8c21"),
    "label --n 7 --k 4 --sizes 1,2,2,2": (
        0, "30329e219bf5fe98b2d7bda41658ee7ad773cc68b16a335b759c79d4e9b4314d"),
    "sweep --nmax 20 --k 2,3,4 --min-part 2 --workers 4": (
        0, "7d12b937ecc532b529ac99fc50aa79837c467aca71bc4e6b0b9a017f47fb2237"),
    "sweep --nmax 32 --k 6 --budget 250000": (
        0, "9b91b84182faf4bda55bd071bc7a2992c661529640ddbfb949aea4d5fd8ba059"),
    "symmetric --max-total 21": (
        0, "95bd171f41fecdbb1aaa73a645da9f923405feb615f0df5443dae9f20e90f19d"),
    "check --n 7 --sizes 1,2,2,2": (
        0, "4e032a418245a656294d1334e390728a1c8eb8a003d66462a8d95f1ae5ad69e8"),
    "check --n 7 --sizes 1,2,2,2 --format json": (
        0, "35b616fc749fe1e294b30157fee4dab6bd1d4a59995f67ecb651965f6073a9a2"),
    "solve --n 7 --sizes 1,2,2,2": (
        0, "8fc84eacd24ec82ae28592ef8be1d0f1306a0a8342d53d22f8a9ef1efbfebd2d"),
    "solve --n 7 --sizes 1,2,2,2 --format json": (
        0, "19e495c695d42323627302d177debbf3f5e731562f7da166fb1e9f2ac53d9247"),
    "label --n 7 --sizes 1,2,2,2": (
        0, "30329e219bf5fe98b2d7bda41658ee7ad773cc68b16a335b759c79d4e9b4314d"),
    "label --n 7 --sizes 1,2,2,2 --format json": (
        0, "19e495c695d42323627302d177debbf3f5e731562f7da166fb1e9f2ac53d9247"),
    "check --n 9 --sizes 1,2,6": (
        1, "7174ef04e4a096f51d261c9afb3239d9195ed3430aad0df176013e76205852fc"),
    "check --n 9 --sizes 1,2,6 --format json": (
        1, "1496a424f6ff886c7691137db6d61c191703583d49dca94d9306157d4d1046b7"),
    "solve --n 9 --sizes 1,2,6": (
        1, "52fab39e6fe189ae60b71e6214cf662599f4493988596824f65ce80b82f1d310"),
    "solve --n 9 --sizes 1,2,6 --format json": (
        1, "db06a59312c2e04f02a2ed9116290f8e41fdbcd77f3fc388a9ea2c0d3c028035"),
    "label --n 9 --sizes 1,2,6": (
        1, "96c47d3f4b3cc0e5f594cc4ac975ba231f2188e06f3db4c22896caa8b722e13d"),
    "label --n 9 --sizes 1,2,6 --format json": (
        1, "db06a59312c2e04f02a2ed9116290f8e41fdbcd77f3fc388a9ea2c0d3c028035"),
    "check --n 15 --sizes 2,2,2,2,7": (
        1, "7db6df4559da9b20282fef8df5dd3ed7338ffec197a75a48fff69c0704d243ff"),
    "check --n 15 --sizes 2,2,2,2,7 --format json": (
        1, "ea260fac2fecede698bfa8482216d8b595341e8b53fd3cd7da2e5fdfc46e7a75"),
    "solve --n 15 --sizes 2,2,2,2,7": (
        1, "fe6e8a11e9bbbfec78888fe305ac533400885bc8344ca7343a5dbfb76804e935"),
    "solve --n 15 --sizes 2,2,2,2,7 --format json": (
        1, "33ce4c55dd7ca4a6ca75797a8e147c27d0e6af8cb6a853b161e4cd97c469e43d"),
    "label --n 15 --sizes 2,2,2,2,7": (
        1, "ec5d29775d3df23c9dc4011f606c31302f116a53239b247750d681fb754541b7"),
    "label --n 15 --sizes 2,2,2,2,7 --format json": (
        1, "33ce4c55dd7ca4a6ca75797a8e147c27d0e6af8cb6a853b161e4cd97c469e43d"),
    "check --n 5 --sizes 2,3": (
        1, "13b314e02f2e6fbfe279361597cc117ff751252e26528c7be9871a06784fb694"),
    "check --n 7 --sizes 1,1,2,3": (
        1, "6875c2bf912b27e78bcdc1456bd7d36f5c633d30c838a1370403e8d43c8d8cf5"),
    "check --n 7 --sizes 1,1,2,3 --format json": (
        1, "32906f2c6a7c97b232402afe1ddcf1f555803143db9aa876e948ea5de0bed777"),
}

#: The same pins for verify and verify --closed of `solve --n 7 --sizes 1,2,2,2`.
GOLDEN_VERIFY = {
    "": (
        0, "b67e116cb058b157da41446719f4f0eeae68767bfcab751857c30854b14c5823"),
    "--closed": (
        0, "84da4def2e611e2f81aacad4e7921896564befb40826937f7cf55c7a815326bd"),
    "--format json": (
        0, "36d558957f7cdb233d15c313f6a721f28e10800081552cb93a8920092b08ab77"),
    "--closed --format json": (
        0, "76d08805b64093ebb765c2f5916a244fb4af3f61ffb5f6b8ebacf35255936401"),
}


class TestGoldenOutput:
    def test_every_readme_line_is_pinned(self):
        assert set(_readme_command_lines()) <= set(GOLDEN_STDOUT)

    @pytest.mark.parametrize("line", list(GOLDEN_STDOUT))
    def test_stdout_bytes(self, capsys, line):
        code, out, err = run_cli(capsys, *line.split())
        assert err == ""
        assert (code, _masked_sha256(out)) == GOLDEN_STDOUT[line]

    @pytest.mark.parametrize("flags", list(GOLDEN_VERIFY))
    def test_verify_bytes(self, capsys, tmp_path, flags):
        path = tmp_path / "solved.json"
        run_cli(capsys, "solve", "--n", "7", "--sizes", "1,2,2,2", "--format", "json",
                "-o", str(path))
        code, out, err = run_cli(capsys, "verify", "--input", str(path), *flags.split())
        assert err == ""
        assert (code, _masked_sha256(out)) == GOLDEN_VERIFY[flags]

    def test_closed_verify_at_k3_notes_the_forced_constant(self, capsys, tmp_path):
        path = tmp_path / "solved.json"
        run_cli(capsys, "solve", "--n", "9", "--sizes", "2,3,4", "--format", "json",
                "-o", str(path))
        code, out, err = run_cli(capsys, "verify", "--closed", "--input", str(path))
        assert err == ""
        assert (code, _masked_sha256(out)) == (
            0, "fbfbfbe9572534c9b602f7b27445bde71516ef24ccc9c3314106f512fa746b0d")
        assert "note: k=3 closed neighborhoods cover all vertices; constant is forced" in out


#: The renderer of each instance command's text form.
RENDERERS = {"check": cli._check_text, "solve": cli._solve_text,
             "label": cli._label_text, "verify": cli._verify_text}


class TestTextFromJson:
    """An instance command's text is its JSON payload rendered, elapsed seconds masked."""

    def _assert_text_is_rendered_json(self, capsys, argv):
        code, text, _ = run_cli(capsys, *argv)
        json_code, payload = run_json(capsys, *argv)
        assert json_code == code
        rendered = "".join(RENDERERS[argv[0]](payload))
        assert _masked_sha256(rendered) == _masked_sha256(text), rendered

    @pytest.mark.parametrize("line", [
        line for line in GOLDEN_STDOUT
        if line.split()[0] in ("check", "solve", "label") and "--format" not in line
    ])
    def test_golden_lines(self, capsys, line):
        self._assert_text_is_rendered_json(capsys, line.split())

    @pytest.mark.parametrize("solved,flags", [
        ("7 1,2,2,2", ()), ("7 1,2,2,2", ("--closed",)), ("9 2,3,4", ("--closed",)), (None, ()),
    ], ids=["golden-open", "golden-closed", "k3-closed", "not-magic"])
    def test_verify(self, capsys, tmp_path, solved, flags):
        path = tmp_path / "input.json"
        if solved is None:
            path.write_text(json.dumps({"n": 4, "blocks": [[1, 2], [3, 4]]}))
        else:
            n, sizes = solved.split()
            run_cli(capsys, "solve", "--n", n, "--sizes", sizes, "--format", "json",
                    "-o", str(path))
        self._assert_text_is_rendered_json(capsys, ["verify", "--input", str(path), *flags])


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "1000000", "--k", "2", "--sizes", "400000,600000"],
        ["solve", "--n", "1000000", "--k", "2", "--sizes", "400000,600000", "--format", "json"],
        ["sweep", "--nmax", "34", "--k", "3,4,5", "--format", "json"],
    ], ids=["solve-text", "solve-json", "sweep-json"])
    def test_reader_closing_stdout_keeps_the_result_code(self, argv):
        # the reader takes 100 bytes and closes its end, as `| head -c 100` does
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "equipart.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")
        assert len(head) == 100

    def test_closed_output_file_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _ClosedPipe(), raising=False)
        code, out, err = run_cli(capsys, "solve", "--n", "9", "--sizes", "2,3,4", "-o", "x.json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Broken pipe" in err


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
