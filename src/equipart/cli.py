"""Command-line front end: check, solve, label, verify, sweep, symmetric.

Every command renders the same facts in text or JSON (--format).  An
instance command (check, solve, label, verify) renders its text from the
payload it writes as JSON, so each fact has one source; sweep and
symmetric render theirs from the report.  The JSON schema uses the
stable field names n, k, sizes, status, magic_sum, blocks,
graph_constant, stats, plus a detail object for verdict- or
witness-specific facts.  The JSON puts one field per line, keys sorted,
and one item per line of a non-empty list (one block, or one sweep row);
it is written to the file or stdout piece by piece, never joined into one
string.  A block, in JSON or text, is one %-format of its labels; every
other value goes through one shared JSON encoder.  verify reads the JSON
that solve emits, in this layout or any other.

Exit codes: 0 solved/feasible/magic or clean sweep; 1 infeasible, not
magic, or mismatches present; 2 usage or input error; 3 inconclusive
(conjectured verdict, budget exhaustion, or unresolved sweep rows).  A
solve or label exits by its result, not the verdict: proven_infeasible
exits 1 even on a conjectured verdict, budget_exhausted exits 3.  A sweep
or symmetric report with both mismatches and unresolved rows exits 1: a
mismatch wins.  A reader that closes standard output early does not
change the code: the rest of the output is dropped.

No colors and no environment configuration are used, so NO_COLOR is
honored trivially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Any, Callable, TextIO

from .core import Instance, Partition, magic_sum
from .feasibility import FeasibilityStatus, Verdict, feasibility, prefix_top_sum
from .graphs import verify_closed_magic_cycle, verify_distance_magic
from .lab import SweepReport, check_symmetric, sweep
from .solver import DEFAULT_NODE_BUDGET, SearchParams, SolveStatus, solve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _parse_ints(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{name} must be comma-separated integers, got {text!r}")


def _instance_from_args(args: argparse.Namespace) -> Instance:
    sizes = _parse_ints(args.sizes, "sizes")
    if args.k is not None and args.k != len(sizes):
        raise ValueError(f"k={args.k} but {len(sizes)} sizes were given")
    # Instance rejects non-positive sizes and sizes not summing to n (exit 2).
    # Input order is not significant; sizes are normalized ascending.
    return Instance.from_sizes(args.n, sizes)


_ENCODER = json.JSONEncoder(sort_keys=True)  # one for every value but a block, not one per json.dumps


def _block_form(block: tuple[int, ...], sep: str, brackets: str) -> str:
    """The labels of block between brackets[0] and brackets[1], sep between them.

    One %-format of %r slots writes every label into the one result
    string, with no str per label.  %r of a genuine int is its decimal
    text, which is also its JSON text; Partition holds no other label.
    """
    return (brackets[0] + (f"%r{sep}" * len(block))[:-len(sep)] + brackets[1]) % block


def _write_json(handle: TextIO, payload: dict[str, Any]) -> None:
    """One field per line, keys sorted; a non-empty list puts one item per line.

    The document goes to the handle field by field and item by item, so no
    string of the whole of it is built.  A tuple item is a block of
    genuine ints and goes through _block_form, with the encoder's ", "
    separator; every other value is encoded on its own without indent, so
    the C encoder runs, all by the one shared _ENCODER rather than a new
    one per sweep row.
    """
    write, encode = handle.write, _ENCODER.encode
    write("{\n")
    field_sep = "  "
    for key in sorted(payload):
        write(f"{field_sep}{encode(key)}: ")
        field_sep = ",\n  "
        value = payload[key]
        if isinstance(value, (list, tuple)) and value:
            item_sep = "[\n    "
            for item in value:
                write(item_sep)
                write(_block_form(item, ", ", "[]") if type(item) is tuple else encode(item))
                item_sep = ",\n    "
            write("\n  ]")
        else:
            write(encode(value))
    write("\n}\n")


def _emit(args: argparse.Namespace, payload: dict[str, Any], render: Callable[[dict], str]) -> None:
    """Write the payload as JSON, or render(payload) and a newline for the text form.

    Only one form is built; a renderer returns its lines joined, with no
    final newline.  A reader that closes stdout early (`| head`) ends the writing, not the
    command: the rest is dropped and stdout is pointed at os.devnull, so the
    interpreter's flush at exit cannot fail again.  A failed -o FILE write
    still raises.
    """
    target = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with target as handle:
        try:
            if args.format == "json":
                _write_json(handle, payload)
            else:
                handle.write(render(payload) + "\n")
            handle.flush()
        except BrokenPipeError:
            if handle is not sys.stdout:
                raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, handle.fileno())
            os.close(devnull)


def _verdict_detail(inst: Instance, verdict: Verdict) -> dict[str, Any] | None:
    if verdict.status is FeasibilityStatus.INFEASIBLE_CONDITION:
        j = verdict.failing_index
        lhs = prefix_top_sum(inst.n, sum(inst.sizes[:j]))
        return {"failing_index": j, "prefix_sum": lhs, "required": j * verdict.s}
    if verdict.status is FeasibilityStatus.INFEASIBLE_SIZE_ONE:
        return {"reason": verdict.reason}
    return None


def _base_payload(n: int, sizes) -> dict[str, Any]:
    """The nine top-level fields every instance command writes; the caller fills the rest."""
    return {
        "n": n,
        "k": len(sizes),
        "sizes": list(sizes),
        "status": None,
        "magic_sum": magic_sum(n, len(sizes)),
        "blocks": None,
        "graph_constant": None,
        "stats": None,
        "detail": None,
    }


def _instance_header(payload: dict[str, Any]) -> list[str]:
    s = payload["magic_sum"]
    return [
        f"instance: n={payload['n']} k={payload['k']} sizes={','.join(map(str, payload['sizes']))}",
        f"magic sum: {s if s is not None else 'not integral'}",
    ]


def _check_text(payload: dict[str, Any]) -> str:
    status, detail, n = FeasibilityStatus(payload["status"]), payload["detail"], payload["n"]
    if status is FeasibilityStatus.INFEASIBLE_DIVISIBILITY:
        verdict = f"infeasible: {n}({n}+1)/2 is not divisible by k={payload['k']}"
    elif status is FeasibilityStatus.INFEASIBLE_CONDITION:
        verdict = (f"infeasible: condition fails at j={detail['failing_index']} "
                   f"({detail['prefix_sum']} < {detail['required']})")
    elif status is FeasibilityStatus.INFEASIBLE_SIZE_ONE:
        verdict = f"infeasible: {detail['reason']}"
    elif status is FeasibilityStatus.FEASIBLE_PROVEN:
        verdict = "feasible (proven)"
    else:
        verdict = "condition holds (conjectured sufficient for k >= 5)"
    return "\n".join(_instance_header(payload) + [f"verdict: {verdict}"])


def cmd_check(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    verdict = feasibility(inst)
    payload = _base_payload(inst.n, inst.sizes)
    payload["status"] = verdict.status.value
    payload["detail"] = _verdict_detail(inst, verdict)
    _emit(args, payload, _check_text)
    if verdict.status is FeasibilityStatus.FEASIBLE_PROVEN:
        return EXIT_OK
    if verdict.status is FeasibilityStatus.CONDITION_HOLDS_CONJECTURED:
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def _solve_payload(args: argparse.Namespace, inst: Instance) -> tuple[dict[str, Any], int]:
    result = solve(inst, SearchParams(
        seed=args.seed, max_restarts=args.max_restarts, exact_node_budget=args.exact_budget))
    payload = _base_payload(inst.n, inst.sizes)
    payload["status"] = result.status.value
    payload["stats"] = {
        "nodes": result.stats.nodes,
        "search_restarts": result.stats.search_restarts,
        "elapsed": round(result.stats.elapsed, 6),
    }
    if result.status is SolveStatus.SOLVED:
        payload["blocks"] = result.partition.blocks
        payload["graph_constant"] = verify_distance_magic(result.partition).constant
        code = EXIT_OK
    else:
        payload["detail"] = {
            "verdict": result.verdict.status.value,
            **(_verdict_detail(inst, result.verdict) or {}),
        }
        code = (EXIT_NEGATIVE if result.status is SolveStatus.PROVEN_INFEASIBLE
                else EXIT_INCONCLUSIVE)
    return payload, code


def _blocks_text(blocks) -> str:
    # a payload parsed back from JSON holds its blocks as lists
    return " ".join(_block_form(tuple(b), ",", "{}") for b in blocks)


def _solve_text(payload: dict[str, Any]) -> str:
    lines = _instance_header(payload) + [f"status: {payload['status']}"]
    if payload["blocks"] is not None:
        lines.append(f"blocks: {_blocks_text(payload['blocks'])}")
        lines.append(f"block sums: {' '.join(str(sum(b)) for b in payload['blocks'])}")
        lines.append(f"graph constant: {payload['graph_constant']}")
    else:
        lines.append(f"verdict: {payload['detail']['verdict']}")
    st = payload["stats"]
    lines.append(
        f"stats: nodes={st['nodes']} search_restarts={st['search_restarts']} "
        f"elapsed={st['elapsed']}s"
    )
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace) -> int:
    payload, code = _solve_payload(args, _instance_from_args(args))
    _emit(args, payload, _solve_text)
    return code


def _label_text(payload: dict[str, Any]) -> str:
    lines = _instance_header(payload) + [f"status: {payload['status']}"]
    if payload["blocks"] is not None:
        for i, part in enumerate(payload["blocks"]):
            lines.append(f"part {i}: {_blocks_text([part])} (size {len(part)})")
        lines.append(f"every open neighborhood sums to: {payload['graph_constant']}")
    else:
        lines.append(f"verdict: {payload['detail']['verdict']}")
    return "\n".join(lines)


def cmd_label(args: argparse.Namespace) -> int:
    payload, code = _solve_payload(args, _instance_from_args(args))
    _emit(args, payload, _label_text)
    return code


def _read_partition(args: argparse.Namespace) -> Partition:
    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("verify input is nested too deeply") from None
    if not isinstance(data, dict) or "blocks" not in data or "n" not in data:
        raise ValueError('verify input must be a JSON object with "n" and "blocks"')
    n, blocks = data["n"], data["blocks"]
    if blocks is None:
        raise ValueError("input has no blocks (was the instance infeasible?)")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError('"blocks" must be a list of lists of labels')
    # Partition rejects a float or bool n or label (JSON 1.0, 1e400, true).
    return Partition.from_blocks(n, blocks)


def _verify_text(payload: dict[str, Any]) -> str:
    detail = payload["detail"]
    lines = [f"mode: {detail['mode']} (n={payload['n']}, k={payload['k']})"]
    if payload["status"] == "magic":
        lines.append(f"magic: yes, constant {payload['graph_constant']}")
        if detail["degenerate"]:
            lines.append("note: k=3 closed neighborhoods cover all vertices; constant is forced")
    else:
        x, y = detail["witness"]
        lines.append(f"magic: no, witness vertices {x} and {y}")
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    p = _read_partition(args)
    check = (verify_closed_magic_cycle if args.closed else verify_distance_magic)(p)
    payload = _base_payload(p.n, sorted(len(b) for b in p.blocks))
    payload["status"] = "magic" if check.is_magic else "not_magic"
    payload["graph_constant"] = check.constant
    payload["detail"] = {
        "mode": "closed" if args.closed else "open",
        "witness": list(check.witness) if check.witness else None,
        "degenerate": check.degenerate,
    }
    _emit(args, payload, _verify_text)
    return EXIT_OK if check.is_magic else EXIT_NEGATIVE


def _emit_report(args: argparse.Namespace, report: SweepReport, title: str) -> int:
    """Write a sweep or symmetric report as JSON or text, and return its exit code.

    The code is 1 on any mismatch, else 3 on an unresolved (budget) row,
    else 0: a report with both a mismatch and an unresolved row exits 1.
    """
    def text(_payload: dict[str, Any]) -> str:
        # From the report, not its JSON form: a row's repr keeps its tuples.
        cfg = " ".join(f"{k}={v}" for k, v in report.config.items() if k != "sweep")
        lines = [
            f"{title}: {cfg}",
            f"rows: {report.totals['rows']}  mismatches: {report.totals['mismatches']}  "
            f"budget: {report.totals['budget']}",
        ]
        for key in sorted(report.totals):
            if key.startswith("verdict_"):
                lines.append(f"  {key[8:]}: {report.totals[key]}")
        for row in report.mismatches:
            lines.append(f"counterexample candidate: {row!r}")
        if report.budget_rows:
            lines.append(f"unresolved rows (budget exhausted): {report.budget_rows}")
        return "\n".join(lines)

    _emit(args, report.to_jsonable(), text)
    if report.totals["mismatches"]:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE if report.budget_rows else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    # sweep rejects a k below 1 (exit 2)
    k_set = set(_parse_ints(args.k, "k"))
    report = sweep(
        n_max=args.nmax,
        k_set=k_set,
        min_part=args.min_part,
        budget=args.budget,
        workers=args.workers,
    )
    return _emit_report(args, report, "sweep")


def cmd_symmetric(args: argparse.Namespace) -> int:
    report = check_symmetric(args.max_total, budget=args.budget, workers=args.workers)
    return _emit_report(args, report, "symmetric")


def _add_output_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("-o", "--output", type=str, default=None, help="write to file instead of stdout")


def _add_instance_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="ground-set size")
    parser.add_argument("--k", type=int, default=None, help="number of blocks (must match sizes)")
    parser.add_argument("--sizes", type=str, required=True, help="comma-separated block sizes")


def _add_search_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=SearchParams.seed, help="same seed, same answer")
    parser.add_argument(
        "--max-restarts", type=int, default=SearchParams.max_restarts,
        help="shuffled-order runs after the first; the last takes the rest of the budget",
    )
    parser.add_argument("--exact-budget", type=int, default=SearchParams.exact_node_budget)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equipart",
        description="Equitable partitions of [n] and distance magic labelings "
        "of complete multipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="feasibility verdict for an instance")
    _add_instance_opts(check)
    _add_output_opts(check)
    check.set_defaults(handler=cmd_check)

    slv = sub.add_parser("solve", help="produce an equitable partition")
    _add_instance_opts(slv)
    _add_search_opts(slv)
    _add_output_opts(slv)
    slv.set_defaults(handler=cmd_solve)

    label = sub.add_parser("label", help="solve and print the vertex labeling")
    _add_instance_opts(label)
    _add_search_opts(label)
    _add_output_opts(label)
    label.set_defaults(handler=cmd_label)

    verify = sub.add_parser("verify", help="verify a partition from JSON input")
    verify.add_argument("--input", type=str, default="-", help="JSON file, or - for stdin")
    verify.add_argument(
        "--closed", action="store_true",
        help="check the closed condition on the cycle-of-cliques instead",
    )
    _add_output_opts(verify)
    verify.set_defaults(handler=cmd_verify)

    swp = sub.add_parser("sweep", help="condition-vs-oracle sweep over an instance box")
    swp.add_argument("--nmax", type=int, required=True)
    swp.add_argument("--k", type=str, required=True, help="comma-separated k values")
    swp.add_argument("--min-part", type=int, default=2)
    swp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    swp.add_argument("--workers", type=int, default=1)
    _add_output_opts(swp)
    swp.set_defaults(handler=cmd_sweep)

    sym = sub.add_parser("symmetric", help="equal-part-size family vs the parity rule")
    sym.add_argument("--max-total", type=int, required=True)
    sym.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    sym.add_argument("--workers", type=int, default=1)
    _add_output_opts(sym)
    sym.set_defaults(handler=cmd_symmetric)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
