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
string, and so is the text form.  A block, in JSON or text, is written
one %-format per run of at most 32,768 of its labels; every other value
goes through one shared JSON encoder.  verify reads the JSON that solve
emits, in this layout or any other, and builds its partition from the
parsed blocks one at a time, letting go of each once it is copied.

Exit codes: 0 solved/feasible/magic or clean sweep; 1 infeasible, not
magic, or mismatches present; 2 usage or input error; 3 inconclusive
(conjectured verdict, budget exhaustion, or unresolved sweep rows).  The
code is read off the payload: an instance command's status through one
table, so a solve or label exits by its result, not the verdict
(proven_infeasible exits 1 even on a conjectured verdict, budget_exhausted
3); a sweep or symmetric report's totals, where a mismatch wins over an
unresolved row (exit 1).  A reader that closes standard output early does
not change the code: the rest of the output is dropped.

No colors and no environment configuration are used, so NO_COLOR is
honored trivially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Any, Callable, Iterable, Iterator, TextIO

from .core import Instance, Partition, magic_sum
from .feasibility import FeasibilityStatus, Verdict, feasibility, prefix_top_sum
from .graphs import verify_closed_magic_cycle, verify_distance_magic
from .lab import SweepReport, check_symmetric, sweep
from .solver import DEFAULT_NODE_BUDGET, SearchParams, SolveStatus, solve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

#: The exit code of each status an instance command writes, with no default:
#: solve and label's, verify's, then check's.
_EXIT_BY_STATUS = {
    "solved": EXIT_OK, "proven_infeasible": EXIT_NEGATIVE, "budget_exhausted": EXIT_INCONCLUSIVE,
    "magic": EXIT_OK, "not_magic": EXIT_NEGATIVE, "feasible_proven": EXIT_OK,
    "infeasible_divisibility": EXIT_NEGATIVE, "infeasible_condition": EXIT_NEGATIVE,
    "infeasible_size_one": EXIT_NEGATIVE, "condition_holds_conjectured": EXIT_INCONCLUSIVE,
}


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
_RUN = 2**15  # labels per %-format: a block's text is held a run at a time, never whole


def _block_runs(block, sep: str, head: str, tail: str) -> Iterator[str]:
    """The labels of block between head and tail, sep between them, in pieces.

    Each piece is one %-format of %r slots over a run of at most _RUN
    labels, with no str per label, so the block's whole text is never held
    at once; head opens the first piece and tail closes the last (neither
    holds a %).  %r of a genuine int is its decimal text, which is also its
    JSON text; Partition holds no other label.
    """
    slot, start = "%r" + sep, 0
    while len(block) - start > _RUN:
        yield (head + slot * _RUN) % tuple(block[start:start + _RUN])
        head, start = "", start + _RUN
    run = tuple(block[start:])
    yield (head + (slot * len(run))[:-len(sep)] + tail) % run


def _write_json(handle: TextIO, payload: dict[str, Any]) -> None:
    """One field per line, keys sorted; a non-empty list puts one item per line.

    The document goes to the handle field by field and item by item, so no
    string of the whole of it is built.  A tuple item is a block of
    genuine ints and goes through _block_runs, with the encoder's ", "
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
                if type(item) is tuple:
                    handle.writelines(_block_runs(item, ", ", "[", "]"))
                else:
                    write(encode(item))
                item_sep = ",\n    "
            write("\n  ]")
        else:
            write(encode(value))
    write("\n}\n")


#: What a command hands main: its payload, and the renderer of its text form.
_Out = tuple[dict[str, Any], Callable[[dict], Iterable[str]]]


def _emit(args: argparse.Namespace, payload: dict[str, Any],
          render: Callable[[dict], Iterable[str]]) -> None:
    """Write the payload as JSON, or the pieces of render(payload) for the text form.

    Only one form is built; a renderer yields its text in pieces, each
    line ended by a newline, and no string of the whole of it is built.
    A reader that closes stdout early (`| head`) ends the writing, not the
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
                handle.writelines(render(payload))
            handle.flush()
        except BrokenPipeError:
            if handle is not sys.stdout:
                raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, handle.fileno())
            os.close(devnull)


def _exit_code(payload: dict[str, Any]) -> int:
    """An instance payload's code is its status's in the one table; a sweep
    or symmetric report's is 1 on a mismatch, else 3 on a budget row, else 0."""
    if "totals" not in payload:
        return _EXIT_BY_STATUS[payload["status"]]
    mismatches, budget = payload["totals"]["mismatches"], payload["totals"]["budget"]
    return EXIT_NEGATIVE if mismatches else EXIT_INCONCLUSIVE if budget else EXIT_OK


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
        f"instance: n={payload['n']} k={payload['k']} sizes={','.join(map(str, payload['sizes']))}\n",
        f"magic sum: {s if s is not None else 'not integral'}\n",
    ]


#: check's verdict line by status, filled from the payload and its detail.
_VERDICT_LINES = {
    "infeasible_divisibility": "infeasible: {n}({n}+1)/2 is not divisible by k={k}",
    "infeasible_condition":
        "infeasible: condition fails at j={failing_index} ({prefix_sum} < {required})",
    "infeasible_size_one": "infeasible: {reason}",
    "feasible_proven": "feasible (proven)",
    "condition_holds_conjectured": "condition holds (conjectured sufficient for k >= 5)",
}


def _check_text(payload: dict[str, Any]) -> Iterator[str]:
    yield from _instance_header(payload)
    line = _VERDICT_LINES[payload["status"]]
    yield f"verdict: {line.format(**payload, **(payload['detail'] or {}))}\n"


def cmd_check(args: argparse.Namespace) -> _Out:
    inst = _instance_from_args(args)
    verdict = feasibility(inst)
    payload = _base_payload(inst.n, inst.sizes)
    payload["status"] = verdict.status.value
    payload["detail"] = _verdict_detail(inst, verdict)
    return payload, _check_text


def cmd_solve(args: argparse.Namespace) -> _Out:
    """solve and label: one answer, rendered by the subparser's own text renderer."""
    inst = _instance_from_args(args)
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
    else:
        payload["detail"] = {
            "verdict": result.verdict.status.value,
            **(_verdict_detail(inst, result.verdict) or {}),
        }
    return payload, args.render


def _blocks_text(blocks) -> Iterator[str]:
    head = "{"
    for block in blocks:
        yield from _block_runs(block, ",", head, "}")
        head = " {"


def _solve_text(payload: dict[str, Any]) -> Iterator[str]:
    yield from _instance_header(payload)
    yield f"status: {payload['status']}\n"
    blocks = payload["blocks"]
    if blocks is not None:
        yield "blocks: "
        yield from _blocks_text(blocks)
        yield f"\nblock sums: {' '.join(str(sum(b)) for b in blocks)}\n"
        yield f"graph constant: {payload['graph_constant']}\n"
    else:
        yield f"verdict: {payload['detail']['verdict']}\n"
    st = payload["stats"]
    yield (f"stats: nodes={st['nodes']} search_restarts={st['search_restarts']} "
           f"elapsed={st['elapsed']}s\n")


def _label_text(payload: dict[str, Any]) -> Iterator[str]:
    yield from _instance_header(payload)
    yield f"status: {payload['status']}\n"
    if payload["blocks"] is not None:
        for i, part in enumerate(payload["blocks"]):
            yield f"part {i}: "
            yield from _blocks_text([part])
            yield f" (size {len(part)})\n"
        yield f"every open neighborhood sums to: {payload['graph_constant']}\n"
    else:
        yield f"verdict: {payload['detail']['verdict']}\n"


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
    # Each parsed list is taken out of the document as it is handed on, so
    # Partition holds its only reference and it is freed once copied; popped
    # from the end of the reversed list, O(1) a block where pop(0) is O(k).
    blocks.reverse()
    return Partition.from_blocks(n, (blocks.pop() for _ in range(len(blocks))))


def _verify_text(payload: dict[str, Any]) -> Iterator[str]:
    detail = payload["detail"]
    yield f"mode: {detail['mode']} (n={payload['n']}, k={payload['k']})\n"
    if payload["status"] == "magic":
        yield f"magic: yes, constant {payload['graph_constant']}\n"
        if detail["degenerate"]:
            yield "note: k=3 closed neighborhoods cover all vertices; constant is forced\n"
    else:
        x, y = detail["witness"]
        yield f"magic: no, witness vertices {x} and {y}\n"


def cmd_verify(args: argparse.Namespace) -> _Out:
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
    return payload, _verify_text


def _report(report: SweepReport, title: str) -> _Out:
    """A sweep or symmetric report's payload, and its text renderer."""
    def text(_payload: dict[str, Any]) -> Iterator[str]:
        # From the report, not its JSON form: a row's repr keeps its tuples.
        cfg = " ".join(f"{k}={v}" for k, v in report.config.items() if k != "sweep")
        yield f"{title}: {cfg}\n"
        yield (f"rows: {report.totals['rows']}  mismatches: {report.totals['mismatches']}  "
               f"budget: {report.totals['budget']}\n")
        for key in sorted(report.totals):
            if key.startswith("verdict_"):
                yield f"  {key[8:]}: {report.totals[key]}\n"
        for row in report.mismatches:
            yield f"counterexample candidate: {row!r}\n"
        if report.totals["budget"]:
            yield f"unresolved rows (budget exhausted): {report.totals['budget']}\n"

    return report.to_jsonable(), text


def cmd_sweep(args: argparse.Namespace) -> _Out:
    # sweep rejects a k below 1 (exit 2)
    k_set = set(_parse_ints(args.k, "k"))
    report = sweep(
        n_max=args.nmax,
        k_set=k_set,
        min_part=args.min_part,
        budget=args.budget,
        workers=args.workers,
    )
    return _report(report, "sweep")


def cmd_symmetric(args: argparse.Namespace) -> _Out:
    report = check_symmetric(args.max_total, budget=args.budget, workers=args.workers)
    return _report(report, "symmetric")


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

    for name, render, help_text in (("solve", _solve_text, "produce an equitable partition"),
                                    ("label", _label_text, "solve and print the vertex labeling")):
        answer = sub.add_parser(name, help=help_text)
        _add_instance_opts(answer)
        _add_search_opts(answer)
        _add_output_opts(answer)
        answer.set_defaults(handler=cmd_solve, render=render)

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
        payload, render = args.handler(args)
        _emit(args, payload, render)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _exit_code(payload)


if __name__ == "__main__":
    sys.exit(main())
