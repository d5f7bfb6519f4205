"""Command-line front end: check, solve, label, verify, sweep, symmetric.

Every command renders the same facts in text or JSON (--format).  The
JSON schema uses the stable field names n, k, sizes, status, magic_sum,
blocks, graph_constant, stats, plus a detail object for verdict- or
witness-specific facts.  verify reads the JSON that solve emits.

Exit codes: 0 solved/feasible/magic or clean sweep; 1 infeasible, not
magic, or mismatches present; 2 usage or input error; 3 inconclusive
(conjectured verdict, budget exhaustion, or unresolved sweep rows).

No colors and no environment configuration are used, so NO_COLOR is
honored trivially.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .core import Instance, Partition, magic_sum
from .feasibility import FeasibilityStatus, Verdict, feasibility, prefix_top_sum
from .graphs import verify_closed_magic_cycle, verify_distance_magic
from .lab import SweepReport, check_symmetric, sweep
from .solver import DEFAULT_NODE_BUDGET, SearchParams, SolveStatus, solve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"sizes must be comma-separated integers, got {text!r}")


def _instance_from_args(args: argparse.Namespace) -> Instance:
    sizes = _parse_sizes(args.sizes)
    if args.k is not None and args.k != len(sizes):
        raise ValueError(f"k={args.k} but {len(sizes)} sizes were given")
    # Instance rejects non-positive sizes and sizes not summing to n (exit 2).
    # Input order is not significant; sizes are normalized ascending.
    return Instance.from_sizes(args.n, sizes)


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: str) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rendered = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


def _verdict_detail(inst: Instance, verdict: Verdict) -> dict[str, Any] | None:
    if verdict.status is FeasibilityStatus.INFEASIBLE_CONDITION:
        j = verdict.failing_index
        assert j is not None and verdict.s is not None
        lhs = prefix_top_sum(inst.n, inst.prefix_sums[j - 1])
        return {"failing_index": j, "prefix_sum": lhs, "required": j * verdict.s}
    if verdict.status is FeasibilityStatus.INFEASIBLE_SIZE_ONE:
        return {"reason": verdict.reason}
    return None


def _verdict_line(inst: Instance, verdict: Verdict) -> str:
    status = verdict.status
    if status is FeasibilityStatus.INFEASIBLE_DIVISIBILITY:
        return f"infeasible: {inst.n}({inst.n}+1)/2 is not divisible by k={inst.k}"
    if status is FeasibilityStatus.INFEASIBLE_CONDITION:
        detail = _verdict_detail(inst, verdict)
        assert detail is not None
        return (
            f"infeasible: condition fails at j={detail['failing_index']} "
            f"({detail['prefix_sum']} < {detail['required']})"
        )
    if status is FeasibilityStatus.INFEASIBLE_SIZE_ONE:
        return f"infeasible: {verdict.reason}"
    if status is FeasibilityStatus.FEASIBLE_PROVEN:
        return "feasible (proven)"
    return "condition holds (conjectured sufficient for k >= 5)"


def _base_payload(inst: Instance) -> dict[str, Any]:
    return {
        "n": inst.n,
        "k": inst.k,
        "sizes": list(inst.sizes),
        "status": None,
        "magic_sum": magic_sum(inst.n, inst.k),
        "blocks": None,
        "graph_constant": None,
        "stats": None,
        "detail": None,
    }


def _instance_header(inst: Instance) -> list[str]:
    lines = [f"instance: n={inst.n} k={inst.k} sizes={','.join(map(str, inst.sizes))}"]
    s = magic_sum(inst.n, inst.k)
    lines.append(f"magic sum: {s if s is not None else 'not integral'}")
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    verdict = feasibility(inst)
    payload = _base_payload(inst)
    payload["status"] = verdict.status.value
    payload["detail"] = _verdict_detail(inst, verdict)
    text = "\n".join(_instance_header(inst) + [f"verdict: {_verdict_line(inst, verdict)}"])
    _emit(args, payload, text)
    if verdict.status is FeasibilityStatus.FEASIBLE_PROVEN:
        return EXIT_OK
    if verdict.status is FeasibilityStatus.CONDITION_HOLDS_CONJECTURED:
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def _search_params(args: argparse.Namespace) -> SearchParams:
    return SearchParams(
        seed=args.seed,
        max_restarts=args.max_restarts,
        exact_node_budget=args.exact_budget,
    )


def _solve_payload(args: argparse.Namespace, inst: Instance) -> tuple[dict[str, Any], int]:
    result = solve(inst, _search_params(args))
    payload = _base_payload(inst)
    payload["status"] = result.status.value
    payload["stats"] = {
        "nodes": result.stats.nodes,
        "swaps": result.stats.swaps,
        "restarts": result.stats.restarts,
        "elapsed": round(result.stats.elapsed, 6),
    }
    if result.status is SolveStatus.SOLVED:
        assert result.partition is not None
        payload["blocks"] = [list(b) for b in result.partition.blocks]
        total = inst.n * (inst.n + 1) // 2
        payload["graph_constant"] = total - result.verdict.s
        code = EXIT_OK
    else:
        payload["detail"] = {"verdict": result.verdict.status.value}
        if result.verdict.infeasible:
            detail = _verdict_detail(inst, result.verdict)
            if detail:
                payload["detail"].update(detail)
            code = EXIT_NEGATIVE
        else:
            code = EXIT_INCONCLUSIVE
    return payload, code


def _blocks_text(blocks: list[list[int]]) -> str:
    return " ".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    payload, code = _solve_payload(args, inst)
    lines = _instance_header(inst) + [f"status: {payload['status']}"]
    if payload["blocks"] is not None:
        lines.append(f"blocks: {_blocks_text(payload['blocks'])}")
        lines.append(f"block sums: {' '.join(str(sum(b)) for b in payload['blocks'])}")
        lines.append(f"graph constant: {payload['graph_constant']}")
    elif payload["detail"]:
        lines.append(f"verdict: {payload['detail']['verdict']}")
    st = payload["stats"]
    lines.append(
        f"stats: nodes={st['nodes']} swaps={st['swaps']} "
        f"restarts={st['restarts']} elapsed={st['elapsed']}s"
    )
    _emit(args, payload, "\n".join(lines))
    return code


def cmd_label(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    payload, code = _solve_payload(args, inst)
    lines = _instance_header(inst) + [f"status: {payload['status']}"]
    if payload["blocks"] is not None:
        for i, part in enumerate(payload["blocks"]):
            lines.append(f"part {i}: {{{','.join(map(str, part))}}} (size {len(part)})")
        lines.append(f"every open neighborhood sums to: {payload['graph_constant']}")
    elif payload["detail"]:
        lines.append(f"verdict: {payload['detail']['verdict']}")
    _emit(args, payload, "\n".join(lines))
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
    # JSON numbers may arrive as floats and true/false as bools (an int
    # subclass); only genuine integers are labels.
    if type(n) is not int:
        raise ValueError(f'"n" must be an integer, got {n!r}')
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError('"blocks" must be a list of lists of labels')
    if not all(type(x) is int for b in blocks for x in b):
        raise ValueError("labels must be integers")
    return Partition.from_blocks(n, blocks)


def cmd_verify(args: argparse.Namespace) -> int:
    p = _read_partition(args)
    if args.closed:
        check = verify_closed_magic_cycle(p)
        mode = "closed"
    else:
        check = verify_distance_magic(p)
        mode = "open"
    payload = {
        "n": p.n,
        "k": p.k,
        "sizes": sorted(len(b) for b in p.blocks),
        "status": "magic" if check.is_magic else "not_magic",
        "magic_sum": magic_sum(p.n, p.k),
        "blocks": [list(b) for b in p.blocks],
        "graph_constant": check.constant,
        "stats": None,
        "detail": {
            "mode": mode,
            "witness": list(check.witness) if check.witness else None,
            "degenerate": check.degenerate,
        },
    }
    lines = [f"mode: {mode} (n={p.n}, k={p.k})"]
    if check.is_magic:
        lines.append(f"magic: yes, constant {check.constant}")
        if check.degenerate:
            lines.append("note: k=3 closed neighborhoods cover all vertices; constant is forced")
    else:
        x, y = check.witness  # type: ignore[misc]
        lines.append(f"magic: no, witness vertices {x} and {y}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if check.is_magic else EXIT_NEGATIVE


def _report_exit(report: SweepReport) -> int:
    if report.totals["mismatches"] > 0:
        return EXIT_NEGATIVE
    if report.budget_rows > 0:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _report_text(report: SweepReport, title: str) -> str:
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


def cmd_sweep(args: argparse.Namespace) -> int:
    k_set = {int(tok) for tok in args.k.split(",")}
    if any(k < 1 for k in k_set):
        raise ValueError(f"k values must be >= 1, got {sorted(k_set)}")
    report = sweep(
        n_max=args.nmax,
        k_set=k_set,
        min_part=args.min_part,
        budget=args.budget,
        workers=args.workers,
    )
    _emit(args, report.to_jsonable(), _report_text(report, "sweep"))
    return _report_exit(report)


def cmd_symmetric(args: argparse.Namespace) -> int:
    report = check_symmetric(args.max_total, budget=args.budget, workers=args.workers)
    _emit(args, report.to_jsonable(), _report_text(report, "symmetric"))
    return _report_exit(report)


def _add_output_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("-o", "--output", type=str, default=None, help="write to file instead of stdout")


def _add_instance_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="ground-set size")
    parser.add_argument("--k", type=int, default=None, help="number of blocks (must match sizes)")
    parser.add_argument("--sizes", type=str, required=True, help="comma-separated block sizes")


def _add_search_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="0 = fully deterministic path")
    parser.add_argument("--max-restarts", type=int, default=64)
    parser.add_argument("--exact-budget", type=int, default=DEFAULT_NODE_BUDGET)


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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
