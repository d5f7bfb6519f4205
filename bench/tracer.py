"""Outside-in tracer: spans around equipart's public functions, from bench code.

install() replaces every public module-level function of the six modules,
plus Partition.from_blocks, with a wrapper that records a span, at every
name that refers to it in any of the six modules.  So a call is caught
where the caller looks the name up: equipart.cli.solve and
equipart.solver.solve are the same wrapper, span name "solver.solve".
Nothing inside src/ changes and uninstall() puts the originals back.

A span is (id, parent, name, start, end, pass, op, attrs).  Spans stay in
memory and are written as JSON lines by write().  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

MODULES = ("cli", "core", "feasibility", "solver", "graphs", "lab")


def _local_search_pre(args, kwargs):
    stats = kwargs.get("stats", args[3] if len(args) > 3 else None)
    return None if stats is None else (stats, stats.swaps, stats.restarts)


def _local_search_post(args, kwargs, result, before):
    if before is None:
        return None
    stats, swaps, restarts = before
    return {"swaps": stats.swaps - swaps, "restarts": stats.restarts - restarts}


def _solve_exact_post(args, kwargs, result, before):
    return {"nodes": result.nodes, "resolved": result.status.value != "budget"}


def _solve_post(args, kwargs, result, before):
    return {"budget_exhausted": result.status.value == "budget_exhausted"}


def _sweep_post(args, kwargs, result, before):
    return {"rows": result.totals["rows"], "budget_rows": result.budget_rows}


def _cli_main_pre(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            return argv[argv.index(flag) + 1]
    return None


def _cli_main_post(args, kwargs, result, path):
    return {"out_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


HOOKS = {
    "solver.local_search": (_local_search_pre, _local_search_post),
    "solver.solve": (None, _solve_post),
    "solver.solve_exact": (None, _solve_exact_post),
    "lab.sweep": (None, _sweep_post),
    "cli.main": (_cli_main_pre, _cli_main_post),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.pass_index = 0
        self.op_index = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Return fn wrapped so that each call records a span while enabled."""
        pre, post = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                      self.pass_index, self.op_index, None]
            spans.append(record)
            before = pre(args, kwargs) if pre else None
            stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if post:
                record[7] = post(args, kwargs, result, before)
            return result

        return traced

    def install(self, ep) -> int:
        """Wrap the six modules' public functions; return how many were wrapped."""
        modules = [getattr(ep, m) for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrapped[id(value)] = self.span(f"{short}.{value.__qualname__}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        partition = ep.core.Partition
        original = partition.__dict__["from_blocks"]
        self._undo.append((partition, "from_blocks", original))
        partition.from_blocks = classmethod(self.span("core.Partition.from_blocks", original.__func__))
        return len(wrapped) + 1

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "pass", "op", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def layer_metrics(spans: list[list], factors: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics of one pass's spans.

    Self times are in seconds, each multiplied by factors[op] of the op the
    span belongs to when factors are given (reference seconds).
    """
    child_time = [0.0] * len(spans)
    base = spans[0][0] if spans else 0
    for record in spans:
        if record[1] is not None and record[1] >= base:
            child_time[record[1] - base] += record[4] - record[3]
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    count: dict[str, int] = {}
    layer_entries: dict[str, int] = {}
    totals = {"swaps": 0, "restarts": 0, "nodes": 0, "resolved_nodes": 0, "rows": 0,
              "budget_rows": 0, "out_bytes": 0, "budget_exhausted": 0}
    for i, (_, parent, name, start, end, _, op, attrs) in enumerate(spans):
        own = (end - start - child_time[i]) * (factors[op] if factors else 1.0)
        layer = name.split(".", 1)[0]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        count[name] = count.get(name, 0) + 1
        parent_layer = None if parent is None or parent < base else spans[parent - base][2].split(".", 1)[0]
        if parent_layer != layer:
            layer_entries[layer] = layer_entries.get(layer, 0) + 1
        if attrs:
            for key, value in attrs.items():
                if key in totals:
                    totals[key] += value
            if attrs.get("resolved"):
                totals["resolved_nodes"] += attrs["nodes"]

    def own(name):
        return self_by_name.get(name, 0.0)

    ls, exact = own("solver.local_search"), own("solver.solve_exact")
    return {
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "cli.out_mb": totals["out_bytes"] / 1e6,
        "core.partition_build_s": own("core.Partition.from_blocks"),
        "core.partition_builds": count.get("core.Partition.from_blocks", 0),
        "graphs.labeling_s": own("graphs.labeling_from_partition"),
        "graphs.verify_open_s": own("graphs.verify_distance_magic"),
        "graphs.verify_closed_s": own("graphs.verify_closed_magic_cycle"),
        "feasibility.verdict_s": self_by_layer.get("feasibility", 0.0),
        "feasibility.calls": layer_entries.get("feasibility", 0),
        "solver.solve_s": own("solver.solve"),
        "solver.solve_k2_s": own("solver.solve_k2"),
        "solver.local_search_s": ls,
        "solver.swaps": totals["swaps"],
        "solver.restarts": totals["restarts"],
        "solver.budget_exhausted": totals["budget_exhausted"],
        "solver.swap_us": ls / totals["swaps"] * 1e6 if totals["swaps"] else 0.0,
        "solver.greedy_init_s": own("solver.greedy_init"),
        "solver.greedy_inits": count.get("solver.greedy_init", 0),
        "solver.exact_s": exact,
        "solver.exact_calls": count.get("solver.solve_exact", 0),
        "solver.exact_nodes": totals["nodes"],
        "solver.exact_knodes_per_s": totals["nodes"] / exact / 1e3 if exact else 0.0,
        "solver.exact_useful_node_ratio":
            totals["resolved_nodes"] / totals["nodes"] if totals["nodes"] else 0.0,
        "lab.self_s": self_by_layer.get("lab", 0.0),
        "lab.rows": totals["rows"],
        "lab.budget_rows": totals["budget_rows"],
        "trace.spans": len(spans),
    }


UNITS = {"cli.out_mb": "MB", "solver.swap_us": "us", "solver.exact_knodes_per_s": "1000/s",
         "solver.exact_useful_node_ratio": "ratio"}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
