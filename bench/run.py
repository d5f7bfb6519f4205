"""Benchmark for equipart: one workload per run, or all four in turn.

    python3 bench/run.py --workload k2_roundtrip --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

A run times repeated passes over the workload's seeded instances for
about --seconds seconds, checks every answer outside the timed region,
and prints its metrics; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every second pass is
traced (bench/tracer.py) and the metrics are the per-layer ones plus the
tracing overhead.  Times are in reference seconds (bench/speed.py); the
wall-clock figures are printed beside them.  With --workload all each
workload runs in its own child process, one at a time, and the results
go to .bench_out/.

equipart is imported from src/ next to this directory; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import speed
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 9
MAX_PASSES = 1000

# Setup probe: a fresh interpreter imports equipart and generates the
# inputs, then samples the speed kernel to scale that time.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import equipart.cli, equipart.lab, workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
wall = time.perf_counter() - t0
import speed
print(wall, wall * speed.reference_factor([speed.kernel() for _ in range(100)]))
"""


class SetupError(Exception):
    pass


def import_equipart():
    if not os.path.isfile(os.path.join(SRC, "equipart", "__init__.py")):
        raise SetupError(f"no equipart package under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("equipart")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"equipart was imported from {package.__file__}, not from {SRC}")
    # The package re-exports the function `feasibility` under the name of its
    # module, so the modules are taken from the import system, not the package.
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"equipart.{name}") for name in tracer.MODULES})


def git_rev() -> str:
    """HEAD of the checkout's git directory, read from files; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds of SETUP_REPS fresh set-ups."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, BENCH_DIR, workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall, ref = out.stdout.split()
        times.append((float(wall), float(ref)))
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Pass:
    """One pass: (spec, start, end) per op, its span range, and its times."""

    def __init__(self, traced: bool, first_span: int) -> None:
        self.traced = traced
        self.spans = slice(first_span, first_span)
        self.ops: list[tuple[dict, float, float]] = []
        self.wall = 0.0
        self.scaled: list[float] = []


class Run:
    """Timed passes of one workload, answer checks, and the resulting metrics."""

    def __init__(self, workload: str, ep, specs: list[dict], work_dir: str,
                 trace: tracer.Tracer | None):
        self.wl = workloads.WORKLOADS[workload]
        self.ep = ep
        self.specs = specs
        self.work_dir = work_dir
        self.tracer = trace
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.unresolved = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def one_pass(self, traced: bool) -> Pass:
        tr = self.tracer
        this = Pass(traced, len(tr.spans) if tr else 0)
        if tr is not None:
            tr.enabled = traced
            tr.pass_index = len(self.passes)
        answers = []
        for i, spec in enumerate(self.specs):
            if tr is not None:
                tr.op_index = i
            start = time.perf_counter()
            try:
                raw, error = self.wl.run_op(self.ep, spec, self.work_dir), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                raw, error = None, f"{spec['key']}: {type(exc).__name__}: {exc}"
            this.ops.append((spec, start, time.perf_counter()))
            answers.append((spec, raw, error))
        this.wall = this.ops[-1][2] - this.ops[0][1]
        if tr is not None:
            tr.enabled = False
            this.spans = slice(this.spans.start, len(tr.spans))
        for spec, raw, error in answers:
            self.attempted += spec["units"]
            if error is not None:
                self.failed += spec["units"]
                self.errors.append(error)
            else:
                problems, failed, unresolved = self.wl.check(spec, raw)
                self.problems.extend(problems)
                self.failed += failed
                self.unresolved += unresolved
        return this

    def run(self, seconds: float) -> None:
        """Passes until the next one would end past `seconds` of timed wall time."""
        tracing = self.tracer is not None
        with speed.SpeedProbe() as probe:
            while True:
                walls = [p.wall for p in self.passes]
                if walls and (len(walls) >= MAX_PASSES or (
                        sum(walls) + statistics.median(walls) > seconds
                        and (len(walls) > 1 or not tracing))):
                    break
                self.passes.append(self.one_pass(traced=tracing and len(walls) % 2 == 1))
            time.sleep(speed.WINDOW_S)  # let the last op's sampling window fill
        for p in self.passes:
            p.scaled = [probe.scaled(start, end) for _, start, end in p.ops]

    def untraced(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    def end_to_end(self, setup_s: float) -> dict:
        passes = self.untraced()
        samples = []
        for p in passes:
            for (spec, _, _), took in zip(p.ops, p.scaled):
                # A sweep command's rows are not timed one by one: each row
                # is given its command's mean row time.
                samples.extend([took / spec["units"]] * spec["units"])
        return {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(sum(p.scaled) for p in passes), "s"),
            "op_p50_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def extra(self) -> dict:
        """Printed beside the gated metrics; these can be 0 or rest on few samples."""
        passes = self.untraced()
        ops = [took for p in passes for took in p.scaled]
        individually = all(spec["units"] == 1 for spec in self.specs)
        unsettled = self.failed + self.unresolved
        return {
            "op_p90_s": (statistics.quantiles(ops, n=10)[-1], "s")
            if individually and len(ops) >= 100 else None,
            "ok_ops_per_s": ((self.attempted - unsettled) / sum(ops), "1/s"),
            "fail_ratio": (unsettled / self.attempted, "ratio"),
            "run_wall_s": (statistics.median(p.wall for p in passes), "s"),
        }

    def per_layer(self) -> dict:
        per_pass = []
        for p in self.passes:
            if p.traced:
                factors = [took / (end - start) for (_, start, end), took in zip(p.ops, p.scaled)]
                per_pass.append(tracer.layer_metrics(self.tracer.spans[p.spans], factors))
        values = tracer.median_metrics(per_pass)
        values["trace.overhead_s"] = (
            statistics.median(sum(p.scaled) for p in self.passes if p.traced)
            - statistics.median(sum(p.scaled) for p in self.untraced()))
        return {key: (value, tracer.unit(key)) for key, value in values.items()}


def run_one(args) -> int:
    try:
        ep = import_equipart()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": wl.settings, "git_rev": git_rev(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "setup_reps": SETUP_REPS,
        "ref_kernel_s": speed.REF_KERNEL_S,
    }
    print("run: " + json.dumps(env, sort_keys=True))
    setup = measure_setup(args.workload, args.seed)
    specs = wl.generate(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    trace = tracer.Tracer() if args.trace else None
    try:
        if trace is not None:
            trace.install(ep)
        run = Run(args.workload, ep, specs, work_dir, trace)
        run.run(args.seconds)
    finally:
        if trace is not None:
            trace.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    for label, values in (("pass wall s", [p.wall for p in run.passes]),
                          ("pass reference s", [sum(p.scaled) for p in run.passes])):
        q1, q2, q3 = quartiles(values)
        print(f"{label}: median {q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}] over {len(values)} passes "
              f"({sum(p.traced for p in run.passes)} traced), {len(specs)} ops per pass")
    print("setup wall s: " + " ".join(f"{wall:.4f}" for wall, _ in setup))
    for line in run.errors[:10] + run.problems[:10]:
        print(f"FAILED: {line}", file=sys.stderr)
    if run.problems:
        print(f"wrong answers: {len(run.problems)}", file=sys.stderr)
    if args.trace:
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        trace.write(span_file)
        print(f"spans: {len(trace.spans)} written to {os.path.relpath(span_file, ROOT)}")
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(statistics.median(ref for _, ref in setup))
        for key, value in run.extra().items():
            if value is None:
                print(f"{key}: not reported (fewer than 100 individually timed ops)")
            else:
                print(f"{key}: {value[0]:.6g} {value[1]}")
        print(f"attempted {run.attempted}, failed {run.failed}, unresolved {run.unresolved}")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: int, trace: int, echo=True) -> dict:
    """Run one workload in a child process; return its result and run record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    env = json.loads(lines[0][len("run: "):]) if lines[0].startswith("run: ") else {}
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "result": json.loads(lines[-1])}


def run_all(args) -> int:
    records = []
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        records.append(run_child(name, args.seed, args.seconds, args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"all-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
    print(f"== results written to {os.path.relpath(path, ROOT)}")
    return 0 if all(r["result"]["correct"] for r in records) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
