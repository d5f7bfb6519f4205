"""Steadiness report and compare mode over repeated benchmark runs.

    python3 bench/steady.py run NAME [--first-seed 1]
    python3 bench/steady.py report NAME
    python3 bench/steady.py compare BASE NEW

`run` runs every workload once per seed, for SEEDS seeds from --first-seed
on, each for run_seconds of BENCHMARK.json in its own child process, one at
a time, and saves the results to .bench_out/steady-NAME.json after every
run.  `report` gives each metric's median and quartiles over the runs, and
its spread (q3 - q1) / median against the bound that BENCHMARK.json fixes;
it exits 1 if a spread exceeds its bound or a run gave a wrong answer.
`compare` checks that NEW's median of every end-to-end metric is no worse
than BASE's by more than its bound; it exits 1 if one is, if NEW lacks a
workload or metric that BASE has, or if a run of NEW gave a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run as bench
import workloads

SEEDS = 10

def spec() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def path_of(name: str) -> str:
    return os.path.join(bench.OUT_DIR, f"steady-{name}.json")


def load(name: str) -> list[dict]:
    with open(path_of(name), encoding="utf-8") as handle:
        return json.load(handle)


def by_metric(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one per run."""
    out: dict[str, dict[str, list[float]]] = {}
    for record in records:
        metrics = out.setdefault(record["workload"], {})
        for key, entry in record["result"]["metrics"].items():
            metrics.setdefault(key, []).append(entry["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, q1, q3 and spread (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(name: str) -> int:
    records = load(name)
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    bad = 0
    for workload, metrics in by_metric(records).items():
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        wrong = sum(not r["result"]["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {sorted(r['seed'] for r in runs)}; "
              f"failed {failed}/{attempted} ops; runs with wrong answers: {wrong}")
        for key, values in metrics.items():
            med, q1, q3, spread = summary(values)
            bound = bounds.get(key)
            if bound is None:
                verdict = ""
            else:
                verdict = f"bound {bound}: " + (
                    "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
                bad += spread > bound
            print(f"  {key:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}  {verdict}")
        bad += wrong
    return 1 if bad else 0


def compare(base: str, new: str) -> int:
    a, b = by_metric(load(base)), by_metric(load(new))
    bad = 0
    for record in load(new):
        if not record["result"]["correct"]:
            print(f"{record['workload']} seed {record['seed']}: wrong answers in {new}")
            bad += 1
    for metric in spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a:
            if name not in a[workload]:
                continue
            if name not in b.get(workload, {}):
                print(f"{workload:16s} {name:12s} missing from {new}")
                bad += 1
                continue
            ma, mb = statistics.median(a[workload][name]), statistics.median(b[workload][name])
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "WORSE" if worse > bound else "ok"
            bad += worse > bound
            print(f"{workload:16s} {name:12s} {ma:.6g} -> {mb:.6g}  worse by {worse:+.3f} "
                  f"(bound {bound})  {verdict}")
    return 1 if bad else 0


def run_many(args) -> int:
    seconds = spec()["run_seconds"]
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    records = []
    for name in workloads.WORKLOADS:
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            record = bench.run_child(name, seed, seconds, 0, echo=False)
            records.append(record)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in record["result"]["metrics"].items())
            print(f"{name} seed {seed}: {values}", flush=True)
            with open(path_of(args.name), "w", encoding="utf-8") as handle:
                json.dump(records, handle, indent=1)
    return report(args.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help=f"run every workload once per seed, {SEEDS} seeds")
    r.add_argument("name")
    r.add_argument("--first-seed", type=int, default=1)
    p = sub.add_parser("report", help="median, quartiles and spread of a saved set")
    p.add_argument("name")
    c = sub.add_parser("compare", help="check NEW against BASE with the bounds")
    c.add_argument("base")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_many(args)
    if args.command == "report":
        return report(args.name)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
