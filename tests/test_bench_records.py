"""Committed benchmark records (BENCH_*.json) carry what a perf claim rests on.

Each record names the parent commit it was measured against and the
Python version, and for every workload it lists it holds the parent and
change medians of every end-to-end metric that BENCHMARK.json declares.
"""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_parent_and_python(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{7,40}", record["revs"]["parent"])
    assert re.fullmatch(r"3\.\d+\.\d+", record["python"])


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_holds_both_medians_of_every_end_to_end_metric(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert workloads
    for name, workload in workloads.items():
        for metric in END_TO_END:
            entry = workload["end_to_end"][metric]
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, Real) and not isinstance(median, bool), (name, metric, side)
