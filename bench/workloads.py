"""The four benchmark workloads: seeded inputs, one timed op, its answer check.

Each workload generates its instances from the seed alone, with no call
into equipart, so the program receives only the generated inputs.  An op
is what the workload times as one unit; `units` is how many ops it counts
for (a sweep command counts one op per row of its box).  `check` runs
outside the timed region and returns (problems, failed, unresolved): a
problem is a wrong answer; a failed op is one that errored, exited
inconclusively, or left a proven-feasible instance unsolved; an unresolved
op is an honest non-answer the workload measures: a k >= 5 instance the
descent gave up on (budget_exhausted), or a sweep row settled on budget or
disagreeing with the prefix condition at k >= 5.
"""

from __future__ import annotations

import json
import math
import os
import random

import certify


def _valid_n(n: int, k: int) -> int:
    """Smallest n' >= n whose magic sum n'(n'+1)/(2k) is integral."""
    while certify.magic_sum(n, k) is None:
        n += 1
    return n


def _min_small_part(n: int) -> int:
    """Smallest p with the p largest labels of [n] reaching s = n(n+1)/4."""
    s = n * (n + 1) // 4
    b = 2 * n + 1
    p = max(2, (b - math.isqrt(b * b - 8 * s)) // 2 - 1)
    while p * n - p * (p - 1) // 2 < s:
        p += 1
    return p


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class K2Roundtrip:
    """CLI solve --format json to a file, then CLI verify of that file."""

    name = "k2_roundtrip"
    settings = {"decades": [4, 6], "strata_per_decade": 4,
                "anchors": [10**4] + [10**5] * 5 + [10**6]}

    def generate(self, seed: int) -> list[dict]:
        # n is log-uniform on [10^4, 10^6): one antithetic pair (u, 1 - u)
        # per quarter decade keeps the total work nearly seed-independent
        # (per half decade, the top pair alone moved a pass by 8%).  The
        # decade points are always included, 10^5 five times (each with its
        # own split), so the median op is an n = 10^5 round trip with five
        # samples per pass: one such op alone varies by about 10%.
        rng = random.Random(f"{self.name}:{seed}")
        ns = list(self.settings["anchors"])
        step = 1 / self.settings["strata_per_decade"]
        lo, hi = self.settings["decades"]
        for i in range(round((hi - lo) / step)):
            u = rng.random()
            for v in (u, 1 - u):
                ns.append(_valid_n(int(10 ** (lo + step * (i + v))), 2))
        specs = []
        for i, n in enumerate(sorted(ns)):
            p1 = rng.randint(_min_small_part(n), n // 2)
            specs.append({"key": f"k2-{i}", "n": n, "sizes": (p1, n - p1), "units": 1})
        return specs

    def run_op(self, ep, spec, work_dir):
        n, (p1, p2) = spec["n"], spec["sizes"]
        solved = os.path.join(work_dir, f"{spec['key']}.json")
        verified = os.path.join(work_dir, f"{spec['key']}.verify.json")
        c1 = ep.cli.main(["solve", "--n", str(n), "--k", "2", "--sizes", f"{p1},{p2}",
                          "--format", "json", "-o", solved])
        c2 = ep.cli.main(["verify", "--input", solved, "--format", "json", "-o", verified])
        return c1, c2, solved, verified

    def check(self, spec, raw):
        c1, c2, solved, verified = raw
        n, sizes = spec["n"], spec["sizes"]
        s = certify.magic_sum(n, 2)
        if c1 == 1:
            return [f"n={n} {sizes}: feasible k = 2 instance reported infeasible"], 1, 0
        if c1 != 0:
            return [], 1, 0  # an error or inconclusive exit: no answer to check
        out = _load_json(solved)
        problems = certify.partition_problems(n, sizes, out.get("blocks"))
        if out.get("graph_constant") != certify.graph_constant(n, s):
            problems.append(f"n={n}: solve graph_constant {out.get('graph_constant')}")
        del out
        if c2 not in (0, 1):
            return problems, 1, 0
        ver = _load_json(verified)
        if c2 != 0 or ver.get("status") != "magic" or ver.get("graph_constant") != certify.graph_constant(n, s):
            problems.append(f"n={n}: verify exited {c2}, {ver.get('status')}, constant {ver.get('graph_constant')}")
        return problems, 0, 0


class DescentProven:
    """solve() on a proven-feasible k in {3, 4} instance, then both verifiers."""

    name = "descent_proven"
    settings = {"instances": 200, "n_range": [100, 200]}

    def generate(self, seed: int) -> list[dict]:
        # n is stratified over n_range (one instance per stratum); k and the
        # boundary push alternate so every stratum block mixes all four kinds.
        rng = random.Random(f"{self.name}:{seed}")
        count = self.settings["instances"]
        lo, hi = self.settings["n_range"]
        width = (hi - lo) / count
        specs = []
        for i in range(count):
            k = 3 + i % 2
            push = (i // 2) % 2 == 1
            n = _valid_n(lo + int((i + rng.random()) * width), k)
            while True:
                cuts = sorted(rng.sample(range(1, n), k - 1))
                sizes = sorted(b - a for a, b in zip([0] + cuts, cuts + [n]))
                if sizes[0] >= 2 and certify.prefix_condition(n, sizes):
                    break
            if push:
                # Move one label from the smallest part to the largest while
                # the prefix condition still predicts feasible.
                while True:
                    moved = sorted([sizes[0] - 1] + sizes[1:-1] + [sizes[-1] + 1])
                    if moved[0] < 2 or not certify.prefix_condition(n, moved):
                        break
                    sizes = moved
            specs.append({"key": f"dp-{i}", "n": n, "sizes": tuple(sizes), "units": 1})
        return specs

    def run_op(self, ep, spec, work_dir):
        inst = ep.core.Instance.from_sizes(spec["n"], spec["sizes"])
        result = ep.solver.solve(inst)
        p = result.partition
        if p is None:
            return result.status.value, None, None, None
        opened = ep.graphs.verify_distance_magic(ep.graphs.labeling_from_partition(p))
        closed = ep.graphs.verify_closed_magic_cycle(p)
        return (result.status.value, p.blocks,
                (opened.is_magic, opened.constant), (closed.is_magic, closed.constant))

    def check(self, spec, raw):
        status, blocks, opened, closed = raw
        n, sizes = spec["n"], spec["sizes"]
        if status != "solved":
            if status == "proven_infeasible":
                return [f"{n} {sizes}: proven-feasible instance reported infeasible"], 1, 0
            return [], 1, 0  # k <= 4 is proven feasible, so not solving is a failure
        s = certify.magic_sum(n, len(sizes))
        problems = certify.partition_problems(n, sizes, blocks)
        if opened != (True, certify.graph_constant(n, s)):
            problems.append(f"{n} {sizes}: open check gave {opened}")
        if closed != (True, certify.closed_constant(n, len(sizes), s)):
            problems.append(f"{n} {sizes}: closed check gave {closed}")
        return problems, 0, 0


class DescentStall:
    """solve() on pinned k >= 5 boundary instances where the descent stalls."""

    name = "descent_stall"
    # Search seeds 0-2 reach greedy start seed 2 within two restarts, the one
    # start seen (seeds 0-79) from which the descent solves n = 159; the
    # offset keeps every seed in the stalled regime this workload measures.
    # The modulus maps negative workload seeds onto valid search seeds.
    SEED_OFFSET = 3
    CORPUS = ((150, (16, 18, 23, 40, 53)), (119, (11, 11, 13, 16, 32, 36)),
              (159, (17, 19, 30, 44, 49)))
    settings = {"corpus": [list(c) for c in CORPUS], "max_restarts": 2,
                "search_seed": f"{SEED_OFFSET} + seed % 2**62"}

    def generate(self, seed: int) -> list[dict]:
        return [{"key": f"ds-{n}", "n": n, "sizes": sizes, "units": 1,
                 "search_seed": self.SEED_OFFSET + seed % 2**62}
                for n, sizes in self.CORPUS]

    def run_op(self, ep, spec, work_dir):
        params = ep.solver.SearchParams(seed=spec["search_seed"],
                                        max_restarts=self.settings["max_restarts"])
        result = ep.solver.solve(ep.core.Instance.from_sizes(spec["n"], spec["sizes"]), params)
        return result.status.value, result.partition.blocks if result.partition else None

    def check(self, spec, raw):
        status, blocks = raw
        if status == "budget_exhausted":
            return [], 0, 1  # the stall this workload measures, not an error
        if status != "solved":
            # Neither the verdict nor the exact fallback (n <= 24) can prove
            # these boundary instances infeasible.
            return [f"{spec['n']} {spec['sizes']}: unexpected status {status}"], 1, 0
        return certify.partition_problems(spec["n"], spec["sizes"], blocks), 0, 0


class OracleSweep:
    """CLI sweep commands over fixed boxes at one node budget."""

    name = "oracle_sweep"
    BOXES = ((40, (3, 4, 5)), (32, (6,)))
    settings = {"boxes": [[nmax, list(ks)] for nmax, ks in BOXES], "budget": 250_000,
                "min_part": 2, "workers": 1}

    def generate(self, seed: int) -> list[dict]:
        # The boxes are fixed; the seed changes nothing here.
        specs = []
        for nmax, ks in self.BOXES:
            box = certify.sweep_box(nmax, ks, self.settings["min_part"])
            specs.append({"key": f"sweep-{nmax}-{'_'.join(map(str, ks))}", "nmax": nmax,
                          "ks": ks, "box": box, "units": len(box)})
        return specs

    def run_op(self, ep, spec, work_dir):
        path = os.path.join(work_dir, f"{spec['key']}.json")
        code = ep.cli.main([
            "sweep", "--nmax", str(spec["nmax"]), "--k", ",".join(map(str, spec["ks"])),
            "--min-part", str(self.settings["min_part"]), "--budget", str(self.settings["budget"]),
            "--workers", str(self.settings["workers"]), "--format", "json", "-o", path,
        ])
        return code, path

    def check(self, spec, raw):
        code, path = raw
        if code not in (0, 1, 3):
            return [], spec["units"], 0
        return certify.sweep_problems(_load_json(path), spec["box"], code)


WORKLOADS = {w.name: w for w in (K2Roundtrip(), DescentProven(), DescentStall(), OracleSweep())}


def generate(name: str, seed: int) -> list[dict]:
    return WORKLOADS[name].generate(seed)
