#!/usr/bin/env python3
"""Benchmark two source roots against each other with perfbench.

    python3 scripts/bench_pair.py BASE HEAD \\
        --workloads montecarlo,calculus,flow,lifts --pairs 5 --trace-runs 3 \\
        --out BENCH_small_n.json

BASE (the parent) and HEAD (the change) are checkouts that hold
src/intertwine, perfbench/ and BENCHMARK.json, such as a `git archive` of
each commit; a root that lacks one is refused before any run.  For
each workload the script runs ``perfbench/run.py --trace 0`` ``--pairs``
times in each root, then ``--trace 1`` ``--trace-runs`` times in each root.
Every run of one root is followed by the same run of the other, and the root
that goes first alternates, so that a drift in the host's speed falls on both.
Pair i uses seed ``--seeds``[i mod len].

The JSON written to ``--out`` holds, per workload and metric, every run, the
median and quartiles of each root, the ratio of the medians (head over
base) and, for the end-to-end metrics, in how many pairs the head was
better.  Next to the metrics it keeps ``repeats``, how many times perfbench
ran the workload within ``--seconds``: ``peak_rss_mb`` is the maximum over
those repeats, so a faster root that fits more of them can show more
memory.  It also says whether the report hashes of each seed agree between
the roots, and it records the core count and the BLAS thread count that
perfbench reports.  No path of either root is written to it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_perfbench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in ``root``: its metrics and repeats, verdict and machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    # "[workload] nproc=2 blas_threads=1 blas=scipy-openblas 0.3.31 python=..."
    machine = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", lines[0]))
    # "[workload] repeats=2 checks=9 wall_s=..."
    repeats = int(re.search(r"\brepeats=(\d+)", lines[1]).group(1))
    out = json.loads(lines[-1])
    metrics = out["metrics"]
    return {"metrics": {**{k: v["value"] for k, v in metrics.items()}, "repeats": repeats},
            "units": {**{k: v["unit"] for k, v in metrics.items()}, "repeats": "count"},
            "correct": out["correct"], "machine": machine}


def report_hash(root: Path, workload: str, seed: int):
    """The report hash that perfbench stored for this seed and the root's sources."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    store = root / ".perfbench_out" / "hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    return known.get(f"{workload}:{seed}:{run.fingerprint()}")


def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "runs": values}


def compare(base_runs: list, head_runs: list, units: dict, better: dict) -> dict:
    out = {}
    for name, unit in units.items():
        b = [r["metrics"][name] for r in base_runs]
        h = [r["metrics"][name] for r in head_runs]
        entry = {"unit": unit, "base": summary(b), "head": summary(h)}
        mb = entry["base"]["median"]
        entry["head_over_base"] = entry["head"]["median"] / mb if mb else None
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            entry["head_better_pairs"] = sum(sign * (y - x) < 0 for x, y in zip(b, h))
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    ap.add_argument("--workloads", default="montecarlo")
    ap.add_argument("--pairs", type=int, default=5, help="untraced runs per root (>= 3)")
    ap.add_argument("--trace-runs", type=int, default=3, help="traced runs per root (>= 3)")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 3 or args.trace_runs < 3:
        ap.error("medians need at least 3 runs per root")
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    for side, root in roots.items():
        for need in ("src/intertwine", "perfbench", "BENCHMARK.json"):
            if not (root / need).exists():
                ap.error(f"{side} root {root} has no {need}")
    seeds = [int(tok) for tok in args.seeds.split(",")]
    spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    result = {"pairs": args.pairs, "trace_runs": args.trace_runs,
              "seeds": seeds, "seconds": args.seconds, "machine": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {(side, trace): [] for side in roots for trace in (0, 1)}
        for trace, count in ((0, args.pairs), (1, args.trace_runs)):
            for i in range(count):
                seed = seeds[i % len(seeds)]
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    r = run_perfbench(roots[side], workload, seed, args.seconds, trace)
                    runs[side, trace].append(r)
                    m = r["metrics"]
                    shown = m.get("wall_s", m.get("run.cpu_s"))
                    print(f"{workload} trace={trace} seed={seed} {side}: {shown:.3f}",
                          file=sys.stderr)
        result["machine"] = {k: runs["head", 0][0]["machine"].get(k)
                             for k in ("nproc", "blas_threads", "blas", "python", "numpy",
                                       "scipy")}
        used = sorted({seeds[i % len(seeds)] for i in range(max(args.pairs, args.trace_runs))})
        hashes = {str(s): {side: report_hash(roots[side], workload, s) for side in roots}
                  for s in used}
        result["workloads"][workload] = {
            "correct": {side: all(r["correct"] for t in (0, 1) for r in runs[side, t])
                        for side in roots},
            "report_hashes_equal": {s: h["base"] is not None and h["base"] == h["head"]
                                    for s, h in hashes.items()},
            "end_to_end": compare(runs["base", 0], runs["head", 0],
                                  runs["head", 0][0]["units"], better),
            "layers": compare(runs["base", 1], runs["head", 1],
                              runs["head", 1][0]["units"], {}),
        }
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
