#!/usr/bin/env python3
"""How often the checks of a suite fail when the identity they test holds.

    python3 scripts/calibrate.py --suite invariance consistency --seeds 100 \\
        --label change --out CALIB_exact_ensembles.json

For each master seed k < K the script runs ``verify.run_suite(S, k)`` for
each suite S at the CLI sizes, and keeps every report's verdict and p-value.
Per report name, pooled per suite and pooled over all suites it writes:

- the failures (p <= level) at levels 0.01 and 0.05, with Clopper-Pearson
  95% intervals.  A calibrated permutation test with n_perm permutations
  fails at floor(level (n_perm + 1)) / (n_perm + 1), just under the level;
- a KS test of the p-values against their law under the identity.  A
  permutation p-value lies on the grid 1/(n_perm + 1), ..., 1, uniformly, so
  the distance is taken to that discrete law.  Its p-value comes from the
  continuous Kolmogorov law, which is conservative for a discrete one.

Deterministic reports carry no p-value; only their failures are counted.

The package is imported from PYTHONPATH when it is found there, else from
this checkout, so that one script measures any checkout:
``PYTHONPATH=OTHER/src python3 scripts/calibrate.py ...``.  The run is
stored in ``--out`` under ``--label``; runs already in that file under other
labels are kept, so that two checkouts can be compared in one file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from intertwine import verify  # noqa: E402

LEVELS = (0.01, 0.05)


def clopper_pearson(count: int, n: int, conf: float = 0.95) -> list:
    """Exact binomial interval for count successes in n trials."""
    tail = (1.0 - conf) / 2.0
    lo = 0.0 if count == 0 else float(stats.beta.ppf(tail, count, n - count + 1))
    hi = 1.0 if count == n else float(stats.beta.ppf(1.0 - tail, count + 1, n - count))
    return [lo, hi]


def ks_to_grid_uniform(ranks: np.ndarray, grids: np.ndarray) -> dict:
    """KS of p-values k_i / g_i against the mixture of their null laws, each
    uniform on {1/g_i, ..., 1}.  Both CDFs are step functions that jump only
    on the union of the grids, so the distance is taken there exactly, in
    integer arithmetic."""
    n = ranks.size
    d = 0.0
    for g in np.unique(grids):
        j = np.arange(g + 1)[:, None]  # u = j / g
        emp = (ranks * g <= j * grids).mean(axis=1)
        null = ((j * grids) // g / grids).mean(axis=1)
        d = max(d, float(np.abs(emp - null).max()))
    return {"statistic": d, "p_value": float(stats.kstwo.sf(d, n))}


def summarize(records: list) -> dict:
    """Failures and, for statistical reports, the KS test of one pool."""
    n = len(records)
    fails = {lvl: 0 for lvl in LEVELS}
    ranks, grids = [], []
    for rec in records:
        if rec["p_value"] is None:
            for lvl in LEVELS:
                fails[lvl] += not rec["passed"]
            continue
        g = rec["n_perm"] + 1
        ranks.append(round(rec["p_value"] * g))
        grids.append(g)
        for lvl in LEVELS:
            fails[lvl] += rec["p_value"] <= lvl
    out = {"n": n, "failures": {str(lvl): {"count": int(c), "rate": c / n,
                                           "ci95": clopper_pearson(int(c), n)}
                                for lvl, c in fails.items()}}
    if grids:
        ranks, grids = np.array(ranks), np.array(grids)
        out["failures_if_calibrated"] = {
            str(lvl): float(np.mean(np.floor(lvl * grids + 1e-9) / grids)) for lvl in LEVELS}
        out["ks_uniform"] = ks_to_grid_uniform(ranks, grids)
    return out


def calibrate(suites, n_seeds: int) -> dict:
    by_name, suite_of, suite_wall = {}, {}, {}
    start = time.perf_counter()
    for suite in suites:
        t0 = time.perf_counter()
        for k in range(n_seeds):
            for rep in verify.run_suite(suite, k):
                by_name.setdefault(rep.name, []).append({
                    "p_value": rep.p_value, "passed": rep.passed,
                    "n_perm": rep.meta.get("n_perm")})
                suite_of[rep.name] = suite
        suite_wall[suite] = time.perf_counter() - t0
    checks = {name: {"suite": suite_of[name], **summarize(recs),
                     "p_values": [r["p_value"] for r in recs]}
              for name, recs in by_name.items()}
    pooled = {suite: summarize([r for name, recs in by_name.items() if suite_of[name] == suite
                                for r in recs]) for suite in suites}
    pooled["all"] = summarize([r for recs in by_name.values() for r in recs])
    return {"suites": list(suites), "seeds": n_seeds, "cores": len(os.sched_getaffinity(0)),
            "wall_s": time.perf_counter() - start, "suite_wall_s": suite_wall,
            "pooled": pooled, "checks": checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--suite", nargs="+", action="extend", required=True,
                    choices=sorted(verify.SUITES))
    ap.add_argument("--seeds", type=int, required=True, help="master seeds 0 .. K-1")
    ap.add_argument("--out", required=True, help="JSON file; other labels in it are kept")
    ap.add_argument("--label", default="run", help="name of this run in --out")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    run = calibrate(list(dict.fromkeys(args.suite)), args.seeds)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    doc["runs"][args.label] = run
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for scope, pool in run["pooled"].items():
        f = pool["failures"]["0.01"]
        ks = pool.get("ks_uniform", {}).get("p_value")
        print(f"{args.label} {scope}: {f['count']}/{pool['n']} fail at 0.01, "
              f"{pool['failures']['0.05']['count']} at 0.05, KS p = {ks}")
    print(f"{args.label}: {run['wall_s']:.1f} s on {run['cores']} cores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
