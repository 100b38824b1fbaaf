"""One fresh process of the benchmark: set up, then run one workload.

It prints ``ready <import seconds>`` once the package is imported and one
warm-up call has returned, so the parent can time set-up from the outside.
With ``--probe`` it stops there.  Otherwise it runs the workload and prints
one JSON line with the per-instance times, report hashes and verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def setup() -> float:
    """Import the package from this checkout and make one small call."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import intertwine.cli  # noqa: F401  (pulls in every module, numpy and scipy)
    import_s = time.perf_counter() - t0
    if Path(intertwine.__file__).resolve().parent != ROOT / "src" / "intertwine":
        raise SystemExit(f"imported intertwine from {intertwine.__file__}, not from this checkout")
    intertwine.verify.check_kernel_normalization("L", 0.0, (1.0, 2.0))
    return import_s


def run_instance(parts, seed: int, wrap=lambda part: part) -> dict:
    """Run every part once; time it and judge each report against its expectation."""
    from workloads import by_chance, deviates

    cpu0, t0 = time.process_time(), time.perf_counter()
    results = []
    for part in parts:
        results.extend(wrap(part)(seed))
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    reports = [rep.to_dict() for rep, _ in results]
    text = json.dumps(reports, sort_keys=True, default=lambda o: o.item())
    bad = [(rep, expect) for rep, expect in results if deviates(rep, expect)]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "hash": hashlib.sha256(text.encode()).hexdigest(),
        "checks": len(results),
        "deviations": [rep.name for rep, _ in bad],
        "defects": [rep.name for rep, expect in bad if not by_chance(expect)],
    }


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import_s = setup()
    print("ready", import_s, flush=True)
    if args.probe:
        return 0

    from workloads import WORKLOADS

    parts = WORKLOADS[args.workload]
    out = {"import_s": import_s, "machine": machine(), "instances": []}
    start = time.perf_counter()
    while True:
        inst = run_instance(parts, args.seed)
        out["instances"].append(inst)
        typical = statistics.median(i["wall_s"] for i in out["instances"])
        # start another instance only if it should end within the run's time
        if args.trace or time.perf_counter() - start + typical > args.seconds:
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import numpy as np
        from spans import Recorder

        rec = Recorder()
        rec.install()
        try:
            traced = run_instance(parts, args.seed,
                                  wrap=lambda part: rec.span("part", part))
        finally:
            rec.remove()
        out["traced"] = traced
        out["layers"] = rec.metrics(traced["wall_s"])
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        np.save(spans_dir / f"spans-{args.workload}.npy", rec.array())
        (spans_dir / "span-layers.json").write_text(json.dumps(rec.layers))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
