"""Benchmark driver for intertwine.

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 15 --trace 0

Runs one workload (or ``all`` of them, one after another), each in a fresh
child process, and prints the metrics named in BENCHMARK.json with their
units; the last line of output is one JSON object.  ``--trace 0`` gives the
end-to-end metrics: the workload repeats while another repeat fits in
``--seconds`` and the median repeat is reported.  ``--trace 1`` runs the
workload once untraced and once traced and gives the per-layer metrics.
Set-up time is the median over three fresh processes: two that only set up
and the one that runs the workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("calculus", "montecarlo", "flow", "lifts")
TIME_LIMIT_S = 170.0  # children still running then are killed


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """One BLAS thread (at most the core count).  The workloads' CPU time
    equals their wall time with two threads, so a second thread saves no
    time; it only adds its 64 MB buffer to the peak memory of some runs."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list, deadline: float) -> tuple:
    """Run child.py; return (seconds from spawn to ready, import seconds, result or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not first.startswith("ready "):
        raise ChildFailed(f"{' '.join(args)}: child exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, float(first.split()[1]), json.loads(lines[-1]) if lines else None


def fingerprint() -> str:
    """Hash of the package and benchmark sources: reports are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "intertwine").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def same_as_before(key: str, digest: str) -> bool:
    """Compare a report hash with the one an earlier run of this seed stored."""
    store = ROOT / ".perfbench_out" / "hashes.json"
    store.parent.mkdir(exist_ok=True)
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, digest) != digest:
        return False
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups, imports, res = [], [], None
    for probe in (True, False, True):
        ready, imp, got = spawn([*common, "--probe"] if probe else common, deadline)
        setups.append(ready)
        imports.append(imp)
        res = got or res

    insts = res["instances"]
    first = insts[0]
    hashes = {i["hash"] for i in insts}
    notes = []
    if len(hashes) > 1:
        notes.append("reports differ between repeats of one seed")
    if not same_as_before(f"{name}:{seed}:{fingerprint()}", first["hash"]):
        notes.append("reports differ from an earlier run of this seed")
    if first["defects"]:
        notes.append(f"checks off their expected verdict: {first['defects']}")
    runs = list(insts)
    if trace:
        runs.append(res["traced"])
        if res["traced"]["hash"] != first["hash"]:
            notes.append("traced reports differ from untraced ones")
    wall = statistics.median(i["wall_s"] for i in insts)
    out = {
        "machine": dict(res["machine"], seed=seed),
        "repeats": len(insts),
        "checks": first["checks"],
        "deviations": first["deviations"],
        "correct": not notes,
        "notes": notes,
        "attempted": sum(i["checks"] for i in runs),
        "failed": sum(len(i["defects"]) for i in runs),
        "wall_s": wall,
        "cpu_s": statistics.median(i["cpu_s"] for i in insts),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_frac": len(first["deviations"]) / first["checks"],
    }
    out["pass_frac"] = 1.0 - out["fail_frac"]
    if trace:
        layers = dict(res["layers"])
        layers["cli.import_s"] = statistics.median(imports)
        layers["trace.overhead"] = res["traced"]["wall_s"] / first["wall_s"]
        layers["run.cpu_s"] = first["cpu_s"]
        out["layers"] = layers
    return out


def report(name: str, r: dict, spec: dict, trace: int) -> dict:
    """Print one workload's figures; return its metrics as BENCHMARK.json names them."""
    m = r["machine"]
    print(f"[{name}] nproc={m['nproc']} blas_threads={m['blas_threads']} blas={m['blas']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} seed={m['seed']}")
    print(f"[{name}] repeats={r['repeats']} checks={r['checks']} wall_s={r['wall_s']:.4f} s "
          f"run.cpu_s={r['cpu_s']:.4f} s setup_s={r['setup_s']:.4f} s "
          f"peak_rss_mb={r['peak_rss_mb']:.1f} MB fail_frac={r['fail_frac']:.4f} ratio")
    for dev in r["deviations"]:
        print(f"[{name}] verdict off its expectation: {dev}")
    for note in r["notes"]:
        print(f"[{name}] NOT CORRECT: {note}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = r["layers"] if trace else r
    metrics = {}
    for metric in wanted:
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        if trace:
            print(f"[{name}] {metric['name']:<44} {values[metric['name']]:>18.10g} "
                  f"{metric['unit']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S * (4 if args.workload == "all" else 1)

    if not (ROOT / "src" / "intertwine" / "__init__.py").is_file():
        print(f"no intertwine package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except ChildFailed as exc:
            print(f"[{name}] {exc}", file=sys.stderr)
            return 1
        got = report(name, r, spec, args.trace)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        correct &= r["correct"]
        attempted += r["attempted"]
        failed += r["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
