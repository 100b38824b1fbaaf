"""Command-line front end.

Subcommands: sample-kernel, sample-ensemble, simulate, boundary-flow,
branching, verify.  Identical invocation plus seed gives byte-identical
output; every JSON document embeds the resolved parameters and the version
string.  ``--config file.json`` holds a JSON object whose keys each name a
flag of the subcommand other than --config, spelled with - or _; each value
is read as that flag's argument, placed before the command line's own
flags, which therefore win.  A required flag must be on the command line,
since argparse checks it before the config is read.  Exit codes: 0
success / all checks passed, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import __version__
from .chamber import BoundaryPoint, Partition, link_cell
from .diffusion import (PickrellParams, Scheme, SdeConfig, boundary_flow,
                        simulate_laguerre_matrix_paths, simulate_laguerre_paths,
                        simulate_pickrell_matrix_paths, simulate_pickrell_paths)
from .ensembles import sample_laguerre_many, sample_pickrell
from .kernels import (KernelParams, sample_L_many, sample_lambda_eq_many,
                      sample_lambda_plus_many)
from .rng import generator, named_seed
from .verify import SIZE_KEYS, SUITES, run_suite


def version_string() -> str:
    """git describe when available, else the package version."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return __version__


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write(path, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _write_json(path, payload):
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok != "")


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _config_flags(args: argparse.Namespace) -> list:
    """The config file as --flag=value arguments, for argparse to convert and
    check; a key naming no flag, or a value no string or number, is refused."""
    loaded = json.loads(Path(args.config).read_text())
    if not isinstance(loaded, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    flags = set(vars(args)) - {"command", "config"}
    unknown = [key for key in loaded if key.replace("-", "_") not in flags]
    if unknown:
        raise ValueError(f"config keys match no flag of {args.command}: {', '.join(unknown)}")
    for key, value in loaded.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key}: {value!r} is not a flag value")
    return [f"--{key.replace('_', '-')}={value}" for key, value in loaded.items()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intertwine",
                                     description="interlacing kernels, particle diffusions, and identity checks")
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="JSON file of flag defaults")

    p = sub.add_parser("sample-kernel", help="draw from an interlacing link")
    common(p)
    p.add_argument("--kernel", required=True, choices=["l", "lambda-eq", "lambda-plus"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--x", required=True, help="comma-separated source point, ascending")
    p.add_argument("--n", type=int, default=1000)

    p = sub.add_parser("sample-ensemble", help="draw from an equilibrium ensemble")
    common(p)
    p.add_argument("--ensemble", required=True, choices=["pickrell", "laguerre"])
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--summary-out", default=None, help="JSON sampler summary path")

    p = sub.add_parser("simulate", help="run particle or matrix dynamics")
    common(p)
    p.add_argument("--process", required=True,
                   choices=["laguerre", "laguerre-matrix", "pickrell", "pickrell-matrix"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--x0", required=True, help="comma-separated start, ascending")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=100)

    p = sub.add_parser("boundary-flow", help="evaluate the deterministic boundary flow")
    common(p)
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--alphas", default="", help="comma-separated masses, non-increasing")
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("branching", help="discrete kernel rows and scaling limit")
    common(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--lam", required=True, help="comma-separated partition, non-increasing")
    p.add_argument("--kappa", type=int, default=None,
                   help="also report the scaling-limit discrepancy at this kappa")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=[*SUITES, "all"])
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--n-perm", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--kappa", type=int, default=None)
    return parser


def _cmd_sample_kernel(args) -> int:
    x = _parse_floats(args.x)
    rng = generator(named_seed(args.seed, f"sample-kernel-{args.kernel}"))
    if args.kernel == "l":
        rows = sample_L_many(x, args.n, rng)
    else:
        kind = args.kernel.replace("-", "_")
        params = KernelParams(args.alpha, link_cell(kind, x)[1].size)
        sample = sample_lambda_eq_many if kind == "lambda_eq" else sample_lambda_plus_many
        rows = sample(params, x, args.n, rng)
    _write_csv(args.out, [f"y{i + 1}" for i in range(rows.shape[1])], rows)
    return 0


def _cmd_sample_ensemble(args) -> int:
    rng = generator(named_seed(args.seed, f"sample-ensemble-{args.ensemble}"))
    if args.ensemble == "pickrell":
        params = PickrellParams(args.s, args.alpha, args.dim)
        rows, info = sample_pickrell(params, args.n, rng, return_info=True)
    else:
        rows = sample_laguerre_many(args.alpha, args.dim, args.n, rng)
        info = {"method": "ginibre-radial"}
    _write_csv(args.out, [f"x{i + 1}" for i in range(rows.shape[1])], rows)
    summary = {"parameters": {"ensemble": args.ensemble, "s": args.s, "alpha": args.alpha,
                              "dim": args.dim, "n": args.n, "seed": args.seed},
               "sampler": info, "version": version_string()}
    if args.summary_out:
        _write_json(args.summary_out, summary)
    return 0


def _cmd_simulate(args) -> int:
    x0 = _parse_floats(args.x0)
    n = len(x0)
    seed = named_seed(args.seed, f"simulate-{args.process}")
    lift = args.process.endswith("-matrix")
    cfg = SdeConfig(args.dt, args.t, Scheme.MATRIX_LIFT if lift else Scheme.EULER_GUARDED)
    if args.process.startswith("laguerre"):
        simulate = simulate_laguerre_matrix_paths if lift else simulate_laguerre_paths
        rows = simulate(args.alpha, n, x0, cfg, args.paths, seed)[0]
    else:
        simulate = simulate_pickrell_matrix_paths if lift else simulate_pickrell_paths
        rows = simulate(PickrellParams(args.s, args.alpha, n), x0, cfg, args.paths, seed)[0]
    _write_csv(args.out, [f"x{i + 1}" for i in range(rows.shape[1])], rows)
    return 0


def _cmd_boundary_flow(args) -> int:
    omega = BoundaryPoint(_parse_floats(args.alphas), args.gamma0)
    flowed = boundary_flow(omega, args.t)
    lines = [f"gamma = {flowed.gamma:.6f}"]
    if flowed.alphas:
        lines.append("alphas = " + ",".join(f"{a:.6f}" for a in flowed.alphas))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_branching(args) -> int:
    from .branching import JacobiParams, compare_scaling_limit, kernel_row

    params = JacobiParams(args.alpha, args.beta)
    lam = Partition(_parse_ints(args.lam))
    n = max(1, lam.length - 1)
    targets, probs = kernel_row(lam, n, params)
    rows = [list(t.padded(n)) + [p] for t, p in zip(targets, probs)]
    # an unsupported kappa or dimension fails before the row is written
    res = None if args.kappa is None else compare_scaling_limit(lam, args.kappa, params)
    _write_csv(args.out, [f"nu{i + 1}" for i in range(n)] + ["probability"], rows)
    if res is not None:
        _write_json(None, {"parameters": {"alpha": args.alpha, "beta": args.beta,
                                          "lam": list(lam.parts), "kappa": args.kappa},
                           "result": dict(res), "version": version_string()})
    return 0


def _cmd_verify(args) -> int:
    sizes = {key: getattr(args, key) for key in SIZE_KEYS if getattr(args, key, None) is not None}
    reports = run_suite(args.suite, args.seed, **sizes)
    payload = {
        "parameters": {"suite": args.suite, "seed": args.seed, **sizes},
        "version": version_string(),
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _write_json(args.out, payload)
    return 0 if payload["all_passed"] else 1


_COMMANDS = {
    "sample-kernel": _cmd_sample_kernel,
    "sample-ensemble": _cmd_sample_ensemble,
    "simulate": _cmd_simulate,
    "boundary-flow": _cmd_boundary_flow,
    "branching": _cmd_branching,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
