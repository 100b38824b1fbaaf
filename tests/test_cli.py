import json
import subprocess
import sys

import pytest

from intertwine.cli import build_parser, main
from intertwine.verify import SUITES


def run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "intertwine.cli", *args],
                          capture_output=True, text=True, cwd=tmp_path)
    return proc


def test_boundary_flow_prints_gamma(capsys):
    code = main(["boundary-flow", "--gamma0", "3", "--t", "0.693147"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gamma = 2.000000" in out


def test_boundary_flow_with_masses(capsys):
    code = main(["boundary-flow", "--gamma0", "2", "--alphas", "0.5,0.25", "--t", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alphas = 0.500000,0.250000" in out


def test_sample_kernel_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code = main(["sample-kernel", "--kernel", "lambda-plus", "--alpha", "0",
                     "--x", "1,2", "--n", "200", "--seed", "1", "--out", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "y1"
    assert len(lines) == 201
    assert all(0.0 <= float(v) <= 2.0 for v in lines[1:])


def test_sample_kernel_l_and_eq(tmp_path):
    f = tmp_path / "l.csv"
    assert main(["sample-kernel", "--kernel", "l", "--x", "0,1,2", "--n", "50",
                 "--seed", "3", "--out", str(f)]) == 0
    assert f.read_text().splitlines()[0] == "y1,y2"
    f2 = tmp_path / "eq.csv"
    assert main(["sample-kernel", "--kernel", "lambda-eq", "--alpha", "1.5",
                 "--x", "1,2", "--n", "50", "--seed", "3", "--out", str(f2)]) == 0
    assert f2.read_text().splitlines()[0] == "y1,y2"


def test_sample_ensemble_with_summary(tmp_path):
    csv = tmp_path / "s.csv"
    summary = tmp_path / "s.json"
    code = main(["sample-ensemble", "--ensemble", "pickrell", "--s", "1", "--alpha", "1",
                 "--dim", "2", "--n", "300", "--seed", "5", "--out", str(csv),
                 "--summary-out", str(summary)])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["parameters"]["seed"] == 5
    assert payload["sampler"] == {"method": "matrix-f"}
    assert "version" in payload
    assert len(csv.read_text().splitlines()) == 301
    assert main(["sample-ensemble", "--ensemble", "laguerre", "--alpha", "1", "--dim", "2",
                 "--n", "10", "--out", str(csv), "--summary-out", str(summary)]) == 0
    assert json.loads(summary.read_text())["sampler"] == {"method": "ginibre-radial"}


def test_simulate_outputs_paths(tmp_path):
    f = tmp_path / "sim.csv"
    code = main(["simulate", "--process", "pickrell", "--s", "1", "--alpha", "0",
                 "--x0", "1,2", "--t", "0.05", "--dt", "0.01", "--paths", "40",
                 "--seed", "9", "--out", str(f)])
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0] == "x1,x2" and len(lines) == 41


@pytest.mark.parametrize("lam, kappa, message", [
    ("4,3,2,1", "10", "supports N = 1 or 2"),
    ("2,1", "0", "kappa=0 must be a positive integer"),
])
def test_branching_bad_kappa_writes_nothing(tmp_path, capsys, lam, kappa, message):
    out = tmp_path / "row.csv"
    with pytest.raises(SystemExit) as exc:
        main(["branching", "--lam", lam, "--kappa", kappa, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_branching_row_and_limit(tmp_path, capsys):
    # N = 1, and N = 2 with its two-dimensional limit.  The CSV keeps 9
    # significant digits, so its rows sum to 1 within 5e-9 only; the three
    # N = 1 rows happen to round to an exact sum
    for lam, kappa, header, tol in (("2,1", "40", "nu1,probability", 1e-10),
                                    ("3,2,1", "10", "nu1,nu2,probability", 5e-9)):
        f = tmp_path / "row.csv"
        code = main(["branching", "--alpha", "0", "--beta", "0", "--lam", lam,
                     "--out", str(f), "--kappa", kappa])
        out = capsys.readouterr().out
        assert code == 0
        lines = f.read_text().splitlines()
        assert lines[0] == header
        probs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=tol)
        payload = json.loads(out)
        assert payload["result"]["n"] == lam.count(",")
        assert payload["result"]["sup_discrepancy"] < 0.05


def test_verify_identities_suite(tmp_path):
    f = tmp_path / "report.json"
    code = main(["verify", "--suite", "identities", "--seed", "7", "--out", str(f)])
    assert code == 0
    payload = json.loads(f.read_text())
    assert payload["all_passed"] is True
    assert payload["parameters"]["suite"] == "identities"
    assert all(set(r) >= {"name", "statistic", "passed"} for r in payload["reports"])
    # deterministic: rerun must be byte-identical
    f2 = tmp_path / "report2.json"
    assert main(["verify", "--suite", "identities", "--seed", "7", "--out", str(f2)]) == 0
    assert f.read_bytes() == f2.read_bytes()


def test_every_suite_parses():
    # the --suite choices are the keys of verify.SUITES, not a copy of them
    for suite in [*SUITES, "all"]:
        assert build_parser().parse_args(["verify", "--suite", suite]).suite == suite


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma0": 3.0, "t": 0.693147}))
    out1 = tmp_path / "o1.txt"
    code = main(["boundary-flow", "--gamma0", "1", "--t", "0", "--config", str(cfg),
                 "--out", str(out1)])
    assert code == 0
    # flags were explicit, so the config must not override them
    assert "gamma = 1.000000" in out1.read_text()
    out2 = tmp_path / "o2.txt"
    code = main(["boundary-flow", "--gamma0", "3", "--t", "0.693147", "--config",
                 str(cfg), "--out", str(out2)])
    assert "gamma = 2.000000" in out2.read_text()


def test_config_unknown_key_exits_2(tmp_path, capsys):
    # --config names the file and is no flag a config can set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tt": 0.69, "threads": 4, "gamma0": 2.0, "config": "nope.json"}))
    with pytest.raises(SystemExit) as exc:
        main(["boundary-flow", "--gamma0", "3", "--t", "0", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    listed = err.split("match no flag of boundary-flow: ")[1].strip()
    assert listed.split(", ") == ["tt", "threads", "config"]


@pytest.mark.parametrize("argv, config, message", [
    (["simulate", "--process", "laguerre", "--x0", "1", "--t", "0.1"], {"paths": "ten"},
     "argument --paths: invalid int value: 'ten'"),
    (["simulate", "--process", "laguerre", "--x0", "1", "--t", "0.1"], {"dt": [0.01]},
     "config key dt: [0.01] is not a flag value"),
    (["verify"], {"suite": "everything"}, "argument --suite: invalid choice: 'everything'"),
])
def test_config_value_rejected_by_its_flag_exits_2(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_values_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": "10", "dt": "0.01"}))
    out_cfg, out_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
    base = ["simulate", "--process", "laguerre", "--x0", "1", "--t", "0.1"]
    assert main(base + ["--config", str(cfg), "--out", str(out_cfg)]) == 0
    assert main(base + ["--paths", "10", "--dt", "0.01", "--out", str(out_flags)]) == 0
    assert out_cfg.read_bytes() == out_flags.read_bytes()


def test_config_key_spelled_with_underscore_or_negative_value_matches_flags(tmp_path):
    base = ["sample-ensemble", "--ensemble", "laguerre", "--dim", "2", "--n", "10"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"summary_out": str(tmp_path / "cfg.json.out")}))
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(base + ["--summary-out", str(tmp_path / "flags.json.out"),
                        "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "cfg.json.out").read_bytes() == (tmp_path / "flags.json.out").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # a negative number is read as the flag's argument, not as a flag
    base = ["sample-kernel", "--kernel", "lambda-eq", "--x", "1,2", "--n", "50", "--seed", "3"]
    cfg.write_text(json.dumps({"alpha": -0.5}))
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(base + ["--alpha", "-0.5", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_abbreviated_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pat": 3}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--process", "laguerre", "--x0", "1", "--t", "0.1",
              "--config", str(cfg)])
    assert exc.value.code == 2
    assert "config keys match no flag of simulate: pat" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--paths", "--pat", "--paths=3"])
def test_explicit_flag_beats_config_however_spelled(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": "10"}))
    out = tmp_path / "paths.csv"
    value = [] if "=" in flag else ["3"]
    assert main(["simulate", "--process", "laguerre", "--x0", "1", "--t", "0.1", flag, *value,
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3  # header plus the 3 explicit paths


def test_unknown_flag_exits_2():
    proc = run_cli(["sample-kernel", "--kernel", "l", "--x", "0,1", "--wat", "1"])
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_bad_value_exits_2():
    proc = run_cli(["sample-kernel", "--kernel", "lambda-eq", "--alpha", "-2",
                    "--x", "1,2", "--n", "5"])
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ["sample-kernel", "--kernel", "l", "--x", "1", "--n", "5"],
    ["simulate", "--process", "laguerre", "--x0", "1", "--t", "0.01", "--paths", "0"],
    ["simulate", "--process", "pickrell-matrix", "--x0", "1", "--t", "0.01", "--paths", "0"],
    ["verify", "--suite", "flow", "--n-paths", "0"],
    ["verify", "--suite", "consistency", "--n-perm", "50"],
    ["boundary-flow", "--gamma0", "nan", "--t", "1"],
    ["boundary-flow", "--gamma0", "3", "--t", "nan"],
    ["boundary-flow", "--gamma0", "2", "--alphas", "nan", "--t", "1"],
    ["sample-kernel", "--kernel", "lambda-eq", "--x", "1,nan", "--n", "3"],
    ["sample-kernel", "--kernel", "l", "--x", "1,inf", "--n", "3"],
    ["simulate", "--process", "laguerre", "--x0", "1", "--t", "inf", "--paths", "2"],
    ["simulate", "--process", "pickrell", "--x0", "nan,1", "--t", "0.01", "--paths", "2"],
    ["simulate", "--process", "laguerre", "--x0", ",", "--t", "0.1"],
    ["simulate", "--process", "laguerre-matrix", "--x0", ",", "--t", "0.1"],
])
def test_degenerate_input_exits_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_console_entry_point_runs():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "intertwine", "boundary-flow",
                           "--gamma0", "3", "--t", "0.693147"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gamma = 2.000000" in proc.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy is imported only where it is used, by verify functions that few
    # runs reach; scipy.stats stays listed so that no import brings it back.
    # The Gauss rules and the log-gamma of branching are numpy and math, so
    # the import loads no scipy
    lazy = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.spatial",
            "scipy.special", "scipy.linalg")
    proc = subprocess.run([sys.executable, "-c",
                           f"import sys, intertwine.cli; print([m for m in {lazy} "
                           "if m in sys.modules])"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_calculus_and_the_flow_run_without_scipy():
    # with sys.modules["scipy"] = None every scipy import raises: the import,
    # the benchmark's warm-up call, a Gauss-Jacobi normalization, the
    # identities and branching-limit suites, the N = 2 scaling comparison
    # and an N = 50 flow check need none
    code = """
import sys
sys.modules["scipy"] = None
import intertwine.cli
from intertwine.branching import JacobiParams, compare_scaling_limit
from intertwine.chamber import BoundaryPoint
from intertwine.verify import check_flow_convergence, check_kernel_normalization, run_suite
reports = [check_kernel_normalization("L", 0.0, (1.0, 2.0)),
           check_kernel_normalization("lambda_eq", 0.5, (1.0, 2.0)),
           *run_suite("identities", 1), *run_suite("branching-limit", 1, kappa=20),
           check_flow_convergence(0.0, 50, BoundaryPoint((), 3.0), (0.25, 0.5), 20, 1e-3, 1)]
limit = compare_scaling_limit((3, 2, 1), 10, JacobiParams(0.0, 0.0))
print(len(reports), all(rep.passed for rep in reports), limit["sup_discrepancy"] < 0.05)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["32", "True", "True"]
