import json
import subprocess
import sys

import pytest

from intertwine.cli import main


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
    assert 0.0 < payload["sampler"]["acceptance_rate"] < 1.0
    assert payload["sampler"]["burn_in"] == 10_000
    assert "version" in payload
    assert len(csv.read_text().splitlines()) == 301


def test_simulate_outputs_paths(tmp_path):
    f = tmp_path / "sim.csv"
    code = main(["simulate", "--process", "pickrell", "--s", "1", "--alpha", "0",
                 "--x0", "1,2", "--t", "0.05", "--dt", "0.01", "--paths", "40",
                 "--seed", "9", "--out", str(f)])
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0] == "x1,x2" and len(lines) == 41


def test_branching_row_and_limit(tmp_path, capsys):
    f = tmp_path / "row.csv"
    code = main(["branching", "--alpha", "0", "--beta", "0", "--lam", "2,1",
                 "--out", str(f), "--kappa", "40"])
    out = capsys.readouterr().out
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0] == "nu1,probability"
    probs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    payload = json.loads(out)
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
