"""Golden reports of every two-path check, and of the boundary-flow check at
N = 50, at small sizes.

``data/golden_reports.json`` holds the reports these cases give with the
float64 energy statistic.  Names, verdicts, meta and p-values must match
exactly, and the statistic within 1e-7 relative: the reports store nine
significant digits, and a miswired stream or parameter moves far more.  The
flow case pins the N = 50 Euler engine, and the flow-chunked case (three
chunks under the pair-workspace budget, the last ragged) pins the chunks run
at once on a multi-core host and one at a time on one core.  Regenerate,
only when a random stream changes on purpose, with
``PYTHONPATH=src python tests/test_suites_golden.py``.

``data/golden_exact_suites.json`` holds the full-precision reports of the
two exact suites, ``identities`` and ``branching-limit``, at seed 7.  Names,
verdicts, meta keys and integer meta must match exactly, thresholds exactly
at the nine significant digits a report prints, and every float within
1e-9 relative or 1e-13 absolute: a change to the cubature's panels or to
the order of a sum moves a rounding-level value (a threshold too, where a
check derives it from a statistic), and a wrong rule or panel moves far
more.  The same command regenerates it.
"""

import json
from pathlib import Path

import pytest

from intertwine.chamber import BoundaryPoint
from intertwine.verify import (check_consistency, check_flow_convergence,
                               check_intertwine_laguerre, check_intertwine_pickrell,
                               check_invariance_pickrell, check_shifted_intertwine, run_suite)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"
GOLDEN_EXACT = GOLDEN.with_name("golden_exact_suites.json")
EXACT_SUITES, EXACT_SEED = ("identities", "branching-limit"), 7
N, N_PERM, DT, T = 200, 99, 0.05, 0.5

CASES = {
    "laguerre": lambda: check_intertwine_laguerre(0.0, 1, (1.0, 2.0), T, N, DT, 1, N_PERM),
    "laguerre-N2": lambda: check_intertwine_laguerre(1.0, 2, (0.5, 1.5, 3.0), T, N, DT, 2, N_PERM),
    "laguerre-control": lambda: check_intertwine_laguerre(0.0, 1, (1.0, 2.0), T, N, DT, 3, N_PERM,
                                                          alpha_mismatch=2.0),
    "pickrell": lambda: check_intertwine_pickrell(1.0, 0.5, 1, (1.0, 2.0), T, N, DT, 4, N_PERM),
    "pickrell-control": lambda: check_intertwine_pickrell(1.0, 0.0, 1, (1.0, 2.0), T, N, DT, 5,
                                                          N_PERM, s_mismatch=3.0),
    "shifted-L": lambda: check_shifted_intertwine("L", 1.0, 0.0, 1, (1.0, 2.0), T, N, DT, 6, N_PERM),
    "shifted-LambdaEq": lambda: check_shifted_intertwine("LambdaEq", 1.0, 0.5, 2, (1.0, 2.5), T, N,
                                                         DT, 7, N_PERM),
    "invariance": lambda: check_invariance_pickrell(1.0, 1.0, 2, T, N, DT, 8, N_PERM),
    "invariance-control": lambda: check_invariance_pickrell(1.0, 0.0, 1, T, N, DT, 9, N_PERM,
                                                            s_mismatch=3.0),
    "consistency-alpha-link": lambda: check_consistency("alpha-link", 1.0, 0.0, 1, N, 10, N_PERM),
    "consistency-free-link": lambda: check_consistency("free-link", 1.0, 0.0, 1, N, 11, N_PERM),
    "consistency-eq-link": lambda: check_consistency("eq-link", 1.0, 0.5, 1, N, 12, N_PERM),
    "flow": lambda: check_flow_convergence(0.0, 50, BoundaryPoint((), 3.0), (0.25, 0.5), 20, 1e-3,
                                           13),
    # 60 paths at N = 50: three chunks under the pair-workspace budget, the last ragged
    "flow-chunked": lambda: check_flow_convergence(0.0, 50, BoundaryPoint((), 3.0), (0.25,), 60,
                                                   1e-3, 14),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(case, golden):
    got, want = CASES[case]().to_dict(), golden[case]
    assert (got["name"], got["passed"], got["threshold"], got["meta"]) == (
        want["name"], want["passed"], want["threshold"], want["meta"])
    assert got["p_value"] == want["p_value"]
    assert got["statistic"] == pytest.approx(want["statistic"], rel=1e-7)


def _exact_reports(suite):
    """The suite's reports at full precision, as JSON gives them back."""
    return json.loads(json.dumps(
        [{"name": r.name, "statistic": r.statistic, "threshold": r.threshold,
          "passed": r.passed, "meta": r.meta} for r in run_suite(suite, EXACT_SEED)],
        default=lambda v: v.item()))  # numpy scalars


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-9, abs=1e-13), where
    else:  # names, verdicts, integers
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("suite", EXACT_SUITES)
def test_exact_suite_matches_golden(suite):
    got, want = _exact_reports(suite), json.loads(GOLDEN_EXACT.read_text())[suite]
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        assert g["passed"] == w["passed"], w["name"]
        assert f'{g["threshold"]:.9g}' == f'{w["threshold"]:.9g}', w["name"]
        _assert_close(g, w, w["name"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: make().to_dict() for case, make in CASES.items()},
                                 indent=1, sort_keys=True) + "\n")
    GOLDEN_EXACT.write_text(json.dumps({suite: _exact_reports(suite) for suite in EXACT_SUITES},
                                       indent=1, sort_keys=True) + "\n")
