"""Golden reports of every two-path check at small sizes.

``data/golden_reports.json`` holds the reports these cases gave before the
checks shared one driver.  Names, verdicts and meta must match exactly; the
p-value within 0.02 and the statistic within 1e-3 relative.  That tolerates
float32 GEMM rounding on another CPU but catches a miswired stream or
parameter.  Regenerate, only when a random stream changes on purpose, with
``PYTHONPATH=src python tests/test_suites_golden.py``.
"""

import json
from pathlib import Path

import pytest

from intertwine.verify import (check_consistency, check_intertwine_laguerre,
                               check_intertwine_pickrell, check_invariance_pickrell,
                               check_shifted_intertwine)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"
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
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(case, golden):
    got, want = CASES[case]().to_dict(), golden[case]
    assert (got["name"], got["passed"], got["threshold"], got["meta"]) == (
        want["name"], want["passed"], want["threshold"], want["meta"])
    assert got["p_value"] == pytest.approx(want["p_value"], abs=0.02)
    assert got["statistic"] == pytest.approx(want["statistic"], rel=1e-3)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: make().to_dict() for case, make in CASES.items()},
                                 indent=1, sort_keys=True) + "\n")
