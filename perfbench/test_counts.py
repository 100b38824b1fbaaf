"""Self-check of the benchmark: the exact counts of the traced run repeat
exactly for a seed, and tracing leaves the reports unchanged.

    python3 -m pytest perfbench/test_counts.py -q

Each workload is traced twice with the same seed, so this takes several
minutes.  The counts named in spans.EXACT_COUNTS may then be cited as counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import EXACT_COUNTS

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["calculus", "montecarlo", "flow", "lifts"])
def test_exact_counts_repeat(workload):
    first, second = traced(workload, 5), traced(workload, 5)
    # correct covers: traced reports hash-equal to untraced ones, and to the first run's
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and second["failed"] == 0
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
