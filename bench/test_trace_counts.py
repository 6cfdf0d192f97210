"""Two traced runs on one seed must give identical counts.

Runs the benchmark itself, twice per workload, so it takes minutes:

    python3 -m pytest bench/test_trace_counts.py
    python3 -m pytest bench/test_trace_counts.py -k simulate
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import BENCHMARK_WORKLOADS

RUN = Path(__file__).with_name("run.py")

# Counts that must repeat exactly between two traced runs on one seed.
COUNTS = (
    "weights.exact_sum.calls",
    "adversary.loads.calls",
    "adversary.loads.pairs",
    "adversary.verify.pairs",
    "adversary.relation_bound.pairs",
    "compose.check_corollary.calls",
    "matchings.build.calls",
    "boolfn.iterate.calls",
    "measures.approx.calls",
    "measures.lp_exact.calls",
    "measures.lp_float.calls",
    "qsim.progress_trace.calls",
    "qsim.evolve.flop_computed",
    "cli.main.calls",
    "cli.exit_nonzero",
)


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        argv + ["--trace", "1"], capture_output=True, text=True, check=True, timeout=600
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_traced_counts_repeat(workload):
    first = traced_counts(workload, seed=7)
    assert any(first.values())
    assert traced_counts(workload, seed=7) == first
