"""Smoke test of the benchmark harness: one repetition of each workload.

It runs the workloads through the same entry point and patch points as a
full benchmark run, so a library change that breaks what ``perfbench/``
calls (``to_scipy``, the module globals it patches) fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep_2d", "many_rhs_2d", "solve_3d"])
def test_one_repetition_of_each_workload_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["attempted"] > 0 and result["failed"] == 0, run.stdout


def test_a_traced_run_sees_every_patch_point():
    # the traced path wraps approx_schur, amg_setup and apply_preconditioner_vcycle
    # in mdsolve.precond's globals; a name bound at import time would escape it
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_3d", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["amg.setups"] == 2 * metrics["precond.setups"] > 0, metrics
    assert metrics["amg.vcycles"] > 0, metrics
    assert metrics["precond.schur_s"] > 0, metrics  # set-up forms it through approx_schur
