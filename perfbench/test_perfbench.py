"""Self-tests of the benchmark, at tiny sizes (about 30 s in all):

    python3 -m pytest perfbench -q

* a quick run of every workload prints every metric BENCHMARK.json names, with
  its unit, and fails no request;
* the correctness gate bites: with a perturbed reference every request of a
  workload fails (error_rate 1) and the run exits non-zero;
* without the package beside it the benchmark exits non-zero and prints no result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, script=HERE / "run.py"):
    command = [sys.executable, str(script), "--seed", "5", "--seconds", "1", "--quick", *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=600)


def _error_rate(stdout: str, workload: str) -> float:
    return float(re.search(rf"^{workload}\s+error_rate\s+(\S+) ratio\s", stdout, re.M).group(1))


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_metric_with_its_unit(trace, kind):
    proc = _run("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for workload in WORKLOADS:
        assert _error_rate(proc.stdout, workload) == 0.0
    if trace:
        _assert_exact_counts({name: entry["value"] for name, entry in result["metrics"].items()})


def _assert_exact_counts(m):
    """Counts the quick sizes fix: N = 1024; 11 trace samples; 5 kernel_desk
    samples walked in 3-cell steps (7 steps, 37 taps per tap set)."""
    assert m["trace_n16k.spectral.decompose.calls"] == m["trace_n16k.spectral.reconstruct.calls"] == 11
    assert m["trace_n16k.spectral.fft_points"] == 11 * 2 * (2 * 1024)
    assert m["trace_n16k.backend.cone_correlate.calls"] == 0
    for workload in ("kernel_n64k", "kernel_desk"):
        assert m[f"{workload}.backend.cone_correlate.calls"] == 4 * m[f"{workload}.kernel_engine.evolve_step.calls"] > 0
    assert m["kernel_desk.kernel_engine.evolve_step.calls"] == 7
    assert m["kernel_desk.bessel.j0.args"] == 37 and m["kernel_desk.bessel.j1_over_x.args"] == 2 * 37
    assert m["kernel_desk.backend.cone_correlate.macs"] == 4 * 1024 * 37
    assert m["kernel_desk.backend.cone_correlate.bytes"] == 4 * 16 * 7 * 2 * 1024 + 4 * 16 * 37
    assert m["figures_desk.spectral.decompose.calls"] == 714
    assert m["figures_desk.grid.build_initial.calls"] == 14
    assert m["figures_desk.cli.write_csv.bytes"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_every_request(workload):
    proc = _run("--workload", workload, "--trace", "0", "--perturb")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert _error_rate(proc.stdout, workload) == 1.0


def test_fails_without_the_package():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = _run("--workload", WORKLOADS[0], "--trace", "0", script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
