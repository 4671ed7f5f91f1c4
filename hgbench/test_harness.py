"""Self-test of the benchmark harness.

Quick runs of every workload must pass on the program as it is, and a wrong
answer injected from the benchmark side must make failed_frac positive, so
the checker cannot pass silently.  Run from the repository root:

    python3 -m pytest hgbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_checkout_source()

import workloads  # noqa: E402
from hanggraph import kernels  # noqa: E402

WORKLOADS = ("sweep", "classify", "query", "cold")


def quick(workload: str, trace: bool = False):
    return run.run(workload, seed=5, seconds=0.3, trace=trace, quick=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct(workload):
    result, report = quick(workload)
    assert result["correct"] and report["failed_frac"] == 0, report["failures"]
    assert set(result["metrics"]) == set(run.metric_units()["end_to_end"])


def test_traced_run_reports_every_layer_metric():
    result, report = quick("query", trace=True)
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == set(run.metric_units()["per_layer"])
    assert result["metrics"]["kernels.apsp.calls"] > 0


def test_scaling_multiplies_measured_time_and_latencies():
    tally = workloads.Tally("measured")
    tally.ops, tally.timed_ns = 3, 3_000_000
    for ns in (500_000, 1_000_000, 1_500_000):
        tally.lat.add(ns)
    half = tally.scaled(0.5)
    assert half.ops == 3 and half.timed_ns == 1_500_000
    assert half.ops_per_s == 2 * tally.ops_per_s
    assert half.lat.count == 3
    assert half.lat.percentile_ms(50) == pytest.approx(0.5, rel=0.01)
    reference = workloads.calibrate.CHECKER_BFS
    assert reference.speed([reference.nominal_ns * 2]) == 0.5


def flip_hangable_flag(monkeypatch):
    original = kernels.classify_bits

    def flipped(n, bits):
        flags, *rest = original(n, bits)
        return (flags ^ kernels.F_HANGABLE, *rest)

    monkeypatch.setattr(kernels, "classify_bits", flipped)


def flip_subset_verdict(monkeypatch):
    original = kernels.hangable_subset

    def flipped(dist, n):
        ok, v, u = original(dist, n)
        return (not ok, v, u)

    monkeypatch.setattr(kernels, "hangable_subset", flipped)


def corrupt_process_output(monkeypatch):
    original = workloads.run_cli_process

    def corrupted(args):
        rc, out = original(args)
        return rc, out.replace("true", "false")

    monkeypatch.setattr(workloads, "run_cli_process", corrupted)


@pytest.mark.parametrize("workload, inject", [
    ("sweep", flip_hangable_flag),
    ("classify", flip_subset_verdict),
    ("query", flip_subset_verdict),
    ("cold", corrupt_process_output),
])
def test_injected_wrong_answer_is_counted(workload, inject, monkeypatch):
    inject(monkeypatch)
    result, report = quick(workload)
    assert report["failed_frac"] > 0
    assert not result["correct"]


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "selftest-bare"  # holds only BENCHMARK.json and the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
