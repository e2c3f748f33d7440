"""The benchmark baseline gate must actually fail the run.

``benchmarks/run_all.py --check-baseline`` is the CI perf gate: a recorded
regression that still exits 0 is a green build with a red artifact.  These
tests pin the contract — ``check_baseline`` flags every gated metric family,
and ``main`` propagates a non-zero exit code when any failure is recorded —
without paying for a real benchmark run (the heavy measurement functions are
monkeypatched out).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import run_all  # noqa: E402


def _passing_metrics() -> dict:
    """Synthetic metrics that satisfy every gate of the checked-in baseline."""
    return {
        "scheduling_rate/mmkp-mdf": {
            "throughput_columnar_per_s": 100.0,
            "throughput_list_per_s": 10.0,
            "columnar_speedup": 10.0,
        },
        "scheduling_rate/mmkp-lr": {
            "throughput_columnar_per_s": 100.0,
            "throughput_list_per_s": 50.0,
            "columnar_speedup": 2.0,
        },
        "kernel_incremental": {
            "speedup": 20.0,
            "arrivals_per_s_kernel": 1000.0,
            "arrivals_per_s_seed": 50.0,
        },
        "gateway_throughput": {
            "runs_per_s_warm": 100.0,
            "clients": 4,
            "gateway_efficiency": 0.9,
        },
        "store_warm": {
            "speedup": 10.0,
            "warm_s": 0.1,
            "cold_s": 1.0,
            "warm_store_hits": 10,
        },
        "cluster_scaling": {
            "core_efficiency": 0.9,
            "speedup": 1.8,
            "available_parallelism": 2,
            "workers": 2,
            "cpus": 2,
        },
        "dse_sweep": {
            "speedup": 3.5,
            "points": 3,
            "explorations_deduped": 6,
            "cross_point_deduped_solves": 2,
            "baseline_s": 0.5,
            "sweep_s": 0.14,
        },
        "tracing_overhead": {
            "enabled_overhead": 0.01,
            "enabled_ms": 101.0,
            "disabled_ms": 100.0,
            "spans": 1000,
        },
        "pareto_front": {
            "points": 100,
            "front_size": 10,
            "engine_s": 0.01,
            "reference_s": 0.1,
            "speedup": 10.0,
        },
        "lr_vectorised": {
            "numpy": True,
            "activations": 87,
            "throughput_pure_per_s": 300.0,
            "throughput_batched_per_s": 1800.0,
            "activation_speedup": 6.0,
            "solver_batch": 48,
            "solver_batch_speedup": 25.0,
        },
    }


def test_passing_metrics_produce_no_failures():
    failures = run_all.check_baseline({"metrics": _passing_metrics()}, 0.25)
    assert failures == []


@pytest.mark.parametrize(
    ("metric", "field", "bad_value", "needle"),
    [
        ("scheduling_rate/mmkp-mdf", "columnar_speedup", 0.5, "scheduling_rate"),
        ("kernel_incremental", "speedup", 0.5, "kernel_incremental"),
        ("tracing_overhead", "enabled_overhead", 0.2, "tracing_overhead"),
        ("lr_vectorised", "activation_speedup", 1.5, "lr_vectorised"),
        ("lr_vectorised", "solver_batch_speedup", 0.5, "stacked solver"),
        ("dse_sweep", "speedup", 1.0, "dse_sweep"),
        ("dse_sweep", "cross_point_deduped_solves", 0, "cross-point"),
    ],
)
def test_each_gate_flags_its_regression(metric, field, bad_value, needle):
    metrics = _passing_metrics()
    metrics[metric][field] = bad_value
    failures = run_all.check_baseline({"metrics": metrics}, 0.25)
    assert any(needle in failure for failure in failures), failures


def test_lr_gate_skipped_without_numpy():
    metrics = _passing_metrics()
    metrics["lr_vectorised"] = {"numpy": False, "activation_speedup": 0.9}
    failures = run_all.check_baseline({"metrics": metrics}, 0.25)
    assert failures == []


def test_main_exits_nonzero_on_baseline_failure(monkeypatch, tmp_path, capsys):
    """A recorded regression must propagate to the process exit code."""
    metrics = _passing_metrics()
    metrics["lr_vectorised"]["activation_speedup"] = 1.0  # below the 1.8x floor
    monkeypatch.setattr(run_all, "measure_kernel_metrics", lambda repeats: metrics)
    output = tmp_path / "results.json"

    code = run_all.main(
        ["--skip-pytest", "--check-baseline", "--output", str(output)]
    )

    assert code != 0
    recorded = json.loads(output.read_text())
    assert recorded["baseline_check"]["failures"], recorded["baseline_check"]
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err


def test_main_exits_zero_when_gates_pass(monkeypatch, tmp_path):
    monkeypatch.setattr(
        run_all, "measure_kernel_metrics", lambda repeats: _passing_metrics()
    )
    output = tmp_path / "results.json"
    code = run_all.main(
        ["--skip-pytest", "--check-baseline", "--output", str(output)]
    )
    assert code == 0
    recorded = json.loads(output.read_text())
    assert recorded["baseline_check"]["failures"] == []
