#!/usr/bin/env python
"""Run every benchmark and write a machine-readable ``BENCH_RESULTS.json``.

The perf trajectory of this repository was previously untracked: each
``bench_*.py`` printed its figures and the numbers evaporated with the
terminal.  This runner

1. executes every ``benchmarks/bench_*.py`` in **one** pytest session (the
   expensive workload/table fixtures are session-scoped, so sharing the
   session costs a fraction of running the files separately), recording the
   wall time of every benchmark test;
2. measures the headline kernel metrics directly — scheduler activation
   throughput on the census workload for the production columnar
   ``repro.optable`` path *and* the seed list path of the reference oracle
   in ``tests/reference`` (the ratio is the machine-independent speedup the
   acceptance gate tracks), per-activation search times, the incremental
   ``repro.kernel`` arrival-handling ratio against the oracle's full
   re-solves, and the Pareto engine against the seed's O(n²) reference;
3. writes everything to ``BENCH_RESULTS.json`` (name → wall time, throughput,
   key metric) next to this file, or to ``--output``.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full configured scale
    PYTHONPATH=src python benchmarks/run_all.py --smoke    # quick CI scale
    PYTHONPATH=src python benchmarks/run_all.py --smoke --check-baseline

``--check-baseline`` compares the scheduling-rate speedup against the
checked-in ``BENCH_BASELINE.json`` and exits non-zero on a regression beyond
the allowed fraction (default 25 %) — wall times are host-specific, so the
gate tracks the columnar/list *ratio*, which is not.

The checked-in ``BENCH_RESULTS.json`` is the reference snapshot of the last
accepted perf-relevant change (its ``meta`` section names the host).  Local
or CI runs overwrite it in the worktree by design — that diff *is* the perf
trajectory; commit the refresh only alongside perf-relevant changes, or pass
``--output`` elsewhere to keep the tree clean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_module
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_OUTPUT = BENCH_DIR / "BENCH_RESULTS.json"
BASELINE_PATH = BENCH_DIR / "BENCH_BASELINE.json"

#: Environment overrides applied by ``--smoke`` (CI-friendly scale).  The
#: census fraction and table cap stay at the documented defaults: the Fig. 3
#: shape assertion needs the 8-point tables (6-point tables flip the
#: MDF-vs-LR optimal-share ordering at tiny scale — a workload property, not
#: a perf one), so smoke mode only pins the worker count and the benchmark
#: repeat count down.
SMOKE_ENV = {
    "REPRO_BENCH_FRACTION": "0.05",
    "REPRO_BENCH_MAX_POINTS": "8",
    "REPRO_BENCH_WORKERS": "2",
    "REPRO_BENCH_STORE_POINTS": "6",
    "REPRO_BENCH_STORE_REQUESTS": "10",
    "REPRO_BENCH_SWEEP_FRACTION": "0.005",
}


class _TimingPlugin:
    """Collect per-test wall times and outcomes from one pytest session."""

    def __init__(self):
        self.tests: dict[str, dict] = {}

    def pytest_runtest_logreport(self, report):
        if report.when != "call":
            return
        entry = self.tests.setdefault(
            report.nodeid, {"wall_time_s": 0.0, "status": "ok"}
        )
        entry["wall_time_s"] += report.duration
        if report.failed:
            entry["status"] = "failed"
        elif report.skipped:
            entry["status"] = "skipped"


def run_pytest_benches(extra_args: list[str]) -> tuple[dict, int]:
    """Run every bench_*.py in one shared pytest session."""
    import pytest

    plugin = _TimingPlugin()
    files = sorted(str(path) for path in BENCH_DIR.glob("bench_*.py"))
    args = ["-q", "-p", "no:cacheprovider", *extra_args, *files]
    started = time.perf_counter()
    exit_code = pytest.main(args, plugins=[plugin])
    elapsed = time.perf_counter() - started

    per_file: dict[str, dict] = {}
    for nodeid, entry in plugin.tests.items():
        name = Path(nodeid.split("::", 1)[0]).stem
        bucket = per_file.setdefault(
            name, {"wall_time_s": 0.0, "tests": 0, "status": "ok"}
        )
        bucket["wall_time_s"] += entry["wall_time_s"]
        bucket["tests"] += 1
        if entry["status"] == "failed":
            bucket["status"] = "failed"
    for bucket in per_file.values():
        bucket["wall_time_s"] = round(bucket["wall_time_s"], 4)
    return (
        {"session_wall_time_s": round(elapsed, 3), "files": per_file},
        int(exit_code),
    )


def _census_problems(sets: int):
    """``sets`` independent lists of the census problems, plus the scale."""
    from repro.dse import paper_operating_points, reduced_tables
    from repro.platforms import odroid_xu4
    from repro.workload import EvaluationSuite
    from repro.workload.suite import scaled_census, table_iii_census

    fraction = float(os.environ.get("REPRO_BENCH_FRACTION", "0.05"))
    max_points = int(os.environ.get("REPRO_BENCH_MAX_POINTS", "8"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2020"))
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=max_points)
    census = table_iii_census() if fraction >= 1.0 else scaled_census(fraction)
    suite = EvaluationSuite.generate(tables, census, seed=seed)
    problem_sets = [
        [case.problem(platform, tables) for case in suite.cases] for _ in range(sets)
    ]
    return problem_sets, {"fraction": fraction, "max_points": max_points, "seed": seed}


def _sweep_s(scheduler_factory, problems) -> float:
    """Seconds one fresh scheduler takes to activate on every problem."""
    # A fresh scheduler per sweep: per-instance solve memos start cold.
    scheduler = scheduler_factory()
    started = time.perf_counter()
    for problem in problems:
        scheduler.schedule(problem)
    return time.perf_counter() - started


def _throughput(sides, repeats: int) -> list[float]:
    """Best activations-per-second of each ``(factory, problems)`` side.

    Every repeat runs one census sweep per side, alternating which side goes
    first, so a slow phase of the host lands on both sides instead of on
    one.  Each side sweeps its own problem objects: a per-problem cache (the
    lazily built ``problem.view()``) one side fills never speeds up the other.
    """
    best = [float("inf")] * len(sides)
    for repeat in range(repeats):
        order = list(range(len(sides)))
        if repeat % 2:
            order.reverse()
        for side in order:
            best[side] = min(best[side], _sweep_s(*sides[side]))
    return [len(problems) / seconds for (_, problems), seconds in zip(sides, best)]


def measure_kernel_metrics(repeats: int = 3) -> dict:
    """Direct production-vs-oracle measurements (the acceptance-gate numbers)."""
    # The bench modules sit next to this file; the reference oracle
    # (tests/reference) under the repository root.
    for path in (BENCH_DIR, REPO_ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from repro.optable import intern_info
    from repro.schedulers import MMKPLRScheduler, MMKPMDFScheduler
    from tests.reference.oracle import ReferenceLR, ReferenceMDF

    (problems, reference_problems), scale = _census_problems(sets=2)
    metrics: dict = {"scale": scale, "census_cases": len(problems)}

    # Fig. 2 hot path: MMKP-MDF activation throughput over the census.
    schedulers = {
        "mmkp-mdf": (MMKPMDFScheduler, ReferenceMDF),
        "mmkp-lr": (MMKPLRScheduler, ReferenceLR),
    }
    for name, (factory, reference) in schedulers.items():
        columnar, legacy = _throughput(
            [(factory, problems), (reference, reference_problems)], repeats
        )
        metrics[f"scheduling_rate/{name}"] = {
            "throughput_columnar_per_s": round(columnar, 2),
            "throughput_list_per_s": round(legacy, 2),
            "columnar_speedup": round(columnar / legacy, 3),
            "mean_search_time_columnar_s": round(1.0 / columnar, 6),
            "mean_search_time_list_s": round(1.0 / legacy, 6),
        }

    # repro.kernel: incremental arrival handling against seed full re-solves.
    # Setup and measurement come from bench_kernel_incremental itself, so
    # the gated CI metric can never drift from the workload the pytest bench
    # records (same REPRO_BENCH_KERNEL_* knobs, same seed, same best-of-N).
    import bench_kernel_incremental as kernel_bench

    platform, kernel_tables, kernel_trace = kernel_bench._setup()
    kernel_s, kernel_log = kernel_bench._best_run_time(
        platform, kernel_tables, kernel_trace, reference=False, repeats=repeats
    )
    seed_s, seed_log = kernel_bench._best_run_time(
        platform, kernel_tables, kernel_trace, reference=True, repeats=repeats
    )
    assert kernel_bench.log_fingerprint(kernel_log) == kernel_bench.log_fingerprint(
        seed_log
    ), "incremental kernel diverged from the seed path"
    metrics["kernel_incremental"] = {
        "arrivals": len(kernel_trace),
        "acceptance_rate": round(kernel_log.acceptance_rate, 3),
        "arrivals_per_s_kernel": round(len(kernel_trace) / kernel_s, 1),
        "arrivals_per_s_seed": round(len(kernel_trace) / seed_s, 1),
        "speedup": round(seed_s / kernel_s, 3),
        "scale": {
            "max_points": int(os.environ.get("REPRO_BENCH_KERNEL_POINTS", "16")),
            "arrival_rate": float(os.environ.get("REPRO_BENCH_KERNEL_RATE", "2.5")),
            "requests": int(os.environ.get("REPRO_BENCH_KERNEL_REQUESTS", "300")),
        },
    }

    # repro.obs: span-tracing overhead on the same kernel workload.  The
    # measurement (interleaved best-of-N, GC paused) lives in
    # bench_obs_overhead so the gated metric matches the pytest bench.
    import bench_obs_overhead as obs_bench

    overhead = obs_bench.measure_tracing_overhead(
        repeats=repeats, setup=(platform, kernel_tables, kernel_trace)
    )
    metrics["tracing_overhead"] = {
        "spans": overhead["spans"],
        "disabled_ms": round(overhead["disabled_s"] * 1e3, 1),
        "enabled_ms": round(overhead["enabled_s"] * 1e3, 1),
        "enabled_overhead": round(overhead["enabled_overhead"], 4),
    }

    # Fig. 4 companion: the Pareto engine against the seed's pairwise scan.
    from repro.dse.pareto import pareto_front
    from tests.reference.pareto import pareto_front_reference

    import random

    rng = random.Random(2020)
    sweep = [
        (
            float(rng.randrange(0, 5)),
            float(rng.randrange(0, 9)),
            rng.random() * 10.0,
            rng.random() * 30.0,
        )
        for _ in range(1500)
    ]
    # Untimed: the engine's numpy dominance kernel imports numpy on its
    # first front of 32 or more points, which must not land in engine_s.
    pareto_front(sweep[:32], objectives=lambda p: p)
    started = time.perf_counter()
    fast = pareto_front(sweep, objectives=lambda p: p)
    fast_s = time.perf_counter() - started
    started = time.perf_counter()
    reference = pareto_front_reference(sweep, objectives=lambda p: p)
    reference_s = time.perf_counter() - started
    assert fast == reference, "Pareto engine diverged from the reference"
    metrics["pareto_front"] = {
        "points": len(sweep),
        "front_size": len(fast),
        "engine_s": round(fast_s, 5),
        "reference_s": round(reference_s, 5),
        "speedup": round(reference_s / fast_s, 2) if fast_s > 0 else float("inf"),
    }
    metrics["optable_intern"] = intern_info()

    # repro.gateway: warm runs/sec through the network daemon.  Measurement
    # lives in bench_gateway_throughput so the gated CI metric is exactly
    # what the pytest bench asserts (same spec, same warm-up, same clients).
    import bench_gateway_throughput as gateway_bench

    metrics["gateway_throughput"] = gateway_bench.measure_gateway_throughput()

    # repro.store + repro.cluster: warm-store rerun speedup and cluster
    # core efficiency.  Measurements live in bench_store_warm so the gated
    # CI metrics are exactly what the pytest benches assert.
    import bench_store_warm as store_bench

    metrics["store_warm"] = store_bench.measure_store_warm()
    metrics["cluster_scaling"] = store_bench.measure_cluster_scaling()

    # repro.dse.sweep: planner dedupe + cross-point batched solves against
    # the per-point serial path.  Measurement lives in bench_dse_sweep so
    # the gated CI metric is exactly what the pytest bench asserts.
    import bench_dse_sweep as sweep_bench

    metrics["dse_sweep"] = sweep_bench.measure_dse_sweep()

    # repro.knapsack._dense: batched numpy MMKP-LR admission vs the pure
    # sequential reference (solver_numpy_override on vs off).  Measurement
    # lives in bench_lr_vectorised so the gated metric matches the pytest
    # bench.
    import bench_lr_vectorised as lr_bench

    metrics["lr_vectorised"] = lr_bench.measure_lr_vectorised(repeats=repeats)
    return metrics


def check_baseline(results: dict, tolerance: float) -> list[str]:
    """Compare the recorded speedup ratios against the checked-in baseline."""
    if not BASELINE_PATH.exists():
        return [f"baseline file {BASELINE_PATH} is missing"]
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for name, expected in baseline.get("scheduling_rate", {}).items():
        entry = results["metrics"].get(f"scheduling_rate/{name}")
        if entry is None:
            failures.append(f"scheduling_rate/{name}: missing from results")
            continue
        floor = expected["columnar_speedup"] * (1.0 - tolerance)
        actual = entry["columnar_speedup"]
        if actual < floor:
            failures.append(
                f"scheduling_rate/{name}: columnar speedup {actual:.3f} fell "
                f"below {floor:.3f} (baseline {expected['columnar_speedup']:.3f} "
                f"- {tolerance:.0%})"
            )
    expected = baseline.get("gateway_throughput")
    if expected is not None:
        entry = results["metrics"].get("gateway_throughput")
        if entry is None:
            failures.append("gateway_throughput: missing from results")
        else:
            # An absolute floor, not a ratio: the subsystem's acceptance
            # criterion is ">= 50 finished runs/sec warm" on any host.
            floor = expected["min_runs_per_s"]
            if entry["runs_per_s_warm"] < floor:
                failures.append(
                    f"gateway_throughput: {entry['runs_per_s_warm']:.1f} "
                    f"runs/s warm fell below the absolute {floor:.0f}/s floor"
                )
    expected = baseline.get("kernel_incremental")
    if expected is not None:
        entry = results["metrics"].get("kernel_incremental")
        if entry is None:
            failures.append("kernel_incremental: missing from results")
        else:
            floor = expected["speedup"] * (1.0 - tolerance)
            if entry["speedup"] < floor:
                failures.append(
                    f"kernel_incremental: arrival-handling speedup "
                    f"{entry['speedup']:.3f} fell below {floor:.3f} "
                    f"(baseline {expected['speedup']:.3f} - {tolerance:.0%})"
                )
    expected = baseline.get("store_warm")
    if expected is not None:
        entry = results["metrics"].get("store_warm")
        if entry is None:
            failures.append("store_warm: missing from results")
        else:
            # An absolute floor: a warm-store rerun must skip essentially
            # all scheduling work, regardless of host speed.
            floor = expected["min_speedup"]
            if entry["speedup"] < floor:
                failures.append(
                    f"store_warm: warm rerun {entry['speedup']:.1f}x over cold "
                    f"fell below the absolute {floor:.0f}x floor"
                )
    expected = baseline.get("dse_sweep")
    if expected is not None:
        entry = results["metrics"].get("dse_sweep")
        if entry is None:
            failures.append("dse_sweep: missing from results")
        else:
            # An absolute floor, like store_warm: the sweep engine must beat
            # the per-point serial path by the subsystem's acceptance
            # criterion on any host (the bench itself asserts the frontier
            # fingerprint and the cross-point dedupe counters).
            floor = expected["min_speedup"]
            if entry["speedup"] < floor:
                failures.append(
                    f"dse_sweep: sweep {entry['speedup']:.1f}x over the "
                    f"serial per-point path fell below the absolute "
                    f"{floor:.1f}x floor"
                )
            if entry["cross_point_deduped_solves"] <= 0:
                failures.append(
                    "dse_sweep: no cross-point solve sharing happened"
                )
    expected = baseline.get("cluster_scaling")
    if expected is not None:
        entry = results["metrics"].get("cluster_scaling")
        if entry is None:
            failures.append("cluster_scaling: missing from results")
        else:
            # An absolute floor on speedup per *available* core, so the gate
            # means "near-linear" on multi-core hosts and "no pathological
            # overhead" on single-core ones.
            floor = expected["min_core_efficiency"]
            if entry["core_efficiency"] < floor:
                failures.append(
                    f"cluster_scaling: core efficiency "
                    f"{entry['core_efficiency']:.2f} (speedup "
                    f"{entry['speedup']:.2f}x over "
                    f"{entry['available_parallelism']} cores) fell below "
                    f"the {floor:.2f} floor"
                )
    expected = baseline.get("tracing_overhead")
    if expected is not None:
        entry = results["metrics"].get("tracing_overhead")
        if entry is None:
            failures.append("tracing_overhead: missing from results")
        else:
            # An absolute ceiling (no tolerance scaling): enabled tracing
            # must never cost more than the acceptance criterion allows.
            ceiling = expected["max_enabled_overhead"]
            if entry["enabled_overhead"] > ceiling:
                failures.append(
                    f"tracing_overhead: enabled tracing costs "
                    f"{entry['enabled_overhead'] * 100:.2f} % (ceiling "
                    f"{ceiling * 100:.0f} %)"
                )
    expected = baseline.get("lr_vectorised")
    if expected is not None:
        entry = results["metrics"].get("lr_vectorised")
        if entry is None:
            failures.append("lr_vectorised: missing from results")
        elif not entry.get("numpy", False):
            # The dense backend cannot engage without numpy; the pure path
            # is still exercised (and gated bit-identical) by the test
            # suites, so a numpy-free host skips the throughput floor.
            pass
        else:
            # An absolute floor: the dense backend's acceptance criterion
            # is a minimum batched admission speedup on any host.
            floor = expected["min_activation_speedup"]
            if entry["activation_speedup"] < floor:
                failures.append(
                    f"lr_vectorised: batched dense admission "
                    f"{entry['activation_speedup']:.2f}x over the pure path "
                    f"fell below the absolute {floor:.1f}x floor"
                )
            # The stacked-solver ratio is host-independent like the other
            # same-host A/B ratios and gated with the standard tolerance.
            floor = expected["solver_batch_speedup"] * (1.0 - tolerance)
            if entry["solver_batch_speedup"] < floor:
                failures.append(
                    f"lr_vectorised: stacked solver speedup "
                    f"{entry['solver_batch_speedup']:.2f} fell below "
                    f"{floor:.2f} (baseline "
                    f"{expected['solver_batch_speedup']:.2f} - {tolerance:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true", help="quick CI scale")
    parser.add_argument(
        "--skip-pytest",
        action="store_true",
        help="only measure the direct kernel metrics (no bench_*.py session)",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail on a scheduling-rate regression vs BENCH_BASELINE.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression vs the baseline (default 0.25)",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "pytest_args", nargs="*", help="extra arguments forwarded to pytest"
    )
    options = parser.parse_args(argv)

    if options.smoke:
        for key, value in SMOKE_ENV.items():
            os.environ.setdefault(key, value)

    sys.path.insert(0, str(REPO_ROOT / "src"))

    from repro.knapsack import HAVE_NUMPY

    results: dict = {
        "meta": {
            "python": platform_module.python_version(),
            "platform": platform_module.platform(),
            "smoke": options.smoke,
            "numpy_fast_path": HAVE_NUMPY,
            "bench_env": {
                key: os.environ.get(key)
                for key in (
                    "REPRO_BENCH_FRACTION",
                    "REPRO_BENCH_MAX_POINTS",
                    "REPRO_BENCH_SEED",
                    "REPRO_BENCH_WORKERS",
                    "REPRO_BENCH_STORE_POINTS",
                    "REPRO_BENCH_STORE_REQUESTS",
                    "REPRO_BENCH_STORE_TRACES",
                    "REPRO_BENCH_SWEEP_SIZES",
                    "REPRO_BENCH_SWEEP_SCENARIOS",
                    "REPRO_BENCH_SWEEP_FRACTION",
                )
                if os.environ.get(key) is not None
            },
        }
    }

    print("== direct kernel metrics (columnar vs list) ==")
    results["metrics"] = measure_kernel_metrics(repeats=options.repeats)
    for name, entry in sorted(results["metrics"].items()):
        if name.startswith("scheduling_rate/"):
            print(
                f"  {name}: {entry['throughput_columnar_per_s']:.0f}/s columnar, "
                f"{entry['throughput_list_per_s']:.0f}/s list "
                f"({entry['columnar_speedup']:.2f}x)"
            )
    kernel = results["metrics"]["kernel_incremental"]
    print(
        f"  kernel_incremental: {kernel['arrivals_per_s_kernel']:.0f}/s kernel, "
        f"{kernel['arrivals_per_s_seed']:.0f}/s seed "
        f"({kernel['speedup']:.2f}x arrival handling)"
    )
    gateway = results["metrics"]["gateway_throughput"]
    print(
        f"  gateway_throughput: {gateway['runs_per_s_warm']:.0f} runs/s warm "
        f"over {gateway['clients']} clients "
        f"({gateway['gateway_efficiency']:.0%} of in-process)"
    )
    store = results["metrics"]["store_warm"]
    print(
        f"  store_warm: {store['warm_s'] * 1e3:.0f} ms warm vs "
        f"{store['cold_s'] * 1e3:.0f} ms cold ({store['speedup']:.1f}x, "
        f"{store['warm_store_hits']} store hits)"
    )
    scaling = results["metrics"]["cluster_scaling"]
    print(
        f"  cluster_scaling: {scaling['speedup']:.2f}x with "
        f"{scaling['workers']} workers on {scaling['cpus']} cpus "
        f"({scaling['core_efficiency']:.0%} per available core)"
    )
    sweep = results["metrics"]["dse_sweep"]
    print(
        f"  dse_sweep: {sweep['speedup']:.1f}x over the serial per-point "
        f"path ({sweep['explorations_deduped']} explorations deduped, "
        f"{sweep['cross_point_deduped_solves']} cross-point solve shares)"
    )
    pareto = results["metrics"]["pareto_front"]
    print(
        f"  pareto_front: {pareto['engine_s'] * 1e3:.1f} ms engine vs "
        f"{pareto['reference_s'] * 1e3:.1f} ms reference ({pareto['speedup']:.1f}x)"
    )
    tracing = results["metrics"]["tracing_overhead"]
    print(
        f"  tracing_overhead: {tracing['enabled_ms']:.1f} ms traced vs "
        f"{tracing['disabled_ms']:.1f} ms untraced "
        f"({tracing['enabled_overhead']:+.2%}, {tracing['spans']} spans)"
    )
    lr = results["metrics"]["lr_vectorised"]
    print(
        f"  lr_vectorised: {lr['throughput_batched_per_s']:.0f}/s batched numpy "
        f"vs {lr['throughput_pure_per_s']:.0f}/s pure "
        f"({lr['activation_speedup']:.2f}x activations, "
        f"{lr['solver_batch_speedup']:.1f}x stacked solver)"
    )

    exit_code = 0
    if not options.skip_pytest:
        print("== benchmark suite (one shared pytest session) ==")
        results["benches"], exit_code = run_pytest_benches(options.pytest_args)
        for name, entry in sorted(results["benches"]["files"].items()):
            print(
                f"  {name}: {entry['wall_time_s']:.2f}s over "
                f"{entry['tests']} tests [{entry['status']}]"
            )

    failures: list[str] = []
    if options.check_baseline:
        failures = check_baseline(results, options.tolerance)
        results["baseline_check"] = {
            "tolerance": options.tolerance,
            "failures": failures,
        }
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)

    options.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {options.output}")
    return 1 if failures else exit_code


if __name__ == "__main__":
    raise SystemExit(main())
