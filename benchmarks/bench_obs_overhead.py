"""repro.obs — span-tracing overhead on the kernel arrival-handling run.

Re-runs the :mod:`bench_kernel_incremental` workload (high load, incremental
kernel) with a live :class:`repro.obs.Tracer` around the whole run and
compares the best-of-N wall time against the untraced run.  Two gates:

* **enabled** tracing must stay under :data:`MAX_ENABLED_OVERHEAD`
  (default 5 %, ``REPRO_BENCH_OBS_MAX_OVERHEAD`` overrides) — every hot
  layer is instrumented (arrival spans, pipeline phases, solver spans,
  cache counters), so this bounds the *total* cost of observability;
* **disabled** tracing has no dedicated gate: the instrumented code runs
  in every other benchmark with tracing off, so the existing
  ``kernel_incremental`` speedup floor in ``BENCH_BASELINE.json`` is the
  disabled-overhead regression gate.

The traced run must stay bit-identical to the untraced one — observability
that changes behaviour is a bug, not overhead.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_kernel_incremental as kernel_bench  # noqa: E402

from repro.obs import Tracer  # noqa: E402
from repro.runtime.manager import RuntimeManager  # noqa: E402
from repro.schedulers import MMKPMDFScheduler  # noqa: E402

#: Acceptance ceiling on (traced - untraced) / untraced wall time.
MAX_ENABLED_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", "0.05")
)


def _one_run(platform, tables, trace, tracer):
    """One timed kernel run (fresh manager), traced when ``tracer`` is set."""
    manager = RuntimeManager.from_components(platform, tables, MMKPMDFScheduler())
    if tracer is None:
        started = time.perf_counter()
        log = manager.run(trace)
        return time.perf_counter() - started, log
    started = time.perf_counter()
    with tracer:
        log = manager.run(trace)
    return time.perf_counter() - started, log


def _fastest_half_mean(samples: list[float]) -> float:
    """Mean of the fastest half of ``samples`` (at least one)."""
    ordered = sorted(samples)
    half = ordered[: max(1, len(ordered) // 2)]
    return sum(half) / len(half)


def measure_tracing_overhead(repeats: int = 5, setup: tuple | None = None):
    """Traced-vs-untraced best-of-N wall times of the kernel workload.

    One untimed warm-up run, then the disabled and enabled measurements run
    in pairs with the order *randomised within each pair* (fixed seed): a
    host whose performance drifts — CPU frequency settling, cgroup
    throttling, periodic noisy neighbours — then penalises each side equally
    in expectation instead of systematically handing one side the slower
    slot (strict alternation can phase-lock with periodic interference).
    The collector is paused so a GC pass landing in one side's timing
    window cannot masquerade as tracing overhead.  ``setup`` lets
    :mod:`run_all` pass the workload it already built.

    Each side's wall time is the **mean of its fastest half** rather than a
    single best-of-N: the host's run-to-run jitter (CPU steal in shared
    containers) dwarfs the overhead being measured — identical untraced
    runs have been observed 35 % apart — and a ratio of two one-sample
    minima inherits one noisy slot per side in full.  Averaging the clean
    half keeps the low-bias character of a minimum while cutting the
    estimator's variance enough to resolve a few-percent ceiling.
    ``repeats`` is floored at 12 for the same reason: with 3 pairs a single
    noisy slot shows up as double-digit phantom overhead.
    """
    repeats = max(repeats, 12)
    platform, tables, trace = setup if setup is not None else kernel_bench._setup()
    order = random.Random(2020)
    disabled_runs: list[float] = []
    enabled_runs: list[float] = []
    disabled_log = enabled_log = None
    spans = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _one_run(platform, tables, trace, None)  # warm-up, untimed
        for pair in range(repeats):
            sides = ("disabled", "enabled")
            if order.random() < 0.5:
                sides = ("enabled", "disabled")
            for side in sides:
                if side == "disabled":
                    seconds, disabled_log = _one_run(platform, tables, trace, None)
                    disabled_runs.append(seconds)
                else:
                    tracer = Tracer(name="bench")
                    seconds, enabled_log = _one_run(platform, tables, trace, tracer)
                    enabled_runs.append(seconds)
                    spans = len(tracer)
            gc.collect()  # pay collection between pairs, not inside
    finally:
        if gc_was_enabled:
            gc.enable()
    assert kernel_bench.log_fingerprint(enabled_log) == kernel_bench.log_fingerprint(
        disabled_log
    ), "traced run diverged from the untraced run"
    disabled_s = _fastest_half_mean(disabled_runs)
    enabled_s = _fastest_half_mean(enabled_runs)
    return {
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "enabled_overhead": enabled_s / disabled_s - 1.0,
        "spans": spans,
    }


def test_tracing_overhead():
    result = measure_tracing_overhead()
    print(
        f"\nrepro.obs tracing overhead ({result['spans']} spans):\n"
        f"  disabled: {result['disabled_s'] * 1e3:7.1f} ms\n"
        f"  enabled:  {result['enabled_s'] * 1e3:7.1f} ms\n"
        f"  overhead: {result['enabled_overhead'] * 100:+.2f} % "
        f"(ceiling {MAX_ENABLED_OVERHEAD * 100:.0f} %)"
    )
    assert result["enabled_overhead"] < MAX_ENABLED_OVERHEAD, (
        f"enabled tracing costs {result['enabled_overhead'] * 100:.2f} % "
        f"(ceiling {MAX_ENABLED_OVERHEAD * 100:.0f} %)"
    )
