"""E8 — overhead and savings of the online energy subsystem.

Two checks:

* the incremental :class:`~repro.energy.accounting.EnergyMeter` (per-cluster
  and per-job attribution on every executed interval) adds less than 10 %
  wall-clock overhead to ``RuntimeManager.run`` compared to running with
  accounting disabled (the seed's scalar-total-only behaviour);
* under analytical accounting, the schedule-aware governor beats the
  fixed-frequency performance governor on a Poisson workload with zero
  deadline misses.
"""

import gc
import random
import statistics
import time

from repro.energy import PerformanceGovernor, ScheduleAwareGovernor
from repro.runtime import RuntimeManager
from repro.runtime.trace import poisson_trace
from repro.schedulers import MMKPMDFScheduler
from repro.workload.motivational import motivational_platform, motivational_tables

#: Poisson workload driven through the manager for the overhead measurement.
NUM_REQUESTS = 150
ARRIVAL_RATE = 0.25
#: Acceptance threshold on the median metered / unmetered wall-clock ratio.
MAX_OVERHEAD = 1.10
#: Metered/unmetered pairs; each pair yields one ratio.
PAIRS = 40


def _run_seconds(manager, trace) -> float:
    start = time.perf_counter()
    manager.run(trace)
    return time.perf_counter() - start


def _pair_ratios(metered, unmetered, trace) -> list[float]:
    """One metered/unmetered wall-clock ratio per pair.

    The two runs of a pair go in random order (fixed seed), so a slow phase
    of the host lands on either side with equal odds instead of on all the
    runs of one side; the collector runs between pairs, not inside them.
    """
    order = random.Random(2020)
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PAIRS):
            if order.random() < 0.5:
                with_meter = _run_seconds(metered, trace)
                without_meter = _run_seconds(unmetered, trace)
            else:
                without_meter = _run_seconds(unmetered, trace)
                with_meter = _run_seconds(metered, trace)
            ratios.append(with_meter / without_meter)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios


def test_online_meter_overhead(benchmark):
    platform, tables = motivational_platform(), motivational_tables()
    trace = poisson_trace(
        tables, arrival_rate=ARRIVAL_RATE, num_requests=NUM_REQUESTS, seed=2020
    )
    metered = RuntimeManager.from_components(platform, tables, MMKPMDFScheduler())
    unmetered = RuntimeManager.from_components(
        platform, tables, MMKPMDFScheduler(), account_energy=False
    )
    # Warm up both paths, then gate the median of the pair ratios.
    metered.run(trace)
    unmetered.run(trace)
    ratios = _pair_ratios(metered, unmetered, trace)
    ratio = statistics.median(ratios)
    quartiles = statistics.quantiles(ratios, n=4)
    print(
        f"\nE8 — meter overhead over {NUM_REQUESTS} requests, {len(ratios)} "
        f"pairs: median {(ratio - 1) * 100:+.1f} % "
        f"(quartiles {(quartiles[0] - 1) * 100:+.1f} to "
        f"{(quartiles[2] - 1) * 100:+.1f} %)"
    )
    assert ratio < MAX_OVERHEAD, (
        f"online energy accounting costs {(ratio - 1) * 100:.1f} % "
        f"(budget: {(MAX_OVERHEAD - 1) * 100:.0f} %)"
    )
    benchmark(metered.run, trace)


def test_governor_savings_on_poisson_workload():
    platform, tables = motivational_platform(), motivational_tables()
    trace = poisson_trace(
        tables, arrival_rate=0.15, num_requests=50, seed=7
    )

    def run(governor):
        manager = RuntimeManager.from_components(
            platform, tables, MMKPMDFScheduler(), governor=governor
        )
        return manager.run(trace)

    fixed = run(PerformanceGovernor())
    aware = run(ScheduleAwareGovernor())
    saving = 1.0 - aware.total_energy / fixed.total_energy
    print(
        f"\nE8 — governor comparison over 50 Poisson requests: "
        f"performance {fixed.total_energy:.2f} J vs schedule-aware "
        f"{aware.total_energy:.2f} J ({saving * 100:.1f} % saved)"
    )
    assert not aware.deadline_misses
    assert aware.total_energy <= fixed.total_energy
