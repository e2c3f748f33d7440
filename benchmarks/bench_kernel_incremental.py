"""repro.kernel — incremental arrival handling vs. seed full re-solves.

Drives one online runtime-manager trace at *high load* (large active sets,
~50 % admission) through MMKP-MDF twice: once on the production runtime
manager (the incremental kernel: prefix-resumable EDF packing, monotone
feasibility filtering, ledger-gated pruning, shared view slices) and once on
the reference oracle of ``tests/reference`` (the seed: list-based
Algorithm 1 and 2, full re-solve per arrival).  Both runs must produce
bit-identical logs.

Acceptance target of the repro.kernel refactor: **≥ 1.5× faster arrival
handling at high load**.  The measured ratio is machine-independent enough
to gate on (both paths run the same Python on the same host); the wall
times are not.

Scale knobs (environment):

* ``REPRO_BENCH_KERNEL_POINTS`` — operating points per application
  (default 16; more points mean deeper configuration probing per arrival).
* ``REPRO_BENCH_KERNEL_RATE`` — Poisson arrival rate (default 2.5; high
  load keeps many jobs active per activation).
* ``REPRO_BENCH_KERNEL_REQUESTS`` — trace length (default 300).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.runtime.trace import poisson_trace
from repro.schedulers import MMKPMDFScheduler

# The reference oracle lives with the tests (tests/reference).
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference.oracle import ReferenceMDF, ReferenceRuntime  # noqa: E402

#: The acceptance floor, minus measurement headroom for noisy CI hosts (the
#: checked-in BENCH_RESULTS.json records the actual ratio, ~10x locally
#: against the list-based oracle; BENCH_BASELINE.json gates it).
MIN_SPEEDUP = 1.35


def _setup():
    platform = odroid_xu4()
    points = int(os.environ.get("REPRO_BENCH_KERNEL_POINTS", "16"))
    rate = float(os.environ.get("REPRO_BENCH_KERNEL_RATE", "2.5"))
    requests = int(os.environ.get("REPRO_BENCH_KERNEL_REQUESTS", "300"))
    tables = reduced_tables(paper_operating_points(platform), max_points=points)
    trace = poisson_trace(tables, arrival_rate=rate, num_requests=requests, seed=2020)
    return platform, tables, trace


def _best_run_time(platform, tables, trace, reference: bool, repeats: int = 3):
    """Best wall time of the production run, or of the oracle's."""
    best = float("inf")
    log = None
    for _ in range(repeats):
        if reference:
            manager = ReferenceRuntime(platform, tables, ReferenceMDF())
        else:
            manager = RuntimeManager.from_components(
                platform, tables, MMKPMDFScheduler()
            )
        started = time.perf_counter()
        log = manager.run(trace)
        best = min(best, time.perf_counter() - started)
    return best, log


def log_fingerprint(log):
    return (
        repr(log.total_energy),
        log.activations,
        tuple(
            (o.name, o.accepted, repr(o.completion_time)) for o in log.outcomes
        ),
        tuple(
            (repr(i.start), repr(i.end), repr(i.energy), i.job_configs)
            for i in log.timeline
        ),
    )


def test_kernel_incremental_arrival_handling(benchmark):
    platform, tables, trace = _setup()

    kernel_s, kernel_log = _best_run_time(platform, tables, trace, reference=False)
    seed_s, seed_log = _best_run_time(platform, tables, trace, reference=True)

    # The speedup must be pure reuse: bit-identical logs or it does not count.
    assert log_fingerprint(kernel_log) == log_fingerprint(seed_log)

    arrivals = len(trace)
    speedup = seed_s / kernel_s
    print(
        f"\nrepro.kernel incremental arrival handling "
        f"({arrivals} arrivals, acceptance {kernel_log.acceptance_rate:.0%}):"
    )
    print(
        f"  kernel: {kernel_s * 1e3:7.1f} ms  "
        f"({arrivals / kernel_s:7.0f} arrivals/s)"
    )
    print(
        f"  seed:   {seed_s * 1e3:7.1f} ms  "
        f"({arrivals / seed_s:7.0f} arrivals/s)"
    )
    print(f"  speedup: {speedup:.2f}x (target >= 1.5x, floor {MIN_SPEEDUP}x)")

    assert speedup >= MIN_SPEEDUP, (
        f"incremental kernel only {speedup:.2f}x faster than the seed path "
        f"(floor {MIN_SPEEDUP}x)"
    )

    # Benchmark fixture: one full production run for the timing report.
    def run_kernel():
        return RuntimeManager.from_components(
            platform, tables, MMKPMDFScheduler()
        ).run(trace)

    benchmark(run_kernel)


def test_kernel_delta_share_is_substantial():
    """At high load most placements must come from resumed prefixes."""
    from repro.api.events import RunEventKind

    platform, tables, trace = _setup()
    events = []
    RuntimeManager.from_components(platform, tables, MMKPMDFScheduler()).run(
        trace, observer=events.append
    )
    summary = next(e for e in events if e.kind is RunEventKind.KERNEL).data
    print(
        f"\n  delta share: {summary['delta_share']:.1%} of "
        f"{summary['resumed_steps'] + summary['replayed_steps']} placements "
        f"resumed; {summary['prunes_skipped']} prune scans gated out"
    )
    assert summary["delta_share"] >= 0.25
