"""E10 — batch-simulation service throughput (traces/sec).

Measures how fast :class:`~repro.service.pool.SimulationService` pushes a
repeated-sweep workload (the shape that dominates parameter studies: the same
trace seeds re-simulated across repeats and schedulers) through the runtime
manager, comparing

* one worker without the activation cache on the seed's list-based MMKP-MDF
  (the reference oracle of ``tests/reference``, registered under a name
  local to this benchmark; the historical baseline the service's ≥2× bar
  was set against),
* one worker without the cache on today's columnar ``repro.optable`` path,
* one worker with the cache (repeated activations solved once),
* ``--workers``/``REPRO_BENCH_WORKERS`` workers with a shared cache.

The acceptance bar of the service subsystem is a ≥ 2× traces/sec improvement
of cache + fan-out over the seed baseline.  Since the ``repro.optable``
refactor the *uncached* scheduler is itself ≥2× faster, so most of that
margin now comes from the kernel and the cache compresses the remainder; the
cache must still never lose throughput.  All configurations must simulate
every trace without failures, and every run — cached or not, columnar or
list — must produce bit-identical per-trace results.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.service import BatchSpec, SimulationService

# The reference oracle lives with the tests (tests/reference).
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference.oracle import registered_twins, result_key  # noqa: E402

#: Repeated-sweep workload: distinct trace seeds × repeats.
ARRIVAL_RATES = (0.15, 0.3)
TRACES_PER_POINT = 5
NUM_REQUESTS = 12
REPEATS = 8


def _sweep() -> BatchSpec:
    return BatchSpec.sweep(
        arrival_rates=ARRIVAL_RATES,
        schedulers=["mmkp-mdf"],
        traces_per_point=TRACES_PER_POINT,
        num_requests=NUM_REQUESTS,
        repeats=REPEATS,
        name="throughput",
    )


def _timed(service: SimulationService, spec: BatchSpec):
    start = time.perf_counter()
    results = service.run_batch(spec)
    elapsed = time.perf_counter() - start
    assert results.failures == [], [f.error for f in results.failures]
    return results, elapsed


def test_service_throughput(bench_workers):
    spec = _sweep()
    print(
        f"\nE10 — service throughput on a repeated sweep "
        f"({len(spec)} traces = {len(ARRIVAL_RATES)} rates × "
        f"{TRACES_PER_POINT} seeds × {REPEATS} repeats, "
        f"{NUM_REQUESTS} requests each)"
    )

    with registered_twins("service-bench") as names:
        jobs = tuple(replace(job, scheduler=names[job.scheduler]) for job in spec.jobs)
        oracle_spec = replace(spec, jobs=jobs)
        seed_results, seed_time = _timed(
            SimulationService(workers=1, use_cache=False), oracle_spec
        )

    baseline = SimulationService(workers=1, use_cache=False)
    baseline_results, baseline_time = _timed(baseline, spec)

    cached = SimulationService(workers=1, use_cache=True)
    cached_results, cached_time = _timed(cached, spec)

    fanout = SimulationService(workers=bench_workers, executor="thread", use_cache=True)
    fanout_results, fanout_time = _timed(fanout, spec)

    rows = [
        ("1 worker, list path", seed_time, 1.0),
        ("1 worker, cache off", baseline_time, seed_time / baseline_time),
        ("1 worker, cache on", cached_time, seed_time / cached_time),
        (
            f"{bench_workers} workers, cache on",
            fanout_time,
            seed_time / fanout_time,
        ),
    ]
    print(f"{'configuration':28s} {'time':>9s} {'traces/s':>10s} {'speedup':>9s}")
    for label, elapsed, speedup in rows:
        print(
            f"{label:28s} {elapsed:8.3f}s {len(spec) / elapsed:10.1f} "
            f"{speedup:8.2f}x"
        )
    hit_rate = cached.cache.info()["hit_rate"]
    print(f"activation cache hit rate: {hit_rate:.1%}")

    # Correctness before speed: the columnar path is bit-identical to the
    # seed list path, and caching is deterministic and fan-out-invariant.
    # (Cached and uncached runs differ in per-result activation accounting by
    # design, so only like-for-like configurations are compared; the oracle
    # run differs only in the scheduler name.)
    assert [result_key(r) for r in baseline_results.results] == [
        result_key(r) for r in seed_results.results
    ]
    assert cached_results.fingerprint() == fanout_results.fingerprint()
    assert hit_rate > 0.5, "repeated sweep should mostly hit the cache"
    # The headline claim: columnar kernel + cache (+ fan-out) buys at least
    # 2× traces/sec over the seed baseline, and the cache never loses
    # throughput against the uncached columnar path.
    best = max(seed_time / cached_time, seed_time / fanout_time)
    assert best >= 2.0, f"expected ≥2x traces/sec, got {best:.2f}x"
    # Generous margin: these are two single wall-clock samples on a possibly
    # noisy host; the assertion only catches a cache that *costs* real
    # throughput, not run-to-run jitter.
    assert cached_time <= baseline_time * 1.5, (
        f"cache lost throughput: {cached_time:.3f}s vs {baseline_time:.3f}s uncached"
    )
