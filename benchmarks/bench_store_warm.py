"""E12 — persistent store and sharded execution: warm reruns and scaling.

Two measurements for the ``repro.store`` + ``repro.cluster`` subsystems:

* **Warm-store rerun** — a census batch under MMKP-LR (the solve-dominated
  configuration: every activation pays a Lagrangian iteration) is run twice
  against the same on-disk SQLite store.  The first run fills the store;
  the second serves every activation from it.  The acceptance bar
  is **> 5x** — a warm rerun must skip essentially all scheduling work —
  and the two fingerprints must be identical (a cache that changes answers
  is not a cache).

* **Cluster scaling** — the same class of batch through the
  ``ShardCoordinator``-backed ``executor="cluster"`` at ``workers=1`` and
  ``workers=min(4, cpu_count)``.  The gate is **core efficiency ≥ 0.55**:
  speedup divided by the *available* parallelism ``min(workers, cpus)``, so
  a single-core CI host gates "no pathological overhead" while a multi-core
  host gates near-linear scaling.

``run_all.py`` imports :func:`measure_store_warm` and
:func:`measure_cluster_scaling` directly so the gated CI metrics and these
pytest benchmarks can never drift apart.  Scale knobs (smoke mode pins them
down): ``REPRO_BENCH_STORE_POINTS``, ``REPRO_BENCH_STORE_REQUESTS``,
``REPRO_BENCH_STORE_TRACES``.
"""

import os
import tempfile
import time
from pathlib import Path

from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.service import BatchSpec, SimulationService

#: The warm rerun must beat the cold run by at least this factor.
MIN_WARM_SPEEDUP = 5.0
#: Cluster speedup divided by available parallelism must stay above this.
MIN_CORE_EFFICIENCY = 0.55
#: Worker cap for the scaling measurement.
MAX_WORKERS = 4


def _scale() -> dict:
    return {
        "max_points": int(os.environ.get("REPRO_BENCH_STORE_POINTS", "8")),
        "num_requests": int(os.environ.get("REPRO_BENCH_STORE_REQUESTS", "25")),
        "traces_per_point": int(os.environ.get("REPRO_BENCH_STORE_TRACES", "2")),
    }


def _census_batch(name: str, arrival_rates: list[float]) -> BatchSpec:
    """A solve-dominated census batch: MMKP-LR over reduced paper tables."""
    scale = _scale()
    platform = odroid_xu4()
    tables = reduced_tables(
        paper_operating_points(platform), max_points=scale["max_points"]
    )
    return BatchSpec.sweep(
        arrival_rates=arrival_rates,
        schedulers=("mmkp-lr",),
        traces_per_point=scale["traces_per_point"],
        num_requests=scale["num_requests"],
        base_seed=9,
        platform=platform,
        tables=tables,
        name=name,
    )


def measure_store_warm() -> dict:
    """Cold-vs-warm wall times of one census batch against one SQLite store."""
    spec = _census_batch("bench-store-warm", [1.5, 2.5])
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "bench-store.db")

        started = time.perf_counter()
        cold_fingerprint = SimulationService(store=path).run_batch(spec).fingerprint()
        cold_s = time.perf_counter() - started

        warm_service = SimulationService(store=path)
        started = time.perf_counter()
        warm_fingerprint = warm_service.run_batch(spec).fingerprint()
        warm_s = time.perf_counter() - started

        counters = warm_service.store.counters()
        store_hits = sum(kind["hits"] for kind in counters.values())
    assert warm_fingerprint == cold_fingerprint, "warm rerun changed the answers"
    assert store_hits > 0, "warm rerun never touched the store"
    return {
        "jobs": len(spec),
        "scale": _scale(),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
        "warm_store_hits": store_hits,
        "fingerprint": cold_fingerprint,
    }


def measure_cluster_scaling() -> dict:
    """Cluster-executor wall times at ``workers=1`` vs ``workers=N``.

    Both configurations pay the same process-pool start-up, so the ratio
    isolates the coordinator's dispatch/steal overhead and the host's real
    parallelism.
    """
    spec = _census_batch("bench-cluster-scaling", [1.5, 2.0, 2.5, 3.0])
    cpus = os.cpu_count() or 1
    workers = min(MAX_WORKERS, max(2, cpus))
    timings = {}
    fingerprints = {}
    for count in (1, workers):
        service = SimulationService(workers=count, executor="cluster")
        started = time.perf_counter()
        fingerprints[count] = service.run_batch(spec).fingerprint()
        timings[count] = time.perf_counter() - started
        assert service.cluster_stats.failed_units == 0
    assert fingerprints[1] == fingerprints[workers], "worker count changed answers"
    speedup = timings[1] / timings[workers]
    available = min(workers, cpus)
    return {
        "jobs": len(spec),
        "scale": _scale(),
        "cpus": cpus,
        "workers": workers,
        "serial_s": round(timings[1], 4),
        "parallel_s": round(timings[workers], 4),
        "speedup": round(speedup, 3),
        "available_parallelism": available,
        "core_efficiency": round(speedup / available, 3),
        "fingerprint": fingerprints[1],
    }


def test_store_warm_rerun():
    metrics = measure_store_warm()
    print(
        f"\nE12 — warm-store rerun ({metrics['jobs']} census jobs, "
        f"{metrics['scale']['max_points']}-point tables)"
    )
    print(f"{'configuration':24s} {'wall time':>12s}")
    print(f"{'cold (fills store)':24s} {metrics['cold_s']:11.3f}s")
    print(f"{'warm (serves store)':24s} {metrics['warm_s']:11.3f}s")
    print(f"warm speedup: {metrics['speedup']:.1f}x "
          f"({metrics['warm_store_hits']} store hits)")
    assert metrics["speedup"] > MIN_WARM_SPEEDUP, (
        f"warm rerun only {metrics['speedup']:.1f}x over cold, "
        f"below the {MIN_WARM_SPEEDUP:.0f}x floor"
    )


def test_cluster_scaling():
    metrics = measure_cluster_scaling()
    print(
        f"\nE12 — cluster scaling ({metrics['jobs']} census jobs, "
        f"{metrics['cpus']} cpus)"
    )
    print(f"{'configuration':24s} {'wall time':>12s}")
    print(f"{'workers=1':24s} {metrics['serial_s']:11.3f}s")
    label = f"workers={metrics['workers']}"
    print(f"{label:24s} {metrics['parallel_s']:11.3f}s")
    print(
        f"speedup {metrics['speedup']:.2f}x over "
        f"{metrics['available_parallelism']} available cores "
        f"(efficiency {metrics['core_efficiency']:.0%})"
    )
    assert metrics["core_efficiency"] >= MIN_CORE_EFFICIENCY, (
        f"core efficiency {metrics['core_efficiency']:.2f} fell below "
        f"{MIN_CORE_EFFICIENCY:.2f} (speedup {metrics['speedup']:.2f}x over "
        f"{metrics['available_parallelism']} available cores)"
    )
