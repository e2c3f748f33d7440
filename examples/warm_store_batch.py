"""Warm-store batch reruns and the cluster executor in one script.

The batch service recomputes every scheduler activation from scratch on
every run.  With a :class:`~repro.store.ContentStore` attached, the
activation memo writes through to one SQLite file — so rerunning the same
study is mostly store reads, and worker *processes* (the ``cluster``
executor) warm each other through the same file.  The kernel's solve and
EX-MEM memos stay in process: a warm rerun answers every activation from
the store before reaching them.

The script runs one census-flavoured sweep three times:

1. **cold** — a fresh store file is filled while the batch computes;
2. **warm** — the same batch again, served from the store (and asserted
   fingerprint-identical: a cache that changes answers is not a cache);
3. **cluster** — the same batch through the work-stealing
   :class:`~repro.cluster.ShardCoordinator` with worker processes sharing
   the store.

Run with::

    PYTHONPATH=src python examples/warm_store_batch.py
"""

import tempfile
import time
from pathlib import Path

from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.service import BatchSpec, SimulationService

ARRIVAL_RATES = [1.0, 2.0]
TRACES_PER_POINT = 2
NUM_REQUESTS = 12


def build_spec() -> BatchSpec:
    """A solve-heavy sweep: MMKP-LR over reduced census tables."""
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    return BatchSpec.sweep(
        arrival_rates=ARRIVAL_RATES,
        schedulers=("mmkp-lr",),
        traces_per_point=TRACES_PER_POINT,
        num_requests=NUM_REQUESTS,
        base_seed=42,
        platform=platform,
        tables=tables,
        name="warm-store-demo",
    )


def timed_run(spec: BatchSpec, label: str, **service_kwargs):
    service = SimulationService(**service_kwargs)
    started = time.perf_counter()
    results = service.run_batch(spec)
    elapsed = time.perf_counter() - started
    assert not results.failures, [f.error for f in results.failures]
    print(f"{label:28s} {elapsed * 1e3:8.1f} ms   "
          f"fingerprint {results.fingerprint()[:16]}…")
    return service, results


def main() -> None:
    spec = build_spec()
    print(f"sweep: {len(spec)} census traces, MMKP-LR, "
          f"{NUM_REQUESTS} requests each\n")

    with tempfile.TemporaryDirectory() as tmp:
        store_path = str(Path(tmp) / "warm-store.db")

        _, cold = timed_run(spec, "cold (fills store)", store=store_path)
        warm_service, warm = timed_run(
            spec, "warm (serves store)", store=store_path
        )
        cluster_service, clustered = timed_run(
            spec,
            "cluster (2 workers, warm)",
            workers=2,
            executor="cluster",
            store=store_path,
        )

        assert warm.fingerprint() == cold.fingerprint()
        assert clustered.fingerprint() == cold.fingerprint()
        print("\nall three fingerprints identical — caching and sharding "
              "never change answers")

        stats = warm_service.store.stats()
        print(f"\nstore {stats['path']} (version {stats['version']})")
        for namespace, entry in sorted(stats["namespaces"].items()):
            print(f"  {namespace:24s} {entry['entries']:5d} entries "
                  f"{entry['bytes']:8d} bytes")
        for kind, counters in sorted(stats["kinds"].items()):
            print(f"  {kind:12s} hits={counters['hits']:<5d} "
                  f"misses={counters['misses']:<5d} "
                  f"puts={counters['puts']}")

        if cluster_service.cluster_stats is not None:
            print(f"\ncluster: {cluster_service.cluster_stats.as_dict()}")


if __name__ == "__main__":
    main()
