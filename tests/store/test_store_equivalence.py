"""Acceptance contract of the store + cluster PR: caching never changes answers.

Batch fingerprints must be *identical* — not merely close — across
``workers=1``, ``workers=N``, a cold store, a warm store and the cluster
executor, for all four schedulers on the motivational workload and for the
census-tractable schedulers on the (scaled) census.  A corrupted store may
only ever make a run slower, never wrong or failed.
"""

import sqlite3

import pytest

from repro.api import ExperimentSpec, SchedulerSpec, Session, WorkloadSpec
from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.service import BatchSpec, SimulationService
from repro.store import ContentStore

#: All four scheduler families; the unbounded EX-MEM search is exponential,
#: so the batch jobs reference a bounded variant registered below (the same
#: ``max_configs_per_job=3`` bound the kernel equivalence tests use).
#: Census coverage is restricted to the tractable MMKP pair.
SCHEDULERS = ["mmkp-mdf", "mmkp-lr", "ex-mem-small", "fixed"]
CENSUS_SCHEDULERS = ["mmkp-mdf", "mmkp-lr"]


@pytest.fixture(autouse=True, scope="module")
def _bounded_exmem():
    from repro.api.registry import schedulers
    from repro.schedulers import ExMemScheduler

    schedulers.register(
        "ex-mem-small", lambda: ExMemScheduler(max_configs_per_job=3), replace=True
    )
    yield
    schedulers.unregister("ex-mem-small")


def motivational_spec(scheduler):
    return BatchSpec.sweep(
        arrival_rates=[0.2, 0.5],
        schedulers=(scheduler,),
        traces_per_point=2,
        num_requests=5,
        base_seed=7,
        name=f"motivational-{scheduler}",
    )


@pytest.fixture(scope="module")
def census_setup():
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    return platform, tables


def census_spec(scheduler, platform, tables):
    return BatchSpec.sweep(
        arrival_rates=[0.4],
        schedulers=(scheduler,),
        traces_per_point=2,
        num_requests=8,
        base_seed=11,
        platform=platform,
        tables=tables,
        name=f"census-{scheduler}",
    )


def run_fingerprint(spec, **service_kwargs):
    results = SimulationService(**service_kwargs).run_batch(spec)
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return results.fingerprint()


class TestMotivationalEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_workers_and_store_never_change_fingerprints(self, scheduler, tmp_path):
        spec = motivational_spec(scheduler)
        path = str(tmp_path / "store.db")
        baseline = run_fingerprint(spec)  # workers=1, no store
        threaded = run_fingerprint(spec, workers=3, executor="thread")
        cold = run_fingerprint(spec, workers=3, executor="thread", store=path)
        warm = run_fingerprint(spec, store=path)  # rerun against the filled store
        assert threaded == baseline
        assert cold == baseline
        assert warm == baseline

    def test_warm_run_actually_hits_the_store(self, tmp_path):
        spec = motivational_spec("mmkp-mdf")
        path = str(tmp_path / "store.db")
        run_fingerprint(spec, store=path)
        warm = SimulationService(store=path)
        warm.run_batch(spec)
        # The activation store is keyed per scheduler activation, so a warm
        # rerun hits at least once per job (every job has >= 1 activation).
        counters = warm.store.counters()["activation"]
        assert counters["hits"] >= len(spec)

    def test_explicit_store_object_is_honoured(self):
        spec = motivational_spec("fixed")
        store = ContentStore.in_memory()
        baseline = run_fingerprint(spec)
        assert run_fingerprint(spec, store=store) == baseline
        assert run_fingerprint(spec, store=store) == baseline  # warm
        assert store.counters()["activation"]["hits"] >= len(spec)


class TestWhatTheStoreHolds:
    """A batch stores its activations and nothing else: the kernel's solve
    and EX-MEM memos and the OpTable intern pool stay in process."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "cluster"])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_only_activations_persist_and_a_rerun_reads_them_all(
        self, scheduler, executor, tmp_path
    ):
        spec = motivational_spec(scheduler)
        path = str(tmp_path / "store.db")
        workers = 1 if executor == "serial" else 2
        cold = SimulationService(workers=workers, executor=executor, store=path)
        cold_fingerprint = cold.run_batch(spec).fingerprint()
        namespaces = set(cold.store.stats()["namespaces"])
        assert namespaces == {cold.store.namespace("activation")}

        warm = SimulationService(workers=workers, executor=executor, store=path)
        results = warm.run_batch(spec)
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        assert results.fingerprint() == cold_fingerprint
        assert set(warm.store.stats()["namespaces"]) == namespaces
        if executor != "cluster":  # worker counters stay in the workers
            counters = warm.store.counters()
            assert set(counters) == {"activation"}
            assert counters["activation"]["misses"] == 0
            assert counters["activation"]["puts"] == 0
            assert counters["activation"]["hits"] >= len(spec)
            assert warm.cache.misses == 0

    def test_a_session_run_leaves_the_store_empty(self, tmp_path):
        spec = ExperimentSpec(
            name="session-lr",
            workload=WorkloadSpec.poisson(arrival_rate=0.5, num_requests=8, seed=7),
            scheduler=SchedulerSpec(name="mmkp-lr"),
        )
        session = Session(spec, store=str(tmp_path / "store.db"))
        log = session.run()
        assert log.fingerprint() == Session(spec).run().fingerprint()
        assert session.kernel_caches.info()["solve_cache_misses"] > 0
        assert session.store.stats()["namespaces"] == {}


class TestProcessAndClusterEquivalence:
    @pytest.mark.parametrize("scheduler", ["mmkp-mdf", "mmkp-lr"])
    def test_process_and_cluster_match_serial(self, scheduler, tmp_path):
        spec = motivational_spec(scheduler)
        path = str(tmp_path / "store.db")
        baseline = run_fingerprint(spec)
        processed = run_fingerprint(spec, workers=2, executor="process", store=path)
        cluster_service = SimulationService(workers=2, executor="cluster", store=path)
        clustered = cluster_service.run_batch(spec)
        assert all(r.ok for r in clustered)
        assert processed == baseline
        assert clustered.fingerprint() == baseline
        assert cluster_service.cluster_stats.units > 0
        assert cluster_service.cluster_stats.failed_units == 0


class TestCensusEquivalence:
    @pytest.mark.parametrize("scheduler", CENSUS_SCHEDULERS)
    def test_census_fingerprints(self, scheduler, census_setup, tmp_path):
        platform, tables = census_setup
        spec = census_spec(scheduler, platform, tables)
        path = str(tmp_path / "store.db")
        baseline = run_fingerprint(spec)
        threaded = run_fingerprint(spec, workers=2, executor="thread")
        cold = run_fingerprint(spec, workers=2, executor="thread", store=path)
        warm = run_fingerprint(spec, store=path)
        assert threaded == baseline
        assert cold == baseline
        assert warm == baseline


class TestCorruptedStore:
    def test_corrupted_entries_never_fail_a_batch(self, tmp_path):
        spec = motivational_spec("mmkp-lr")
        path = str(tmp_path / "store.db")
        baseline = run_fingerprint(spec)
        run_fingerprint(spec, store=path)  # fill the store
        with sqlite3.connect(path) as conn:
            vandalised = conn.execute(
                "UPDATE entries SET value = X'00DEADBEEF'"
            ).rowcount
        assert vandalised > 0
        service = SimulationService(store=path)
        results = service.run_batch(spec)
        assert all(r.ok for r in results)
        assert results.fingerprint() == baseline
        corrupt = sum(k["corrupt"] for k in service.store.counters().values())
        assert corrupt > 0
        # The vandalised rows were dropped and the rerun rewrote good ones:
        # every distinct activation missed once and was re-put.
        total_puts = sum(k["puts"] for k in service.store.counters().values())
        assert total_puts == vandalised
