"""ShardCoordinator: unit splitting, stealing, retry and deterministic merge."""

import multiprocessing
import os
import threading
import uuid
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import obs
from repro.cluster import (
    EXECUTORS,
    MODES,
    ShardCoordinator,
    WorkUnit,
    executor_mode,
    split_units,
)
from repro.exceptions import WorkloadError
from repro.service import BatchSpec, SimulationResult, SimulationService
from repro.service.pool import _simulate
from repro.store import ContentStore
from repro.store.content import BATCH_ROWS
from tests.store.test_content import CountingBackend


def sweep(name="batch", arrival_rates=(0.2, 0.5), traces_per_point=2, scheduler="mmkp-mdf"):
    return BatchSpec.sweep(
        arrival_rates=list(arrival_rates),
        schedulers=[scheduler],
        traces_per_point=traces_per_point,
        num_requests=5,
        base_seed=3,
        name=name,
    )


def simulate(shard):
    """The in-process simulation unit (no caches)."""
    return [_simulate(job, None) for job in shard]


def run_jobs(coordinator, jobs, unit=simulate, progress=None):
    """Run ``jobs`` the way the batch service does, failing to error results."""
    return coordinator.run(
        jobs,
        unit,
        lambda index, error: SimulationResult.from_error(jobs[index], error),
        progress,
    )


def fingerprint(results):
    from repro.service import BatchResults

    return BatchResults(results).fingerprint()


class TestSplitUnits:
    def test_covers_all_jobs_contiguously(self):
        jobs = sweep(traces_per_point=5).experiments  # 10 jobs
        units = split_units(jobs, workers=2)
        assert [unit.start for unit in units] == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert sum(len(unit) for unit in units) == len(jobs)

    def test_unit_size_override(self):
        jobs = sweep(traces_per_point=5).experiments
        units = split_units(jobs, workers=2, unit_size=4)
        assert [len(unit) for unit in units] == [4, 4, 2]
        assert units[1].start == 4
        assert units[2].jobs == tuple(jobs[8:])

    def test_default_targets_four_units_per_worker(self):
        jobs = sweep(traces_per_point=8).experiments  # 16 jobs
        assert len(split_units(jobs, workers=2)) == 8

    def test_more_workers_than_jobs(self):
        jobs = sweep(traces_per_point=1).experiments  # 2 jobs
        units = split_units(jobs, workers=8)
        assert [len(unit) for unit in units] == [1, 1]

    def test_invalid_unit_size(self):
        with pytest.raises(WorkloadError):
            split_units(sweep().experiments, workers=2, unit_size=0)


class TestCoordinatorValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(WorkloadError):
            ShardCoordinator(0)

    def test_rejects_bad_mode(self):
        with pytest.raises(WorkloadError):
            ShardCoordinator(2, mode="rocket")
        assert MODES == ("serial", "thread", "process")

    def test_rejects_negative_retries(self):
        with pytest.raises(WorkloadError):
            ShardCoordinator(2, max_retries=-1)


class TestExecutorVocabulary:
    def test_every_executor_name_selects_a_mode(self):
        assert EXECUTORS == ("auto", "serial", "thread", "process", "cluster")
        assert executor_mode("auto", 1) == "serial"
        assert executor_mode("auto", 4) == "thread"
        assert executor_mode("serial", 4) == "serial"
        assert executor_mode("thread", 1) == "thread"
        assert executor_mode("process", 2) == "process"
        assert executor_mode("cluster", 2) == "process"

    def test_unknown_executor_is_rejected_everywhere(self):
        with pytest.raises(WorkloadError, match="unknown executor"):
            executor_mode("rocket", 1)
        with pytest.raises(WorkloadError, match="unknown executor"):
            SimulationService(executor="rocket")

    @pytest.mark.parametrize(
        "executor,workers", [("serial", 1), ("auto", 2), ("thread", 2)]
    )
    def test_service_reports_shard_stats_for_every_executor(self, executor, workers):
        spec = sweep(traces_per_point=2)
        service = SimulationService(workers=workers, executor=executor)
        assert service.run_batch(spec).fingerprint() == (
            SimulationService().run_batch(spec).fingerprint()
        )
        assert service.cluster_stats.units > 0
        assert service.cluster_stats.failed_units == 0


class TestSerialMode:
    def test_units_run_in_order_on_the_calling_thread(self):
        seen = []

        def unit(items):
            seen.append((threading.get_ident(), items))
            return [item * 2 for item in items]

        coordinator = ShardCoordinator(4, mode="serial", unit_size=2)
        results = coordinator.run(range(5), unit, lambda index, error: None)
        assert results == [0, 2, 4, 6, 8]
        assert seen == [
            (threading.get_ident(), (0, 1)),
            (threading.get_ident(), (2, 3)),
            (threading.get_ident(), (4,)),
        ]
        assert coordinator.workers == 1
        assert coordinator.stats.per_worker_units == [3]
        assert coordinator.stats.steals == 0


class TestThreadMode:
    def test_empty_batch(self):
        coordinator = ShardCoordinator(2, mode="thread")
        assert run_jobs(coordinator, []) == []
        assert coordinator.stats.units == 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_empty_batch_starts_no_worker(self, mode, monkeypatch):
        import concurrent.futures

        started = []
        monkeypatch.setattr(threading, "Thread", lambda *a, **k: started.append(a))
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: started.append(a)
        )
        coordinator = ShardCoordinator(2, mode=mode)
        assert run_jobs(coordinator, []) == []
        assert started == []
        assert coordinator.stats.per_worker_units == [0, 0]

    def test_results_in_job_order(self):
        jobs = list(sweep(traces_per_point=4).experiments)
        coordinator = ShardCoordinator(3, mode="thread", unit_size=2)
        results = run_jobs(coordinator, jobs)
        assert [r.job_name for r in results] == [j.name for j in jobs]
        assert all(r.ok for r in results)
        stats = coordinator.stats
        assert stats.units == 4
        assert sum(stats.per_worker_units) == 4
        assert stats.failed_units == 0

    def test_fingerprint_independent_of_workers_and_unit_size(self):
        jobs = list(sweep(traces_per_point=3).experiments)
        baseline = fingerprint(run_jobs(ShardCoordinator(1, mode="thread"), jobs))
        for workers, unit_size in [(2, 1), (3, 2), (4, None)]:
            coordinator = ShardCoordinator(workers, mode="thread", unit_size=unit_size)
            assert fingerprint(run_jobs(coordinator, jobs)) == baseline

    def test_stealing_rebalances_skewed_queues(self):
        jobs = list(sweep(traces_per_point=6).experiments)  # 12 units of one job
        release = threading.Event()
        done = []
        lock = threading.Lock()

        # Unit 0 stalls until every other unit has finished, so the worker
        # holding it cannot touch the rest of its own deque and the other
        # worker *must* steal to drain the batch.
        def slow_first_unit(shard):
            first = shard[0] is jobs[0]
            if first:
                release.wait(timeout=30)
            result = simulate(shard)
            with lock:
                done.append(first)
                if len(done) == 11 and not any(done):
                    release.set()
            return result

        coordinator = ShardCoordinator(2, mode="thread", unit_size=1)
        results = run_jobs(coordinator, jobs, slow_first_unit)
        assert all(r.ok for r in results)
        assert coordinator.stats.steals > 0

    def test_progress_callback_sees_every_job(self):
        jobs = list(sweep(traces_per_point=3).experiments)
        seen = {}
        coordinator = ShardCoordinator(2, mode="thread", unit_size=2)
        run_jobs(coordinator, jobs, progress=lambda i, r: seen.setdefault(i, r))
        assert sorted(seen) == list(range(len(jobs)))
        assert all(isinstance(r, SimulationResult) for r in seen.values())


def check_unit_one_failed(mode):
    jobs = list(sweep(traces_per_point=3).experiments)  # 6 jobs

    def fails_unit_one(shard):
        if shard[0] is jobs[2]:
            raise RuntimeError("worker shot in the head")
        return simulate(shard)

    coordinator = ShardCoordinator(2, mode=mode, unit_size=2, max_retries=2)
    results = run_jobs(coordinator, jobs, fails_unit_one)
    assert coordinator.stats.retries == 2
    assert coordinator.stats.failed_units == 1
    failed = [r for r in results if not r.ok]
    assert [r.job_name for r in failed] == [j.name for j in jobs[2:4]]
    assert all("worker shot in the head" in r.error for r in failed)
    assert all(r.ok for r in results[:2]) and all(r.ok for r in results[4:])


class TestFailureIsolation:
    def test_failed_unit_retries_then_errors_only_its_jobs(self):
        check_unit_one_failed("thread")

    def test_serial_mode_retries_then_errors_only_its_jobs(self):
        check_unit_one_failed("serial")

    def test_transient_failure_recovers_within_retry_budget(self):
        jobs = list(sweep(traces_per_point=2).experiments)
        attempts = {}
        lock = threading.Lock()

        def flaky_once(shard):
            with lock:
                key = shard[0].name
                attempts[key] = attempts.get(key, 0) + 1
                first = attempts[key] == 1
            if first:
                raise OSError("transient")
            return simulate(shard)

        coordinator = ShardCoordinator(2, mode="thread", unit_size=2, max_retries=1)
        results = run_jobs(coordinator, jobs, flaky_once)
        assert all(r.ok for r in results)
        assert coordinator.stats.failed_units == 0
        assert coordinator.stats.retries == len(attempts)


class _FakePool:
    """Runs submissions inline; remembers whether it was cancelled."""

    def __init__(self):
        self.cancelled = False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.cancelled = self.cancelled or cancel_futures


class TestPoolGenerations:
    def test_stale_broken_pool_leaves_the_current_pool_running(self):
        coordinator = ShardCoordinator(1, mode="process", unit_size=1, max_retries=0)
        current = _FakePool()

        class StalePool(_FakePool):
            def submit(self, fn, *args):
                # A rival shard has already replaced this broken pool.
                coordinator._pool, coordinator._pool_generation = current, 2
                raise BrokenProcessPool("a worker of the old pool died")

        coordinator._pool, coordinator._pool_generation = StalePool(), 1
        results = coordinator.run([1, 2], list, lambda index, error: error)
        assert results[0].startswith("BrokenProcessPool")
        assert results[1] == 2
        assert coordinator.stats.failed_units == 1
        assert not current.cancelled

    def test_broken_current_pool_is_dropped_for_the_retry(self):
        coordinator = ShardCoordinator(1, mode="process", max_retries=1)

        class BrokenPool(_FakePool):
            def submit(self, fn, *args):
                raise BrokenProcessPool("a worker died")

        broken = BrokenPool()
        coordinator._pool, coordinator._pool_generation = broken, 1
        # The retry runs on a fresh, real process pool.
        assert coordinator.run([1, 2], list, lambda index, error: error) == [1, 2]
        assert broken.cancelled
        assert coordinator.stats.retries == 1
        assert coordinator.stats.failed_units == 0


class TestProcessMode:
    def test_process_mode_matches_thread_mode(self, tmp_path):
        from repro.store import ContentStore

        spec = sweep(traces_per_point=2)
        # Process workers always carry activation/kernel caches; the
        # service's thread executor runs the same cache configuration.
        baseline = SimulationService(workers=2, executor="thread").run_batch(spec)
        store = ContentStore.open(tmp_path / "store.db")
        service = SimulationService(workers=2, executor="process", store=store)
        assert service.run_batch(spec).fingerprint() == baseline.fingerprint()
        assert service.cluster_stats.units > 0
        # Worker processes wrote through to the shared sqlite store.
        assert store.stats()["namespaces"]
        store.close()

    def test_process_cold_batch_warms_every_activation_of_a_serial_rerun(
        self, tmp_path
    ):
        spec = sweep(traces_per_point=2)
        path = tmp_path / "store.db"
        cold_service = SimulationService(workers=2, executor="process", store=path)
        cold = cold_service.run_batch(spec)
        cold_service.store.close()
        warm_service = SimulationService(store=path)
        warm = warm_service.run_batch(spec)
        activation = warm_service.store.counters()["activation"]
        warm_service.store.close()
        assert warm.fingerprint() == cold.fingerprint()
        assert activation["hits"] > 0
        assert activation["misses"] == 0


class TestUnitWriteBatches:
    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 2)])
    def test_one_put_many_per_unit_plus_one_per_full_queue(self, executor, workers):
        backend = CountingBackend()
        service = SimulationService(
            workers=workers, executor=executor, store=ContentStore(backend)
        )
        spec = BatchSpec.sweep(
            arrival_rates=[0.2, 0.5],
            # Only activation rows reach the store; MDF writes as many as
            # MMKP-LR at a tenth of its cost.  Two traces per serial unit:
            # 280 rows, past one queue.
            schedulers=["mmkp-mdf"],
            traces_per_point=4,
            num_requests=140,
            base_seed=3,
            name="batch",
        )
        results = service.run_batch(spec)
        assert not results.failures
        assert backend.puts == 0
        assert all(0 < size <= BATCH_ROWS for size in backend.batches)
        full = sum(size == BATCH_ROWS for size in backend.batches)
        assert len(backend.batches) == service.cluster_stats.units + full
        if executor == "serial":
            assert full > 0  # this batch's serial units outgrow one queue
        counters = service.store.counters().values()
        assert sum(kind["puts"] for kind in counters) == sum(backend.batches)
        assert sum(kind["errors"] for kind in counters) == 0

    def test_a_process_unit_writes_its_rows_before_it_returns(
        self, tmp_path, monkeypatch
    ):
        from repro.service import pool
        from repro.store.backend import SQLiteBackend

        batches = []
        put_many = SQLiteBackend.put_many

        def counting_put_many(backend, rows):
            rows = list(rows)
            batches.append(len(rows))
            put_many(backend, rows)

        monkeypatch.setattr(SQLiteBackend, "put_many", counting_put_many)
        # The worker entry point, run in this process on a store file.
        try:
            results = pool._process_run_unit(
                sweep(traces_per_point=1).experiments, 64, str(tmp_path / "store.db")
            )
        finally:
            store = pool._PROCESS_STORE
            pool._process_store(None)
        puts = sum(kind["puts"] for kind in store.counters().values())
        store.close()
        assert all(result.ok for result in results)
        assert batches == [puts]


class TestWorkerProcessCaches:
    def test_a_worker_keeps_one_kernel_caches_across_stores(self, tmp_path):
        from repro.service import pool

        caches = pool._PROCESS_KERNEL_CACHES
        jobs = sweep(traces_per_point=1, scheduler="mmkp-lr").experiments
        try:
            for name in ("a.db", "b.db"):
                results = pool._process_run_unit(jobs, 64, str(tmp_path / name))
                store = pool._PROCESS_STORE
                namespaces = set(store.stats()["namespaces"])
                store.close()
                assert all(result.ok for result in results)
                assert pool._PROCESS_KERNEL_CACHES is caches
                assert namespaces == {store.namespace("activation")}
        finally:
            pool._process_store(None)
        assert caches.solve_cache.store is None
        assert caches.solve_cache.misses > 0


class TestServiceClusterExecutor:
    def test_cluster_executor_reports_stats(self):
        spec = sweep(traces_per_point=2)
        service = SimulationService(workers=2, executor="cluster")
        baseline = SimulationService().run_batch(spec).fingerprint()
        assert service.run_batch(spec).fingerprint() == baseline
        assert service.cluster_stats is not None
        assert service.cluster_stats.units > 0

    def test_work_unit_len(self):
        unit = WorkUnit(index=0, start=3, jobs=tuple(sweep().experiments[:2]))
        assert len(unit) == 2


class TestTracerPropagation:
    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 2)])
    def test_batch_records_one_run_span_per_job_under_the_caller(
        self, executor, workers
    ):
        spec = sweep(traces_per_point=2)  # 4 jobs
        with obs.Tracer() as tracer:
            with obs.span("caller") as caller:
                SimulationService(workers=workers, executor=executor).run_batch(spec)
        runs = [span for span in tracer.spans() if span.name == "rm.run"]
        assert len(runs) == len(spec)
        assert all(span.parent_id == caller.span_id for span in runs)

    def test_thread_mode_unit_spans_reach_the_callers_tracer(self):
        def unit(items):
            with obs.span("unit"):
                return list(items)

        with obs.Tracer() as tracer:
            with obs.span("caller") as caller:
                ShardCoordinator(2, mode="thread", unit_size=1).run(
                    [1, 2, 3, 4], unit, lambda index, error: None
                )
        units = [span for span in tracer.spans() if span.name == "unit"]
        assert len(units) == 4
        assert all(span.parent_id == caller.span_id for span in units)


# ---------------------------------------------------------------------- #
# Real worker processes: a plugin reaches the workers only by fork.
# ---------------------------------------------------------------------- #
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the registered plugin reaches worker processes only under fork",
)


@pytest.fixture
def die_once(tmp_path):
    """A scheduler whose first build in any worker process kills that worker."""
    from repro.api import register_scheduler
    from repro.api.registry import schedulers
    from repro.schedulers import MMKPMDFScheduler

    marker = tmp_path / "died"

    def factory():
        if multiprocessing.parent_process() is not None:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os._exit(1)
        return MMKPMDFScheduler()

    register_scheduler("die-once", factory)
    try:
        yield marker
    finally:
        schedulers.unregister("die-once")


@pytest.fixture
def die_mid_unit(tmp_path):
    """A scheduler that kills the first worker process to reach its third
    fresh activation, when that unit's store batch already holds rows."""
    from repro.api import register_scheduler
    from repro.api.registry import schedulers
    from repro.schedulers import MMKPMDFScheduler

    marker = tmp_path / "died"
    calls: dict[int, int] = {}  # pid → fresh activations in that process

    class DiesMidUnit(MMKPMDFScheduler):
        def schedule(self, problem):
            pid = os.getpid()
            calls[pid] = calls.get(pid, 0) + 1
            if calls[pid] == 3 and multiprocessing.parent_process() is not None:
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os._exit(1)
            return super().schedule(problem)

    register_scheduler("die-mid-unit", DiesMidUnit)
    try:
        yield marker
    finally:
        schedulers.unregister("die-mid-unit")


def _tagging_unit(tag_dir, jobs, cache_size, store_token=None):
    """A substitute process-mode unit that leaves one file per unit."""
    from repro.service import pool

    Path(tag_dir, f"{os.getpid()}-{uuid.uuid4().hex}").touch()
    return pool._process_run_unit(jobs, cache_size, store_token)


@needs_fork
class TestWorkerDeath:
    @pytest.mark.parametrize("executor", ["process", "cluster"])
    def test_killed_worker_retries_to_the_serial_fingerprint(self, die_once, executor):
        spec = sweep(traces_per_point=4, scheduler="die-once")
        serial = SimulationService().run_batch(spec)
        service = SimulationService(workers=2, executor=executor)
        results = service.run_batch(spec)
        assert die_once.exists()  # a worker really died
        assert results.fingerprint() == serial.fingerprint()
        assert service.cluster_stats.retries >= 1
        assert service.cluster_stats.failed_units == 0

    def test_killed_worker_with_a_store_file_keeps_the_serial_fingerprint(
        self, die_mid_unit, tmp_path
    ):
        spec = sweep(traces_per_point=4, scheduler="die-mid-unit")
        serial = SimulationService().run_batch(spec)
        path = tmp_path / "store.db"
        service = SimulationService(workers=2, executor="process", store=path)
        results = service.run_batch(spec)
        service.store.close()
        assert die_mid_unit.exists()  # a worker died with rows queued
        assert results.fingerprint() == serial.fingerprint()
        assert service.cluster_stats.retries >= 1
        assert service.cluster_stats.failed_units == 0
        # The retry rewrote what the dead unit lost: a warm rerun hits
        # every activation.
        warm_service = SimulationService(store=path)
        warm = warm_service.run_batch(spec)
        activation = warm_service.store.counters()["activation"]
        warm_service.store.close()
        assert warm.fingerprint() == serial.fingerprint()
        assert activation["misses"] == 0


@needs_fork
class TestProcessUnitSeam:
    def test_batches_run_the_coordinators_unit_binding(self, tmp_path, monkeypatch):
        import functools

        import repro.cluster.coordinator as coordinator

        monkeypatch.setattr(
            coordinator,
            "_process_run_unit",
            functools.partial(_tagging_unit, str(tmp_path)),
        )
        spec = sweep(traces_per_point=2)
        service = SimulationService(workers=2, executor="process")
        results = service.run_batch(spec)
        assert results.fingerprint() == SimulationService().run_batch(spec).fingerprint()
        assert len(list(tmp_path.iterdir())) == service.cluster_stats.units


class TestSharedCounters:
    def test_retry_counter_loses_no_update_under_contention(self):
        import sys

        def trial():
            seen = set()
            lock = threading.Lock()

            def flaky_once(items):
                with lock:
                    first = items[0] not in seen
                    seen.add(items[0])
                if first:
                    raise OSError("transient")
                return list(items)

            coordinator = ShardCoordinator(8, mode="thread", unit_size=1, max_retries=1)
            assert coordinator.run(range(200), flaky_once, lambda i, e: None) == list(
                range(200)
            )
            return coordinator.stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = [trial() for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(s.retries == 200 and s.failed_units == 0 for s in stats)
        assert all(sum(s.per_worker_units) == 200 for s in stats)
