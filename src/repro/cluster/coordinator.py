"""Sharded batch execution with work stealing (:class:`ShardCoordinator`).

The service's executors fan a batch out job-by-job; the coordinator instead
splits a batch into contiguous **work units** (shards), gives every worker
its own unit deque, and lets idle workers *steal* from the busiest rival's
tail — so a batch whose job costs are skewed (one census trace next to many
motivational ones) still keeps every core busy without any cost model.

Execution modes:

* ``"thread"`` — units run on coordinator threads sharing the service's
  activation/kernel caches (and, transitively, a bound content store);
* ``"process"`` — units run in a shared :class:`ProcessPoolExecutor`; each
  worker process opens the content store by its path token, so shards warm
  each other through the store even across process boundaries.

Failure isolation is layered: a *job* that raises is already captured as an
``error`` result inside :func:`~repro.service.pool._simulate`; a *shard*
whose worker dies (a killed process, a broken pool) is retried up to
``max_retries`` times — on a fresh pool when the old one broke — and only
then marked failed, job by job, without touching any other shard.

Determinism: results are merged by absolute job index, so the batch
fingerprint is independent of worker count, unit size, steal order and
retry history — ``workers=1`` equals ``workers=N`` equals a warm-store
rerun, which the equivalence tests pin down.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import WorkloadError
from repro.kernel.caches import KernelCaches
from repro.service.jobs import BatchSpec, SimulationJob
from repro.service.pool import (
    BatchResults,
    SimulationResult,
    _process_run_unit,
    _simulate,
)
from repro.store.content import ContentStore
from repro.store.memo import Memo

#: Execution modes accepted by :class:`ShardCoordinator`.
MODES = ("thread", "process")


def _job_payload(job: SimulationJob) -> dict:
    """Default payload converter: the job's JSON-serialisable dict form."""
    return job.to_dict()


@dataclass(frozen=True)
class WorkUnit:
    """A contiguous shard of a batch: jobs ``start .. start+len(jobs)-1``."""

    index: int
    start: int
    jobs: tuple[SimulationJob, ...]

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass
class CoordinatorStats:
    """What the coordinator did to one batch (diagnostics, not results)."""

    units: int = 0
    steals: int = 0
    retries: int = 0
    failed_units: int = 0
    per_worker_units: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "units": self.units,
            "steals": self.steals,
            "retries": self.retries,
            "failed_units": self.failed_units,
            "per_worker_units": list(self.per_worker_units),
        }


def split_units(
    jobs: Sequence[SimulationJob], workers: int, unit_size: int | None = None
) -> list[WorkUnit]:
    """Split ``jobs`` into contiguous work units.

    The default unit size targets ~4 units per worker: small enough that
    stealing can rebalance skewed costs, large enough that per-unit
    dispatch overhead stays negligible.
    """
    if unit_size is None:
        unit_size = max(1, len(jobs) // max(1, workers * 4))
    if unit_size < 1:
        raise WorkloadError(f"unit size must be positive, got {unit_size}")
    units = []
    for start in range(0, len(jobs), unit_size):
        units.append(
            WorkUnit(
                index=len(units),
                start=start,
                jobs=tuple(jobs[start : start + unit_size]),
            )
        )
    return units


class ShardCoordinator:
    """Dispatch work units to workers with stealing and bounded retry.

    Parameters
    ----------
    workers:
        Concurrent workers (coordinator threads; in ``"process"`` mode each
        one drives a slot of a shared process pool).
    mode:
        ``"thread"`` or ``"process"`` (see module docstring).
    unit_size:
        Jobs per shard; defaults to ``len(jobs) // (workers * 4)``.
    max_retries:
        How many times a failed *shard* is re-executed before its jobs are
        recorded as errors.
    cache:
        Activation memo shared by ``"thread"``-mode units (optional).
    kernel_caches:
        Kernel warm-start caches shared by ``"thread"``-mode units.
    cache_size:
        Activation-memo bound handed to worker processes (0: no memo).
    store:
        The shared :class:`~repro.store.ContentStore`; process workers
        reopen it via :meth:`~repro.store.ContentStore.process_token`.
    thread_runner:
        Optional ``job -> result`` callable executed per job in ``"thread"``
        mode; defaults to the simulation runner.  Together with
        ``process_entry``/``payload``/``failure`` this turns the coordinator
        into a generic shard executor (the DSE sweep runs exploration tasks
        through it) while the default wiring stays the simulation batch.
    process_entry:
        Optional top-level (picklable) ``(payloads, cache_size, token) ->
        results`` function executed per unit in ``"process"`` mode; defaults
        to the simulation unit entry.
    payload:
        Optional ``job -> picklable payload`` converter used before shipping
        a unit to a worker process; defaults to ``job.to_dict()``.
    failure:
        Optional ``(job, error_message) -> result`` converter recording a
        shard that exhausted its retries; defaults to
        :meth:`SimulationResult.from_error`.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        mode: str = "process",
        unit_size: int | None = None,
        max_retries: int = 2,
        cache: Memo | None = None,
        kernel_caches: KernelCaches | None = None,
        cache_size: int = 4096,
        store: ContentStore | None = None,
        thread_runner: Callable | None = None,
        process_entry: Callable | None = None,
        payload: Callable | None = None,
        failure: Callable | None = None,
    ):
        if workers < 1:
            raise WorkloadError(f"worker count must be positive, got {workers}")
        if mode not in MODES:
            raise WorkloadError(f"unknown cluster mode {mode!r}; choose from {MODES}")
        if max_retries < 0:
            raise WorkloadError("max_retries must be >= 0")
        self.workers = workers
        self.mode = mode
        self.unit_size = unit_size
        self.max_retries = max_retries
        self.cache = cache
        self.kernel_caches = kernel_caches
        self.cache_size = cache_size
        self.store = store
        self._thread_runner = thread_runner
        self._process_entry = process_entry
        self._payload = payload
        self._failure = failure
        self.stats = CoordinatorStats()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        batch: BatchSpec | Sequence[SimulationJob],
        progress: Callable[[int, SimulationResult], None] | None = None,
    ) -> BatchResults:
        """Shard, execute and deterministically merge one batch."""
        jobs = list(batch.jobs if isinstance(batch, BatchSpec) else batch)
        return BatchResults(self.run(jobs, progress))

    def run(
        self,
        jobs: Sequence[SimulationJob],
        progress: Callable[[int, SimulationResult], None] | None = None,
    ) -> list[SimulationResult]:
        """Execute ``jobs`` and return results in absolute job order."""
        jobs = list(jobs)
        if not jobs:
            return []
        units = split_units(jobs, self.workers, self.unit_size)
        self.stats = CoordinatorStats(
            units=len(units), per_worker_units=[0] * self.workers
        )
        results: list[SimulationResult | None] = [None] * len(jobs)
        results_lock = threading.Lock()

        # Round-robin initial placement; worker i owns deque i.
        deques: list[deque[WorkUnit]] = [deque() for _ in range(self.workers)]
        for unit in units:
            deques[unit.index % self.workers].append(unit)
        queue_lock = threading.Lock()

        def take(worker: int) -> WorkUnit | None:
            with queue_lock:
                own = deques[worker]
                if own:
                    return own.popleft()
                # Steal from the tail of the longest rival deque — the tail
                # shards are the ones their owner would reach last, so the
                # steal does not fight the owner for its next unit.
                rival = max(
                    (d for d in deques if d), key=len, default=None
                )
                if rival is None:
                    return None
                self.stats.steals += 1
                return rival.pop()

        def worker_loop(worker: int) -> None:
            while True:
                unit = take(worker)
                if unit is None:
                    return
                unit_results = self._run_unit_with_retry(unit)
                self.stats.per_worker_units[worker] += 1
                with results_lock:
                    for offset, result in enumerate(unit_results):
                        results[unit.start + offset] = result
                    if progress is not None:
                        for offset, result in enumerate(unit_results):
                            progress(unit.start + offset, result)

        threads = [
            threading.Thread(
                target=worker_loop, args=(index,), name=f"shard-worker-{index}"
            )
            for index in range(self.workers)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            self._shutdown_pool()
        missing = [index for index, result in enumerate(results) if result is None]
        if missing:  # pragma: no cover — the retry path always fills results
            raise WorkloadError(f"shard coordinator lost results for jobs {missing}")
        return results

    # ------------------------------------------------------------------ #
    # Unit execution
    # ------------------------------------------------------------------ #
    def _run_unit_with_retry(self, unit: WorkUnit) -> list[SimulationResult]:
        """Execute one shard, retrying on worker death, then failing it."""
        error: str = "unknown shard failure"
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.stats.retries += 1
            try:
                return self._execute_unit(unit)
            except BrokenProcessPool as exc:
                # The whole pool is gone — every concurrent shard sees this;
                # each retries on a fresh pool.
                self._invalidate_pool()
                error = f"BrokenProcessPool: {exc}"
            except Exception as exc:  # noqa: BLE001 — shard-level isolation
                error = f"{type(exc).__name__}: {exc}"
        self.stats.failed_units += 1
        if self._failure is not None:
            return [self._failure(job, error) for job in unit.jobs]
        return [SimulationResult.from_error(job, error) for job in unit.jobs]

    def _execute_unit(self, unit: WorkUnit) -> list[SimulationResult]:
        if self.mode == "thread":
            if self._thread_runner is not None:
                return [self._thread_runner(job) for job in unit.jobs]
            return [
                _simulate(job, self.cache, self.kernel_caches) for job in unit.jobs
            ]
        pool, generation = self._acquire_pool()
        token = self.store.process_token() if self.store is not None else None
        entry = self._process_entry if self._process_entry is not None else _process_run_unit
        to_payload = self._payload if self._payload is not None else _job_payload
        future = pool.submit(
            entry,
            [to_payload(job) for job in unit.jobs],
            self.cache_size,
            token,
        )
        try:
            return future.result()
        except BrokenProcessPool:
            self._invalidate_pool(generation)
            raise

    # ------------------------------------------------------------------ #
    # Shared process pool (recreated when broken)
    # ------------------------------------------------------------------ #
    def _acquire_pool(self) -> tuple[ProcessPoolExecutor, int]:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                self._pool_generation += 1
            return self._pool, self._pool_generation

    def _invalidate_pool(self, generation: int | None = None) -> None:
        with self._pool_lock:
            if generation is not None and generation != self._pool_generation:
                return  # someone else already replaced the broken pool
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def _shutdown_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator(workers={self.workers}, mode={self.mode!r}, "
            f"max_retries={self.max_retries})"
        )


__all__ = [
    "MODES",
    "CoordinatorStats",
    "ShardCoordinator",
    "WorkUnit",
    "split_units",
]
