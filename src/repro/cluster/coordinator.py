"""Sharded execution with work stealing (:class:`ShardCoordinator`).

The coordinator is the one fan-out for batch and sweep work.  It splits a
list of items into contiguous **work units** (shards), gives every worker
its own unit deque, and lets idle workers *steal* from the busiest rival's
tail — so a batch whose item costs are skewed (one census trace next to
many motivational ones) still keeps every core busy without any cost model.
What a unit *does* is the caller's ``unit(items) -> results`` function:
:class:`~repro.service.pool.SimulationService` passes one that simulates
jobs, :func:`~repro.dse.sweep.run_sweep` one that explores design points.

Execution modes:

* ``"serial"`` — units run in the calling thread;
* ``"thread"`` — units run on coordinator threads, each inside a copy of
  the caller's :mod:`contextvars` context (so a :mod:`repro.obs` tracer
  follows the work);
* ``"process"`` — units run in a shared :class:`ProcessPoolExecutor`, so
  ``unit`` and the items must pickle.

Failure isolation: a unit that raises — a killed worker process, a broken
pool, any exception — is retried up to ``max_retries`` times (on a fresh
pool when the old one broke), and only then are its items handed, one by
one, to the caller's ``failure(index, error)``; no other shard is touched.

Determinism: results are merged by absolute item index, so the output is
independent of worker count, unit size, steal order and retry history —
``workers=1`` equals ``workers=N`` equals a warm-store rerun, which the
equivalence tests pin down.

This module stays import-light: the DSE sweep imports it on every online
run, so it loads neither :mod:`repro.service` nor
:mod:`concurrent.futures.process` until a unit needs them.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.exceptions import WorkloadError

#: Executor names accepted by the batch service, the sweep and the CLI.
EXECUTORS = ("auto", "serial", "thread", "process", "cluster")

#: Execution modes of :class:`ShardCoordinator`.
MODES = ("serial", "thread", "process")


def executor_mode(executor: str, workers: int) -> str:
    """The coordinator mode an executor name selects.

    ``"auto"`` is serial for one worker and threads otherwise;
    ``"cluster"`` is the historical name of process mode.
    """
    if executor not in EXECUTORS:
        raise WorkloadError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
    if executor == "auto":
        return "serial" if workers == 1 else "thread"
    return "process" if executor == "cluster" else executor


def _process_run_unit(jobs, cache_size, store_token=None):
    """Process-mode unit of a simulation batch; a harness may replace it."""
    from repro.service import pool

    return pool._process_run_unit(jobs, cache_size, store_token)


@dataclass(frozen=True)
class WorkUnit:
    """A contiguous shard: items ``start .. start+len(jobs)-1``."""

    index: int
    start: int
    jobs: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass
class CoordinatorStats:
    """What the coordinator did to one run (diagnostics, not results)."""

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
    jobs: Sequence[Any], workers: int, unit_size: int | None = None
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


#: Placeholder of a result slot no unit has filled yet.
_PENDING = object()


class ShardCoordinator:
    """Dispatch work units to workers with stealing and bounded retry.

    Parameters
    ----------
    workers:
        Concurrent workers (coordinator threads; in ``"process"`` mode each
        one drives a slot of a shared process pool).  ``"serial"`` mode has
        one worker, the calling thread.
    mode:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docstring).
    unit_size:
        Items per shard; defaults to ``len(items) // (workers * 4)``.
    max_retries:
        How many times a failed *shard* is re-executed before its items are
        handed to ``failure``.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        mode: str = "process",
        unit_size: int | None = None,
        max_retries: int = 2,
    ):
        if workers < 1:
            raise WorkloadError(f"worker count must be positive, got {workers}")
        if mode not in MODES:
            raise WorkloadError(f"unknown cluster mode {mode!r}; choose from {MODES}")
        if max_retries < 0:
            raise WorkloadError("max_retries must be >= 0")
        self.workers = 1 if mode == "serial" else workers
        self.mode = mode
        self.unit_size = unit_size
        self.max_retries = max_retries
        self.stats = CoordinatorStats()
        self._stats_lock = threading.Lock()
        self._pool = None
        self._pool_generation = 0
        self._pool_lock = threading.Lock()

    def run(
        self,
        items: Sequence[Any],
        unit: Callable[[tuple], list],
        failure: Callable[[int, str], Any],
        progress: Callable[[int, Any], None] | None = None,
    ) -> list:
        """Execute ``items`` shard by shard; return results in item order.

        ``unit(shard_items)`` returns one result per item of its shard.
        ``failure(index, error)`` returns the result recorded for item
        ``index`` when its shard ran out of retries.  ``progress(index,
        result)`` fires for every item of a unit as soon as the unit
        completes — completion order, on the worker that ran it (the
        calling thread in ``"serial"`` mode), under the coordinator's
        results lock.
        """
        items = list(items)
        units = split_units(items, self.workers, self.unit_size)
        self.stats = CoordinatorStats(
            units=len(units), per_worker_units=[0] * self.workers
        )
        if not units:
            return []  # no work, no worker thread, no pool
        results: list = [_PENDING] * len(items)
        results_lock = threading.Lock()

        # Round-robin initial placement; worker i owns deque i.
        deques: list[deque[WorkUnit]] = [deque() for _ in range(self.workers)]
        for shard in units:
            deques[shard.index % self.workers].append(shard)
        queue_lock = threading.Lock()

        def take(worker: int) -> WorkUnit | None:
            with queue_lock:
                own = deques[worker]
                if own:
                    return own.popleft()
                # Steal from the tail of the longest rival deque — the tail
                # shards are the ones their owner would reach last, so the
                # steal does not fight the owner for its next unit.
                rival = max((d for d in deques if d), key=len, default=None)
                if rival is None:
                    return None
                self.stats.steals += 1
                return rival.pop()

        def worker_loop(worker: int) -> None:
            while True:
                shard = take(worker)
                if shard is None:
                    return
                shard_results = self._run_unit_with_retry(shard, unit, failure)
                self.stats.per_worker_units[worker] += 1
                with results_lock:
                    for offset, result in enumerate(shard_results):
                        results[shard.start + offset] = result
                    if progress is not None:
                        for offset, result in enumerate(shard_results):
                            progress(shard.start + offset, result)

        try:
            if self.mode == "serial":
                worker_loop(0)
            else:
                # One context copy per thread: a context cannot be entered
                # by two threads at once.
                threads = [
                    threading.Thread(
                        target=contextvars.copy_context().run,
                        args=(worker_loop, index),
                        name=f"shard-worker-{index}",
                    )
                    for index in range(self.workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            self._shutdown_pool()
        missing = [index for index, result in enumerate(results) if result is _PENDING]
        if missing:
            raise WorkloadError(f"shard coordinator lost results for items {missing}")
        return results

    # ------------------------------------------------------------------ #
    # Unit execution
    # ------------------------------------------------------------------ #
    def _run_unit_with_retry(self, shard: WorkUnit, unit, failure) -> list:
        """Execute one shard, retrying on any error, then failing it."""
        error = "unknown shard failure"
        for attempt in range(self.max_retries + 1):
            if attempt:
                with self._stats_lock:
                    self.stats.retries += 1
            try:
                if self.mode == "process":
                    return self._run_in_pool(unit, shard.jobs)
                return unit(shard.jobs)
            except Exception as exc:  # noqa: BLE001 — shard-level isolation
                error = f"{type(exc).__name__}: {exc}"
        with self._stats_lock:
            self.stats.failed_units += 1
        return [failure(shard.start + offset, error) for offset in range(len(shard))]

    def _run_in_pool(self, unit, items: tuple) -> list:
        from concurrent.futures.process import BrokenProcessPool

        pool, generation = self._acquire_pool()
        try:
            return pool.submit(unit, items).result()
        except BrokenProcessPool:
            # Drop only the pool this shard used: a rival shard may already
            # have replaced it with a healthy one.
            self._invalidate_pool(generation)
            raise

    # ------------------------------------------------------------------ #
    # Shared process pool (recreated when broken)
    # ------------------------------------------------------------------ #
    def _acquire_pool(self):
        with self._pool_lock:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                self._pool_generation += 1
            return self._pool, self._pool_generation

    def _invalidate_pool(self, generation: int) -> None:
        with self._pool_lock:
            if generation == self._pool_generation and self._pool is not None:
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
    "EXECUTORS",
    "MODES",
    "CoordinatorStats",
    "ShardCoordinator",
    "WorkUnit",
    "executor_mode",
    "split_units",
]
