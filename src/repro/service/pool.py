"""Concurrent batch execution of runtime-manager simulations.

:class:`SimulationService` turns a :class:`~repro.service.jobs.BatchSpec` —
a tuple of :class:`~repro.api.spec.ExperimentSpec`\\ s — into a
:class:`BatchResults`: every experiment is wired by
:meth:`RuntimeManager.from_spec <repro.runtime.manager.RuntimeManager.from_spec>`,
exactly as :meth:`Session.run <repro.api.session.Session.run>` wires it
(with an optional shared activation :class:`~repro.store.memo.Memo` around
its scheduler), simulated, and summarised into a picklable
:class:`SimulationResult`.  Every batch runs through one
:class:`~repro.cluster.ShardCoordinator` — work units, work stealing and
bounded shard retry — in the mode its executor name selects
(:func:`~repro.cluster.executor_mode`):

* ``"serial"`` — the calling thread (``"auto"`` with one worker);
* ``"thread"`` — coordinator threads sharing one activation cache, so
  repeated activations *across* traces hit (``"auto"`` with more workers);
* ``"process"`` or ``"cluster"`` — a process pool for CPU parallelism; each
  worker keeps a process-local cache, whose hit and miss counts stay in
  that worker process.

A batch's totals are :meth:`BatchResults.aggregate`.  On the serial and
thread executors, the activation cache's hits and misses are
``service.cache.info()`` (:meth:`~repro.store.memo.Memo.info`).

A service may additionally be bound to a persistent
:class:`~repro.store.ContentStore` (``store=``): the activation memo warms
from it and writes to it, process workers reopen the store by path, and a
warm rerun reads every activation back from it before the kernel memos,
which stay in process, are asked.  Each work unit runs inside one
:meth:`~repro.store.ContentStore.batch`, so the rows a unit writes reach
the store in one transaction when the unit ends.  With or without a
store, every result is the same.

Determinism guarantee
---------------------
Results are returned in job order and every simulation is a pure function of
its declarative spec: per-experiment workload seeds, an activation memo
keyed by the problem as given (a hit returns what the plain scheduler
returns) and fresh scheduler instances per job mean that a batch produces
**bit-identical deterministic results for any worker count, any executor
and any cache state**, equal to :meth:`Session.run
<repro.api.session.Session.run>` of each experiment — aggregate
fingerprints for ``workers=1`` and ``workers=4`` match exactly.  Wall-clock
fields (``search_time_total``, ``wall_time``) are the only exception and
are excluded from :meth:`BatchResults.fingerprint`.

Failure isolation: an exception inside one simulation is captured as that
job's ``error`` string; the rest of the batch is unaffected.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.analysis.experiments import SchedulerRun, SuiteResults
from repro.analysis.stats import BoxplotStats
from repro.api.spec import ExperimentSpec, SchedulerSpec
from repro.cluster import coordinator as _coordinator
from repro.cluster.coordinator import ShardCoordinator, executor_mode
from repro.exceptions import WorkloadError
from repro.kernel.caches import KernelCaches
from repro.runtime.log import ExecutionLog, RequestOutcome
from repro.runtime.manager import RuntimeManager
from repro.service.cache import ActivationCache, CachingScheduler
from repro.service.jobs import BatchSpec
from repro.store.content import ContentStore, resolve_store
from repro.store.memo import Memo


@dataclass(frozen=True)
class SimulationResult:
    """The summarised outcome of one simulated trace.

    All fields are plain data, so results cross process boundaries and
    serialise cheaply.  ``search_time_total`` and ``wall_time`` are
    wall-clock measurements and therefore vary between runs; every other
    field is deterministic given the experiment spec.
    """

    job_name: str
    #: The scheduler's registry name, followed by its options' canonical
    #: JSON when it has any (see :func:`_scheduler_label`).
    scheduler: str
    requests: int = 0
    accepted: int = 0
    rejected: int = 0
    total_energy: float = 0.0
    makespan: float = 0.0
    activations: int = 0
    search_time_total: float = 0.0
    wall_time: float = 0.0
    outcomes: tuple[RequestOutcome, ...] = ()
    #: Per-cluster ``(name, busy J, idle J)`` triples, sorted by name (empty
    #: when the job ran on a bare capacity vector or with accounting off).
    cluster_energy: tuple[tuple[str, float, float], ...] = ()
    #: Requests rejected by the power-cap / energy-budget admission control.
    budget_rejections: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        """``True`` iff the simulation completed without an error."""
        return self.error is None

    @property
    def acceptance_rate(self) -> float:
        """Fraction of admitted requests (1.0 for an empty trace)."""
        return self.accepted / self.requests if self.requests else 1.0

    @classmethod
    def from_log(
        cls, spec: ExperimentSpec, log: ExecutionLog, wall_time: float
    ) -> "SimulationResult":
        """Summarise one finished :class:`ExecutionLog`."""
        return cls(
            job_name=spec.name,
            scheduler=_scheduler_label(spec.scheduler),
            requests=len(log.outcomes),
            accepted=len(log.accepted),
            rejected=len(log.rejected),
            total_energy=log.total_energy,
            makespan=log.makespan,
            activations=log.activations,
            search_time_total=sum(o.scheduler_time for o in log.outcomes),
            wall_time=wall_time,
            outcomes=tuple(log.outcomes),
            cluster_energy=tuple(
                (name, entry["busy"], entry["idle"])
                for name, entry in sorted(log.cluster_energy.items())
            ),
            budget_rejections=log.budget_rejections,
        )

    @classmethod
    def from_error(cls, spec: ExperimentSpec, message: str) -> "SimulationResult":
        """Record a failed simulation (failure isolation)."""
        return cls(
            job_name=spec.name,
            scheduler=_scheduler_label(spec.scheduler),
            error=message,
        )

    def fingerprint_key(self) -> tuple:
        """The deterministic identity of the result (no wall-clock fields)."""
        return (
            self.job_name,
            self.scheduler,
            # The slot of the retired engine field: keeping its one value
            # keeps digests comparable with every one pinned before.
            "events",
            self.requests,
            self.accepted,
            self.rejected,
            repr(self.total_energy),
            repr(self.makespan),
            self.activations,
            self.error,
            tuple(
                (
                    o.name,
                    o.application,
                    repr(o.arrival),
                    repr(o.deadline),
                    o.accepted,
                    repr(o.completion_time),
                )
                for o in self.outcomes
            ),
        )


class BatchResults:
    """The ordered results of one batch run plus aggregate views."""

    def __init__(self, results: Sequence[SimulationResult]):
        self._results = tuple(results)

    @property
    def results(self) -> tuple[SimulationResult, ...]:
        """All results, in job order."""
        return self._results

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self._results)

    def __getitem__(self, index: int) -> SimulationResult:
        return self._results[index]

    def result(self, job_name: str) -> SimulationResult:
        """The result of the named job."""
        for entry in self._results:
            if entry.job_name == job_name:
                return entry
        raise WorkloadError(f"no result for job {job_name!r}")

    @property
    def ok(self) -> list[SimulationResult]:
        """Results of simulations that completed."""
        return [r for r in self._results if r.ok]

    @property
    def failures(self) -> list[SimulationResult]:
        """Results of simulations that raised (failure isolation)."""
        return [r for r in self._results if not r.ok]

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate(self) -> dict:
        """Batch-level totals (sums in job order, hence deterministic)."""
        ok = self.ok
        requests = sum(r.requests for r in ok)
        accepted = sum(r.accepted for r in ok)
        return {
            "traces": len(self._results),
            "failed": len(self.failures),
            "requests": requests,
            "accepted": accepted,
            "rejected": sum(r.rejected for r in ok),
            "acceptance_rate": accepted / requests if requests else 1.0,
            "total_energy": sum(r.total_energy for r in ok),
            "activations": sum(r.activations for r in ok),
            "search_time_total": sum(r.search_time_total for r in ok),
            "budget_rejections": sum(r.budget_rejections for r in ok),
        }

    def cluster_energy(self) -> dict[str, dict[str, float]]:
        """Per-cluster busy/idle/total joules summed over all completed traces."""
        merged: dict[str, dict[str, float]] = {}
        for result in self.ok:
            for name, busy, idle in result.cluster_energy:
                entry = merged.setdefault(
                    name, {"busy": 0.0, "idle": 0.0, "total": 0.0}
                )
                entry["busy"] += busy
                entry["idle"] += idle
                entry["total"] += busy + idle
        return merged

    def fingerprint(self) -> str:
        """A SHA-256 digest of every deterministic result field.

        Two batch runs with the same specs and seeds produce the same
        fingerprint regardless of worker count, executor or caching; each
        result holds the decisions :meth:`Session.run
        <repro.api.session.Session.run>` makes for its spec.
        """
        digest = hashlib.sha256()
        for result in self._results:
            digest.update(repr(result.fingerprint_key()).encode("utf-8"))
        return digest.hexdigest()

    def search_time_stats(self) -> BoxplotStats:
        """Box-plot statistics of the per-trace cumulative scheduler time."""
        samples = [r.search_time_total for r in self.ok]
        return BoxplotStats.from_samples(samples)

    # ------------------------------------------------------------------ #
    # Bridges into the existing analysis structures
    # ------------------------------------------------------------------ #
    def to_scheduler_runs(self) -> list[SchedulerRun]:
        """One :class:`SchedulerRun` per trace, for the analysis helpers.

        Online traces have no deadline level, so ``deadline_level`` is
        ``None``; ``feasible`` records whether the simulation completed and
        ``energy``/``search_time`` carry the per-trace totals.
        """
        return [
            SchedulerRun(
                case_name=r.job_name,
                num_jobs=r.requests,
                deadline_level=None,
                scheduler=r.scheduler,
                feasible=r.ok,
                energy=r.total_energy if r.ok else float("inf"),
                search_time=r.search_time_total,
            )
            for r in self._results
        ]

    def to_suite_results(self) -> SuiteResults:
        """Wrap the per-trace runs in a :class:`SuiteResults` for reporting."""
        return SuiteResults(self.to_scheduler_runs())

    def to_dict(self) -> dict:
        """Serialise the batch results (summaries, not full timelines)."""
        return {
            "aggregate": self.aggregate(),
            "fingerprint": self.fingerprint(),
            "results": [
                {
                    "job_name": r.job_name,
                    "scheduler": r.scheduler,
                    "requests": r.requests,
                    "accepted": r.accepted,
                    "rejected": r.rejected,
                    "total_energy": r.total_energy,
                    "makespan": r.makespan,
                    "activations": r.activations,
                    "search_time_total": r.search_time_total,
                    "wall_time": r.wall_time,
                    "cluster_energy": {
                        name: {"busy": busy, "idle": idle, "total": busy + idle}
                        for name, busy, idle in r.cluster_energy
                    },
                    "budget_rejections": r.budget_rejections,
                    "error": r.error,
                }
                for r in self._results
            ],
        }


def _scheduler_label(scheduler: SchedulerSpec) -> str:
    """The name a scheduler spec goes by in results and the activation memo.

    The bare registry name without options (so stored rows keep their keys
    and results their groups); with options, the name plus their canonical
    JSON, so differently configured schedulers never share memo entries and
    report as separate groups.
    """
    if not scheduler.options:
        return scheduler.name
    return scheduler.name + json.dumps(
        scheduler.options, sort_keys=True, separators=(",", ":")
    )


def _simulate(
    spec: ExperimentSpec,
    cache: Memo | None,
    kernel_caches: KernelCaches | None = None,
) -> SimulationResult:
    """Wire and run one experiment, capturing any failure in the result."""
    start = time.perf_counter()
    try:
        platform = spec.platform.build()
        tables = spec.resolve_tables(platform)
        scheduler = spec.scheduler.build()
        if cache is not None:
            scheduler = CachingScheduler(
                scheduler, cache, namespace=_scheduler_label(spec.scheduler)
            )
        trace = spec.workload.build(tables)
        manager = RuntimeManager.from_spec(
            spec,
            platform=platform,
            tables=tables,
            scheduler=scheduler,
            kernel_caches=kernel_caches,
        )
        log = manager.run(trace)
    except Exception as error:  # noqa: BLE001 — failure isolation by design
        return SimulationResult.from_error(spec, f"{type(error).__name__}: {error}")
    return SimulationResult.from_log(spec, log, time.perf_counter() - start)


#: Per-process activation memo for the ``"process"`` executor, rebuilt when
#: the configured size or the store changes; initialised lazily per worker.
_PROCESS_CACHE: Memo | None = None
#: Per-process incremental-kernel warm starts (content-keyed, so sharing
#: across the heterogeneous jobs of one worker process is always sound).
_PROCESS_KERNEL_CACHES = KernelCaches()
#: Per-process content store, reopened from the parent's path token.  A
#: SQLite store crosses the process boundary by *path*, not by object —
#: each worker opens its own connection (see repro.store.backend).
_PROCESS_STORE: ContentStore | None = None
_PROCESS_STORE_TOKEN: str | None = None


def _process_store(store_token: str | None) -> ContentStore | None:
    """The worker-process store for ``store_token`` (reopened on change)."""
    global _PROCESS_STORE, _PROCESS_STORE_TOKEN
    if store_token != _PROCESS_STORE_TOKEN:
        _PROCESS_STORE = ContentStore.open(store_token) if store_token else None
        _PROCESS_STORE_TOKEN = store_token
    return _PROCESS_STORE


def _process_simulate(
    spec: ExperimentSpec, cache_size: int, store_token: str | None = None
) -> SimulationResult:
    """Simulate one experiment inside a worker process, on its process caches."""
    global _PROCESS_CACHE
    store = _process_store(store_token)
    cache = None
    if cache_size > 0:
        if (
            _PROCESS_CACHE is None
            or _PROCESS_CACHE.bound != cache_size
            or _PROCESS_CACHE.store is not store
        ):
            _PROCESS_CACHE = ActivationCache(cache_size, store)
        cache = _PROCESS_CACHE
    return _simulate(spec, cache, _PROCESS_KERNEL_CACHES)


def _unit_batch(store: ContentStore | None):
    """The store write batch one work unit runs in (none without a store)."""
    return store.batch() if store is not None else contextlib.nullcontext()


def _process_run_unit(
    jobs: Sequence[ExperimentSpec], cache_size: int, store_token: str | None = None
) -> list[SimulationResult]:
    """Worker-process entry point for one shard (see :mod:`repro.cluster`).

    Each experiment crossed the process boundary as its plain-data spec,
    never as live tables or platforms: named and DSE table sets resolve
    through the worker's :func:`~repro.dse.tables.design_tables` memo, which
    a forked worker inherits from the parent.  The unit's store rows are
    written before it returns.
    """
    with _unit_batch(_process_store(store_token)):
        return [_process_simulate(spec, cache_size, store_token) for spec in jobs]


class SimulationService:
    """Run batches of runtime-manager simulations with fan-out and caching.

    Parameters
    ----------
    workers:
        Worker count.  ``1`` runs serially in the calling thread.
    executor:
        ``"auto"`` (serial for one worker, threads otherwise), ``"serial"``,
        ``"thread"``, ``"process"`` or ``"cluster"``.
    cache_size:
        Maximum cached activations (per service, or per worker process for
        the ``"process"`` and ``"cluster"`` executors) of the shared
        activation cache (see :mod:`repro.service.cache`); ``0`` turns it
        off on every executor.  The cache never changes a result, so the
        fingerprint never depends on it.
    store:
        A persistent :class:`~repro.store.ContentStore` (or a path for a
        SQLite-backed one) behind the activation cache, shared — in
        ``"process"``/``"cluster"`` mode — by every worker process.
        ``None`` (the default) keeps the activation cache process-local.

    Examples
    --------
    >>> from repro.service.jobs import BatchSpec
    >>> spec = BatchSpec.sweep(arrival_rates=[0.2], traces_per_point=3,
    ...                        num_requests=3)
    >>> service = SimulationService(workers=1)
    >>> results = service.run_batch(spec)
    >>> len(results)
    3
    >>> results.failures
    []
    """

    def __init__(
        self,
        workers: int = 1,
        executor: str = "auto",
        cache_size: int = 4096,
        kernel_caches: KernelCaches | None = None,
        store: "ContentStore | str | None" = None,
    ):
        if workers < 1:
            raise WorkloadError(f"worker count must be positive, got {workers}")
        self.workers = workers
        self.executor = executor
        self._mode = executor_mode(executor, workers)
        self.cache_size = cache_size
        self.store = resolve_store(store)
        #: The activation memo, or ``None``: decided once here, and handed
        #: to worker processes as its bound (0 for none).
        self.cache = ActivationCache(cache_size, self.store) if cache_size > 0 else None
        #: Shard statistics of the most recent batch (any executor).
        self.cluster_stats = None
        #: Incremental-kernel warm starts shared by every job of every batch
        #: this service runs (content-keyed, hence safe across heterogeneous
        #: jobs): capacity-fitting table slices, MMKP-LR relaxations, EX-MEM
        #: candidate columns.  Callers may inject one to pool across
        #: services/sessions.
        self.kernel_caches = (
            kernel_caches if kernel_caches is not None else KernelCaches()
        )

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        batch: BatchSpec | Sequence[ExperimentSpec],
        progress: Callable[[int, SimulationResult], None] | None = None,
    ) -> BatchResults:
        """Simulate every experiment of the batch and return ordered results.

        The batch runs through one :class:`~repro.cluster.ShardCoordinator`
        in the mode the executor selects.  ``progress`` (if given) is called
        as ``progress(index, result)`` for every job of a work unit as soon
        as that unit completes — completion order, not job order — on the
        worker thread that ran it (the calling thread for ``"serial"``),
        under the coordinator's results lock.  The returned results are
        always in job order.
        """
        jobs = list(batch)
        if self._mode == "process":
            # Looked up per batch: the coordinator's binding is a seam a
            # harness may replace.
            unit = functools.partial(
                _coordinator._process_run_unit,
                cache_size=self.cache.bound if self.cache is not None else 0,
                store_token=(
                    self.store.process_token() if self.store is not None else None
                ),
            )
        else:

            def unit(shard):
                with _unit_batch(self.store):
                    return [
                        _simulate(spec, self.cache, self.kernel_caches)
                        for spec in shard
                    ]

        coordinator = ShardCoordinator(self.workers, mode=self._mode)
        results = coordinator.run(
            jobs,
            unit,
            lambda index, error: SimulationResult.from_error(jobs[index], error),
            progress,
        )
        self.cluster_stats = coordinator.stats
        return BatchResults(results)

    def __repr__(self) -> str:
        return (
            f"SimulationService(workers={self.workers}, executor={self.executor!r}, "
            f"cache={'on' if self.cache is not None else 'off'})"
        )
