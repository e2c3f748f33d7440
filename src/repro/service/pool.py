"""Concurrent batch execution of runtime-manager simulations.

:class:`SimulationService` turns a :class:`~repro.service.jobs.BatchSpec`
into a :class:`BatchResults`: every job is materialised, simulated by its own
:class:`~repro.runtime.manager.RuntimeManager` (with an optional shared
:class:`~repro.service.cache.ActivationCache`) and summarised into a
picklable :class:`SimulationResult`.  Three executors are available:

* ``"serial"`` — run in the calling thread (the ``workers=1`` default);
* ``"thread"`` — a thread pool sharing one activation cache, so repeated
  activations *across* traces hit;
* ``"process"`` — a process pool for CPU parallelism; each worker keeps a
  process-local cache (cache statistics are not aggregated in this mode);
* ``"cluster"`` — the :class:`~repro.cluster.ShardCoordinator`: the batch is
  split into work units executed by a process pool with work stealing and
  bounded shard retry.

A service may additionally be bound to a persistent
:class:`~repro.store.ContentStore` (``store=`` or the ``REPRO_STORE``
environment variable): the activation cache and kernel caches become
store-backed, process workers reopen the store by path, and warm reruns
start from every entry previous runs persisted.  With no store configured
(or ``REPRO_STORE=0``) behaviour is bit-identical to the store-less code.

Determinism guarantee
---------------------
Results are returned in job order and every simulation is a pure function of
its declarative spec: per-job trace seeds, canonical activation caching (the
cached and uncached paths produce bit-identical schedules) and fresh
scheduler instances per job mean that a batch produces **bit-identical
deterministic results for any worker count and any executor** — aggregate
fingerprints for ``workers=1`` and ``workers=4`` match exactly.  Wall-clock
fields (``search_time_total``, ``wall_time``) are the only exception and are
excluded from :meth:`BatchResults.fingerprint`.

Failure isolation: an exception inside one simulation is captured as that
job's ``error`` string; the rest of the batch is unaffected.
"""

from __future__ import annotations

import contextvars
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.analysis.experiments import SchedulerRun, SuiteResults
from repro.analysis.stats import BoxplotStats
from repro.api.registry import governors as _governors
from repro.api.registry import schedulers as _schedulers
from repro.energy.budget import EnergyBudget
from repro.exceptions import WorkloadError
from repro.kernel.caches import KernelCaches
from repro.runtime.log import ExecutionLog, RequestOutcome
from repro.runtime.manager import RuntimeManager
from repro.service.cache import ActivationCache, CachingScheduler
from repro.service.jobs import BatchSpec, SimulationJob
from repro.service.metrics import ServiceMetrics
from repro.store.bindings import store_backed_activation_cache, store_backed_caches
from repro.store.content import ContentStore, resolve_store

#: Executor names accepted by :class:`SimulationService`.
EXECUTORS = ("auto", "serial", "thread", "process", "cluster")


@dataclass(frozen=True)
class SimulationResult:
    """The summarised outcome of one simulated trace.

    All fields are plain data, so results cross process boundaries and
    serialise cheaply.  ``search_time_total`` and ``wall_time`` are
    wall-clock measurements and therefore vary between runs; every other
    field is deterministic given the job spec.
    """

    job_name: str
    scheduler: str
    engine: str
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
        cls, job: SimulationJob, log: ExecutionLog, wall_time: float
    ) -> "SimulationResult":
        """Summarise one finished :class:`ExecutionLog`."""
        return cls(
            job_name=job.name,
            scheduler=job.scheduler,
            engine=job.engine,
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
    def from_error(cls, job: SimulationJob, message: str) -> "SimulationResult":
        """Record a failed simulation (failure isolation)."""
        return cls(
            job_name=job.name,
            scheduler=job.scheduler,
            engine=job.engine,
            error=message,
        )

    def fingerprint_key(self) -> tuple:
        """The deterministic identity of the result (no wall-clock fields)."""
        return (
            self.job_name,
            self.scheduler,
            self.engine,
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
        fingerprint regardless of worker count, executor or caching.
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
                    "engine": r.engine,
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


def _simulate(
    job: SimulationJob,
    cache: ActivationCache | None,
    kernel_caches: KernelCaches | None = None,
) -> SimulationResult:
    """Materialise and run one job, capturing any failure in the result."""
    start = time.perf_counter()
    try:
        tables = job.resolve_tables()
        platform = job.resolve_platform()
        scheduler = _schedulers.build(job.scheduler)
        if cache is not None:
            scheduler = CachingScheduler(scheduler, cache)
        trace = job.resolve_trace(tables)
        governor = (
            _governors.build(job.governor) if job.governor is not None else None
        )
        budget = None
        if job.power_cap_watts is not None or job.energy_budget_joules is not None:
            budget = EnergyBudget(
                power_cap_watts=job.power_cap_watts,
                energy_budget_joules=job.energy_budget_joules,
            )
        manager = RuntimeManager.from_components(
            platform,
            tables,
            scheduler,
            remap_on_finish=job.remap_on_finish,
            governor=governor,
            budget=budget,
            kernel_caches=kernel_caches,
        )
        log = manager.run(trace)
    except Exception as error:  # noqa: BLE001 — failure isolation by design
        return SimulationResult.from_error(job, f"{type(error).__name__}: {error}")
    return SimulationResult.from_log(job, log, time.perf_counter() - start)


#: Per-process activation cache for the ``"process"`` executor, keyed by the
#: configured size; initialised lazily in each worker process.
_PROCESS_CACHE: ActivationCache | None = None
_PROCESS_CACHE_SIZE: int = 0
#: Per-process incremental-kernel warm starts (content-keyed, so sharing
#: across the heterogeneous jobs of one worker process is always sound).
_PROCESS_KERNEL_CACHES: KernelCaches | None = None
#: Per-process content store, reopened from the parent's path token.  A
#: SQLite store crosses the process boundary by *path*, not by object —
#: each worker opens its own connection (see repro.store.backend).
_PROCESS_STORE: ContentStore | None = None
_PROCESS_STORE_TOKEN: str | None = None


def _process_store(store_token: str | None) -> ContentStore | None:
    """The worker-process store for ``store_token`` (rebinding on change)."""
    global _PROCESS_STORE, _PROCESS_STORE_TOKEN
    if store_token != _PROCESS_STORE_TOKEN or (
        store_token is not None and _PROCESS_STORE is None
    ):
        # resolve_store re-applies the REPRO_STORE escape hatch, so a
        # worker inheriting REPRO_STORE=0 stays store-less no matter what
        # token the parent sends.
        _PROCESS_STORE = resolve_store(store_token) if store_token else None
        _PROCESS_STORE_TOKEN = store_token
        from repro.optable.table import bind_intern_store

        bind_intern_store(_PROCESS_STORE)
    return _PROCESS_STORE


def _process_simulate(
    job_data: Mapping, cache_size: int, store_token: str | None = None
) -> SimulationResult:
    """Worker-process entry point: rebuild the job and simulate it."""
    global _PROCESS_CACHE, _PROCESS_CACHE_SIZE, _PROCESS_KERNEL_CACHES
    store = _process_store(store_token)
    cache = None
    if cache_size > 0:
        if (
            _PROCESS_CACHE is None
            or _PROCESS_CACHE_SIZE != cache_size
            or getattr(_PROCESS_CACHE, "store", None) is not store
        ):
            _PROCESS_CACHE = store_backed_activation_cache(store, cache_size)
            _PROCESS_CACHE_SIZE = cache_size
        cache = _PROCESS_CACHE
    if (
        _PROCESS_KERNEL_CACHES is None
        or getattr(_PROCESS_KERNEL_CACHES, "store", None) is not store
    ):
        _PROCESS_KERNEL_CACHES = store_backed_caches(store)
    return _simulate(SimulationJob.from_dict(job_data), cache, _PROCESS_KERNEL_CACHES)


def _process_run_unit(
    job_datas: Sequence[Mapping], cache_size: int, store_token: str | None = None
) -> list[SimulationResult]:
    """Worker-process entry point for one shard (see :mod:`repro.cluster`)."""
    return [
        _process_simulate(job_data, cache_size, store_token)
        for job_data in job_datas
    ]


class SimulationService:
    """Run batches of runtime-manager simulations with fan-out and caching.

    Parameters
    ----------
    workers:
        Worker count.  ``1`` runs serially in the calling thread.
    executor:
        ``"auto"`` (serial for one worker, threads otherwise), ``"serial"``,
        ``"thread"`` or ``"process"``.
    use_cache:
        Enable the shared activation cache (see :mod:`repro.service.cache`).
    cache_size:
        Maximum cached activations (per service, or per worker process for
        the ``"process"`` executor).
    metrics:
        An existing :class:`ServiceMetrics` registry to record into; a fresh
        one is created when omitted.
    store:
        A persistent :class:`~repro.store.ContentStore` (or a path for a
        SQLite-backed one) shared by the activation cache, the kernel
        caches and — in ``"process"``/``"cluster"`` mode — every worker
        process.  ``None`` (the default) keeps all caches process-local;
        the ``REPRO_STORE`` environment variable can opt in (a path) or
        force-disable (``0``) regardless of this argument.

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
        use_cache: bool = True,
        cache_size: int = 4096,
        metrics: ServiceMetrics | None = None,
        kernel_caches: KernelCaches | None = None,
        store: "ContentStore | str | None" = None,
    ):
        if workers < 1:
            raise WorkloadError(f"worker count must be positive, got {workers}")
        if executor not in EXECUTORS:
            raise WorkloadError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        self.workers = workers
        self.executor = executor
        self.use_cache = use_cache
        self.cache_size = cache_size
        self.store = resolve_store(store)
        self.cache = (
            store_backed_activation_cache(self.store, cache_size)
            if use_cache
            else None
        )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: Shard statistics of the most recent ``"cluster"`` batch.
        self.cluster_stats = None
        #: Incremental-kernel warm starts shared by every job of every batch
        #: this service runs (content-keyed, hence safe across heterogeneous
        #: jobs): capacity-fitting table slices, MMKP-LR relaxations, EX-MEM
        #: candidate columns.  Callers may inject one to pool across
        #: services/sessions.
        self.kernel_caches = (
            kernel_caches
            if kernel_caches is not None
            else store_backed_caches(self.store)
        )

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        batch: BatchSpec | Sequence[SimulationJob],
        progress: Callable[[int, SimulationResult], None] | None = None,
    ) -> BatchResults:
        """Simulate every job of the batch and return ordered results.

        ``progress`` (if given) is called as ``progress(index, result)`` from
        the coordinating thread whenever a job completes — completion order,
        not job order.  The returned results are always in job order.
        """
        jobs = list(batch.jobs if isinstance(batch, BatchSpec) else batch)
        if not jobs:
            return BatchResults(())
        executor = self.executor
        if executor == "auto":
            executor = "serial" if self.workers == 1 else "thread"

        cache_before = self.cache.info() if self.cache is not None else None
        if executor == "serial":
            results = self._run_serial(jobs, progress)
        elif executor == "thread":
            results = self._run_threads(jobs, progress)
        elif executor == "cluster":
            results = self._run_cluster(jobs, progress)
        else:
            results = self._run_processes(jobs, progress)

        for result in results:
            self.metrics.observe_result(result)
        if self.cache is not None and executor not in ("process", "cluster"):
            after = self.cache.info()
            self.metrics.observe_cache(
                {
                    "hits": after["hits"] - cache_before["hits"],
                    "misses": after["misses"] - cache_before["misses"],
                }
            )
        return BatchResults(results)

    def _run_serial(self, jobs, progress) -> list[SimulationResult]:
        results = []
        for index, job in enumerate(jobs):
            result = _simulate(job, self.cache, self.kernel_caches)
            results.append(result)
            if progress is not None:
                progress(index, result)
        return results

    def _run_threads(self, jobs, progress) -> list[SimulationResult]:
        results: list[SimulationResult | None] = [None] * len(jobs)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            # Each job runs inside a copy of the submitting thread's
            # contextvars context, so context-propagated state (a repro.obs
            # tracer) follows the simulations onto the pool threads.
            futures = {
                pool.submit(
                    contextvars.copy_context().run,
                    _simulate,
                    job,
                    self.cache,
                    self.kernel_caches,
                ): index
                for index, job in enumerate(jobs)
            }
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if progress is not None:
                    progress(index, results[index])
        return results

    def _run_processes(self, jobs, progress) -> list[SimulationResult]:
        cache_size = self.cache_size if self.use_cache else 0
        token = self.store.process_token() if self.store is not None else None
        results: list[SimulationResult | None] = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(
                    _process_simulate, job.to_dict(), cache_size, token
                ): index
                for index, job in enumerate(jobs)
            }
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if progress is not None:
                    progress(index, results[index])
        return results

    def _run_cluster(self, jobs, progress) -> list[SimulationResult]:
        # Imported lazily: repro.cluster imports this module.
        from repro.cluster.coordinator import ShardCoordinator

        coordinator = ShardCoordinator(
            self.workers,
            mode="process",
            cache_size=self.cache_size if self.use_cache else 0,
            store=self.store,
        )
        results = coordinator.run(jobs, progress)
        self.cluster_stats = coordinator.stats
        return results

    def __repr__(self) -> str:
        return (
            f"SimulationService(workers={self.workers}, executor={self.executor!r}, "
            f"cache={'on' if self.use_cache else 'off'})"
        )
