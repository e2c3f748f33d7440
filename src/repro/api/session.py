"""The :class:`Session` facade: one object from spec to results.

A session materialises an :class:`~repro.api.spec.ExperimentSpec` exactly
once (platform, tables — lazily, cached) and exposes every way of running it:

* :meth:`Session.run` — one simulation, optionally observed through an
  ``on_event`` callback receiving :class:`~repro.api.events.RunEvent`\\ s.
* :meth:`Session.stream` — the same simulation as a generator of run events,
  so callers can consume arrivals, commits, finishes and energy ticks while
  the run is still in flight.
* :meth:`Session.run_batch` — fan the spec out into seeded trials through
  the concurrent :class:`~repro.service.pool.SimulationService`.
* :meth:`Session.explore` — (re)generate operating-point tables with the
  :class:`~repro.dse.DesignSpaceExplorer` per the spec's DSE section.

The facade composes the existing subsystems; it adds no behaviour of its
own, so ``Session.from_spec(spec).run()`` is bit-identical to wiring the
runtime manager by hand.

Examples
--------
>>> from repro.api import ExperimentSpec, Session, WorkloadSpec
>>> spec = ExperimentSpec(name="quick", workload=WorkloadSpec.scenario("S1"))
>>> log = Session.from_spec(spec).run()
>>> log.acceptance_rate
1.0
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Callable, Mapping, Sequence

from repro.api.events import RunEvent, RunEventKind
from repro.api.spec import ExperimentSpec
from repro.exceptions import WorkloadError


class RunEventStream:
    """A live stream of :class:`RunEvent`\\ s with deterministic shutdown.

    Returned by :meth:`Session.stream`.  Iterating yields events as the
    simulation produces them on a worker thread; the stream ends after the
    :attr:`~RunEventKind.END` event.  The stream is also a context manager:
    leaving the ``with`` block — or calling :meth:`close` directly — cancels
    the worker thread and joins it, so abandoning a run mid-flight never
    leaks a thread nor relies on generator garbage collection.

    The worker starts lazily on the first :meth:`__next__` (or explicitly
    via :meth:`__enter__`), feeding a bounded queue; a failure inside the
    simulation is re-raised to the consumer.
    """

    _QUEUE_SIZE = 1024

    class _Closed(BaseException):
        """Raised inside the worker to abort an abandoned simulation."""

    def __init__(self, run, name: str):
        self._run = run  # callable(observer) executing the simulation
        self._name = name
        self._events: queue.Queue = queue.Queue(maxsize=self._QUEUE_SIZE)
        self._cancelled = threading.Event()
        self._worker: threading.Thread | None = None
        self._finished = False

    # -- worker side ---------------------------------------------------- #
    def _put(self, item) -> None:
        while not self._cancelled.is_set():
            try:
                self._events.put(item, timeout=0.05)
                return
            except queue.Full:
                continue
        raise self._Closed

    def _work(self) -> None:
        try:
            self._run(self._put)
        except self._Closed:
            pass
        except BaseException as error:  # noqa: BLE001 — re-raised in consumer
            try:
                self._put(error)
            except self._Closed:
                pass

    def _start(self) -> None:
        if self._worker is None:
            # Run the worker inside a copy of the caller's contextvars
            # context so context-propagated state — a repro.obs tracer in
            # particular — follows the simulation onto the worker thread.
            context = contextvars.copy_context()
            self._worker = threading.Thread(
                target=context.run,
                args=(self._work,),
                name=f"repro-session-{self._name}",
                daemon=True,
            )
            self._worker.start()

    # -- consumer side --------------------------------------------------- #
    def __iter__(self) -> "RunEventStream":
        return self

    def __next__(self) -> RunEvent:
        if self._finished:
            raise StopIteration
        self._start()
        item = self._events.get()
        if isinstance(item, BaseException):
            self.close()
            raise item
        if item.kind is RunEventKind.END:
            # The worker emitted its last event; reap it before handing the
            # final event out so a completed stream never leaves a thread.
            self.close()
        return item

    def close(self) -> None:
        """Cancel the worker (if running) and reap it.  Idempotent."""
        self._finished = True
        self._cancelled.set()
        worker = self._worker
        if worker is None:
            return
        # Unblock a producer stuck between the cancel check and a full
        # queue, then reap the thread.
        while True:
            try:
                self._events.get_nowait()
            except queue.Empty:
                break
        worker.join(timeout=10.0)

    def __enter__(self) -> "RunEventStream":
        self._start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class Session:
    """A materialised experiment: the single front door to the pipeline.

    Parameters
    ----------
    spec:
        The declarative experiment description.  The session never mutates
        it; derived live objects (platform, tables) are cached per session.
    kernel_caches:
        Optional pre-existing :class:`~repro.kernel.caches.KernelCaches` to
        adopt instead of building a fresh store — the gateway passes one per
        tenant so warm starts survive across sessions and requests.
    store:
        Optional persistent :class:`~repro.store.ContentStore` (or a path
        for a SQLite-backed one).  When given and no ``kernel_caches`` were
        injected, the session's caches — and any batch service it builds —
        become store-backed, so runs warm each other across sessions,
        processes and host restarts.  ``REPRO_STORE=0`` force-disables.
    """

    def __init__(self, spec: ExperimentSpec, *, kernel_caches=None, store=None):
        if not isinstance(spec, ExperimentSpec):
            raise WorkloadError(
                f"Session expects an ExperimentSpec, got {type(spec).__name__}"
            )
        self._spec = spec
        self._platform = None
        self._tables = None
        self._kernel_caches = kernel_caches
        from repro.store.content import resolve_store

        self._store = resolve_store(store)

    @classmethod
    def from_spec(
        cls, spec: ExperimentSpec, *, kernel_caches=None, store=None
    ) -> "Session":
        """The canonical constructor: ``Session.from_spec(spec).run()``."""
        return cls(spec, kernel_caches=kernel_caches, store=store)

    @classmethod
    def from_file(cls, path) -> "Session":
        """Open a session over a saved ``ExperimentSpec`` JSON file."""
        return cls(ExperimentSpec.load(path))

    # ------------------------------------------------------------------ #
    # Materialised components (lazy, cached per session)
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> ExperimentSpec:
        """The immutable experiment description."""
        return self._spec

    @property
    def platform(self):
        """The live platform (built once per session)."""
        if self._platform is None:
            self._platform = self._spec.platform.build()
        return self._platform

    @property
    def tables(self) -> Mapping:
        """The application → configuration-table mapping (resolved once)."""
        if self._tables is None:
            self._tables = self._spec.resolve_tables(self.platform)
        return self._tables

    @property
    def kernel_caches(self):
        """The session's incremental-kernel warm starts (built once).

        Shared by every manager and batch service this session creates, so
        repeated :meth:`run` calls — and the runs that follow an
        :meth:`explore` sweep — start from warm table slices and solver
        memos.  Content-keyed, hence bit-identical reuse by construction.
        """
        if self._kernel_caches is None:
            from repro.store.bindings import store_backed_caches

            self._kernel_caches = store_backed_caches(self._store)
        return self._kernel_caches

    @property
    def store(self):
        """The session's content store, or ``None`` when not configured."""
        return self._store

    def scheduler(self):
        """A fresh scheduler instance per call (schedulers may keep state)."""
        return self._spec.scheduler.build()

    def trace(self):
        """The live request trace of the spec's workload."""
        return self._spec.workload.build(self.tables)

    def manager(self, *, scheduler=None):
        """A runtime manager wired from the spec (fresh scheduler by default)."""
        from repro.runtime.manager import RuntimeManager

        return RuntimeManager.from_spec(
            self._spec,
            platform=self.platform,
            tables=self.tables,
            scheduler=scheduler,
            kernel_caches=self.kernel_caches,
        )

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, *, on_event: Callable[[RunEvent], None] | None = None):
        """Simulate the experiment once and return the execution log.

        ``on_event`` observes the run incrementally; observation never
        changes the simulated behaviour.
        """
        return self.manager().run(self.trace(), observer=on_event)

    def stream(self) -> RunEventStream:
        """Run the experiment, yielding :class:`RunEvent`\\ s as they happen.

        Returns a :class:`RunEventStream`: iterate it (the simulation
        executes on a worker thread feeding a bounded queue; the final event
        has kind :attr:`~RunEventKind.END` and carries the completed
        :class:`~repro.runtime.log.ExecutionLog` in ``event.data["log"]``),
        or use it as a context manager so an early exit deterministically
        cancels and joins the worker thread::

            with session.stream() as events:
                for event in events:
                    ...

        A failure inside the simulation is re-raised to the consumer.
        """
        return RunEventStream(
            lambda observer: self.run(on_event=observer),
            self._spec.name,
        )

    # ------------------------------------------------------------------ #
    # Batch fan-out
    # ------------------------------------------------------------------ #
    def to_batch(
        self,
        trials: int = 1,
        seeds: Sequence[int] | None = None,
        name: str | None = None,
    ):
        """Expand the spec into a :class:`~repro.service.jobs.BatchSpec`.

        With ``seeds`` (or ``trials > 1`` on a seeded workload) one job is
        created per seed; per-job seeding is what keeps batch results
        bit-identical for any worker count.
        """
        from repro.service.jobs import BatchSpec

        if trials < 1:
            raise WorkloadError(f"trials must be positive, got {trials}")
        if seeds is None:
            if trials == 1:
                resolved: list[int | None] = [None]
            else:
                base = int(self._spec.workload.options.get("seed", 0))
                resolved = [base + index for index in range(trials)]
        else:
            resolved = list(seeds)
        # Named table sets travel by name (small, process-executor friendly);
        # inline/DSE tables are materialised once via the session cache so a
        # batch never re-runs the exploration per job.
        tables = None if self._spec.tables is not None else self.tables
        jobs = []
        for index, seed in enumerate(resolved):
            job_name = (
                self._spec.name
                if len(resolved) == 1
                else f"{self._spec.name}-t{index:03d}"
            )
            jobs.append(self._spec.to_job(name=job_name, seed=seed, tables=tables))
        return BatchSpec(name=name or self._spec.name, jobs=tuple(jobs))

    def run_batch(
        self,
        trials: int = 1,
        seeds: Sequence[int] | None = None,
        *,
        workers: int = 1,
        executor: str = "auto",
        use_cache: bool = True,
        cache_size: int = 4096,
        service=None,
        progress=None,
    ):
        """Run the spec as a seeded batch and return the ordered results.

        A pre-configured :class:`~repro.service.pool.SimulationService` may
        be passed to share its activation cache and metrics across sessions.
        """
        if service is None:
            from repro.service.pool import SimulationService

            service = SimulationService(
                workers=workers,
                executor=executor,
                use_cache=use_cache,
                cache_size=cache_size,
                kernel_caches=self.kernel_caches,
                store=self._store,
            )
        return service.run_batch(
            self.to_batch(trials=trials, seeds=seeds), progress=progress
        )

    # ------------------------------------------------------------------ #
    # Design-space exploration
    # ------------------------------------------------------------------ #
    def explore(
        self,
        graph=None,
        *,
        executor: str | None = None,
        workers: int = 1,
        store=None,
    ):
        """Run the DSE flow of the spec's ``dse`` section.

        Without arguments, regenerates the full per-application table set on
        the session's platform and caches it as the session tables (so a
        subsequent :meth:`run` schedules against the freshly explored
        points).  With ``graph``, explores that one KPN graph and returns
        its :class:`~repro.core.config.ConfigTable` without touching the
        session state.

        ``executor`` routes the full-table regeneration through the
        distributed sweep engine (:func:`repro.dse.sweep.run_sweep`) instead
        of the serial explorer: ``"serial"``, ``"thread"``, ``"process"`` or
        ``"cluster"``, with ``workers`` parallel workers and an optional
        content ``store`` (instance or path) memoising exploration tasks
        across workers and reruns.  The resulting tables are bit-identical
        to the serial path; only the wall time changes.  ``store=None``
        falls back to the session's own store.
        """
        from repro.dse.explorer import DesignSpaceExplorer

        if graph is not None:
            explorer = DesignSpaceExplorer.from_spec(self._spec, platform=self.platform)
            scales = None
            if self._spec.dse is not None and self._spec.dse.sweep_opps:
                from repro.energy.opp import available_scales, ensure_opps

                scales = available_scales(ensure_opps(self.platform))
            return explorer.explore(graph, opp_scales=scales)
        if self._spec.dse is None:
            raise WorkloadError(
                "experiment spec has no dse section; nothing to explore"
            )
        if executor is None:
            self._tables = self._spec.dse.build_tables(self.platform)
            return self._tables
        from repro.dse.sweep import SweepSpec, run_sweep
        from repro.dse.tables import reduced_tables

        dse = self._spec.dse
        sweep_spec = SweepSpec(
            platforms=(self.platform.name,),
            input_sizes=dse.input_sizes,
            sweep_opps=dse.sweep_opps,
            schedulers=(),
            scenarios=(),
        )
        result = run_sweep(
            sweep_spec,
            platforms=(self.platform,),
            executor=executor,
            workers=workers,
            store=store if store is not None else self._store,
        )
        tables = result.tables_for(self.platform.name)
        if dse.max_points is not None:
            tables = reduced_tables(tables, max_points=dse.max_points)
        self._tables = tables
        return self._tables

    def __repr__(self) -> str:
        return f"Session({self._spec.name!r}, scheduler={self._spec.scheduler.name!r})"


__all__ = ["RunEventStream", "Session"]
