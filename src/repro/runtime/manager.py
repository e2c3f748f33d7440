"""The online runtime manager (RM).

The manager owns the platform and the design-time operating-point tables,
receives request arrivals from a :class:`~repro.runtime.trace.RequestTrace`
and drives one of the schedulers:

* On every arrival it advances simulated time to the arrival instant
  (executing the current schedule, tracking job progress and energy), builds a
  :class:`~repro.core.problem.SchedulingProblem` with all unfinished jobs plus
  the new one and activates the scheduler.  If a feasible schedule is found
  the request is admitted and the schedule replaced; otherwise the new request
  is rejected and the previous schedule remains in force — exactly the
  admission policy described in Section IV of the paper.
* Optionally it also re-activates the scheduler whenever a job finishes
  (``remap_on_finish=True``), which is how the "fixed mapper with remapping at
  application start and finish" of Fig. 1(b) behaves.

The simulation is driven by a heap-based
:class:`~repro.service.events.EventQueue` (the ``"events"`` engine, the only
one): arrivals and segment boundaries become events (job finishes coincide
with the end of the job's last segment, so boundary events cover them), and
picking the next time step costs ``O(log n)``.  Every activation goes
through the incremental kernel's
:class:`~repro.kernel.pipeline.AdmissionPipeline`.  The seed implementation
(arrivals in trace order, full re-solves) lives on as the reference oracle
under ``tests/reference``; the equivalence suites assert identical
:class:`~repro.runtime.log.ExecutionLog` contents.

All per-run state lives in a private run context, so ``run()`` itself is
reentrant and one manager instance can be shared across concurrent callers —
*provided the scheduler is*.  The scheduler instance is shared between runs,
and some schedulers keep per-solve state on ``self`` (EX-MEM's memo tables,
for example), so concurrent runs are only safe with stateless or thread-safe
schedulers such as MMKP-MDF;
:class:`~repro.service.pool.SimulationService` side-steps this by building a
fresh scheduler instance per simulation job.

The result of a run is an :class:`~repro.runtime.log.ExecutionLog` with the
admission decisions, the executed timeline and the total consumed energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import inspect

from repro.api.events import RunEvent, RunEventKind
from repro.core.config import ConfigTable
from repro.core.request import Job
from repro.core.segment import MappingSegment, Schedule
from repro.energy.accounting import EnergyMeter
from repro.energy.budget import EnergyBudget
from repro.energy.governor import FrequencyGovernor, stretch_schedule
from repro.energy.opp import OPPDecision, decide, ensure_opps
from repro.exceptions import AdmissionError, SchedulingError
from repro.kernel.caches import KernelCaches
from repro.kernel.pipeline import AdmissionPipeline, KernelRun
from repro.kernel.state import LoadLedger
from repro.obs import tracer as obs
from repro.optable.adapters import optables_for
from repro.platforms.platform import Platform
from repro.platforms.resources import ResourceVector
from repro.runtime.log import ExecutedInterval, ExecutionLog, RequestOutcome
from repro.runtime.trace import RequestEvent, RequestTrace
from repro.schedulers.base import Scheduler
from repro.service.events import Event, EventKind, EventQueue

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.api.spec import ExperimentSpec

#: Remaining-ratio threshold below which a job counts as completed.
_FINISH_TOLERANCE = 1e-6
_TIME_EPSILON = 1e-9

#: The supported time-advance engines.
ENGINES = ("events",)
#: Speeds within this tolerance of 1.0 leave the schedule unstretched.
_SCALE_EPSILON = 1e-9


@dataclass(frozen=True)
class _Plan:
    """A schedule ready to commit plus the DVFS state it executes under."""

    schedule: Schedule
    speed: float = 1.0
    decision: OPPDecision | None = None


@dataclass
class _RunContext:
    """All mutable state of one simulation run.

    Keeping the state here (instead of on the manager) makes
    :meth:`RuntimeManager.run` reentrant: a single manager instance can be
    shared by concurrent workers, each run owning its private context.
    """

    now: float = 0.0
    active: dict[str, Job] = field(default_factory=dict)
    schedule: Schedule = field(default_factory=Schedule)
    #: Index of the first committed segment that may still execute.  The
    #: cursor only moves forward and is reset when a schedule is committed,
    #: making the next-segment lookup O(1) amortised instead of the seed's
    #: O(n) rescan per advance.
    cursor: int = 0
    #: Schedule generation counter used to lazily invalidate queued
    #: segment-boundary events after a new schedule is committed.
    epoch: int = 0
    queue: EventQueue = field(default_factory=EventQueue)
    log: ExecutionLog = field(default_factory=ExecutionLog)
    completions: dict[str, float] = field(default_factory=dict)
    request_info: dict[str, RequestEvent] = field(default_factory=dict)
    admissions: dict[str, tuple[bool, float]] = field(default_factory=dict)
    #: Incremental energy accounting (None when disabled).
    meter: EnergyMeter | None = None
    #: Uniform execution speed of the committed schedule (1.0 = nominal).
    speed: float = 1.0
    #: Per-cluster OPPs in force; ``None`` selects the seed's table-energy
    #: accounting, an :class:`OPPDecision` selects analytical accounting.
    decision: OPPDecision | None = None
    #: Streaming observer for this run (``None`` = no observation).  Events
    #: describe transitions the manager performs anyway, so observed and
    #: unobserved runs produce bit-identical logs.
    observer: Callable[[RunEvent], None] | None = None
    #: Incremental-kernel context of this run: shared warm-start caches,
    #: the explicit schedule state and delta counters.
    kernel: KernelRun | None = None


class RuntimeManager:
    """Event-driven runtime manager simulation.

    Parameters
    ----------
    platform:
        The platform (or a bare capacity vector).
    tables:
        Application name → configuration table (the design-time data).
    scheduler:
        The scheduling algorithm activated on arrivals (and finishes).
    remap_on_finish:
        Re-activate the scheduler whenever a job completes.  The adaptive
        schedulers do not need this (their schedules already cover the whole
        horizon); the fixed mapper of Fig. 1(b) does.
    governor:
        Optional :class:`~repro.energy.governor.FrequencyGovernor`.  When
        set, every schedule commit picks a uniform platform speed from the
        platform's OPP ladders (synthetic default ladders are attached if
        the platform has none), stretches the committed schedule
        accordingly, and energy is integrated analytically from the
        per-core power models at the selected OPPs.  Requires a full
        :class:`Platform`.  ``None`` (the default) keeps the seed's
        pinned-frequency behaviour bit-identical.
    budget:
        Optional :class:`~repro.energy.budget.EnergyBudget`.  A request
        whose feasible schedule would violate the power cap or energy
        budget is rejected exactly like an infeasible one.
    account_energy:
        Feed every executed interval into an incremental
        :class:`~repro.energy.accounting.EnergyMeter`, filling
        ``ExecutionLog.cluster_energy`` / ``job_energy``.  Accounting never
        changes the logged totals in the default mode; disable it only to
        shave the last few percent off simulation hot loops.

    Construction
    ------------
    :meth:`from_components` is the programmatic constructor and
    :meth:`from_spec` builds a manager straight from a declarative
    :class:`~repro.api.spec.ExperimentSpec` (most callers should go through
    :class:`repro.api.Session` instead).

    Examples
    --------
    >>> from repro.schedulers import MMKPMDFScheduler
    >>> from repro.workload.motivational import motivational_platform, motivational_tables
    >>> from repro.runtime import RequestEvent, RequestTrace
    >>> manager = RuntimeManager.from_components(
    ...     motivational_platform(), motivational_tables(), MMKPMDFScheduler())
    >>> trace = RequestTrace([RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
    ...                       RequestEvent(1.0, "lambda2", 4.0, "sigma2")])
    >>> log = manager.run(trace)
    >>> log.acceptance_rate
    1.0
    """

    @classmethod
    def from_components(
        cls,
        platform: Platform | ResourceVector,
        tables: Mapping[str, ConfigTable],
        scheduler: Scheduler,
        *,
        remap_on_finish: bool = False,
        governor: FrequencyGovernor | None = None,
        budget: EnergyBudget | None = None,
        account_energy: bool = True,
        kernel_caches: KernelCaches | None = None,
    ) -> "RuntimeManager":
        """Build a manager from live components.

        ``kernel_caches`` optionally injects a shared
        :class:`~repro.kernel.caches.KernelCaches` so several managers (the
        batch service's per-job managers, a DSE sweep) pool their
        content-keyed warm starts; by default each manager owns one.
        """
        manager = cls.__new__(cls)
        manager._configure(
            platform,
            tables,
            scheduler,
            remap_on_finish=remap_on_finish,
            governor=governor,
            budget=budget,
            account_energy=account_energy,
            kernel_caches=kernel_caches,
        )
        return manager

    @classmethod
    def from_spec(
        cls,
        spec: "ExperimentSpec",
        *,
        platform: Platform | ResourceVector | None = None,
        tables: Mapping[str, ConfigTable] | None = None,
        scheduler: Scheduler | None = None,
        kernel_caches: KernelCaches | None = None,
    ) -> "RuntimeManager":
        """Build a manager from a declarative :class:`ExperimentSpec`.

        ``platform``/``tables``/``scheduler`` short-circuit the spec's
        registry lookups when the caller already materialised them (the
        :class:`~repro.api.session.Session` cache, or a
        :class:`~repro.service.cache.CachingScheduler` wrapper);
        ``kernel_caches`` shares the caller's incremental-kernel warm
        starts across the managers it builds.
        """
        if platform is None:
            platform = spec.platform.build()
        if tables is None:
            tables = spec.resolve_tables(platform)
        if scheduler is None:
            scheduler = spec.scheduler.build()
        return cls.from_components(
            platform,
            tables,
            scheduler,
            remap_on_finish=spec.scheduler.remap_on_finish,
            governor=spec.energy.build_governor(),
            budget=spec.energy.build_budget(),
            account_energy=spec.energy.account_energy,
            kernel_caches=kernel_caches,
        )

    def _configure(
        self,
        platform: Platform | ResourceVector,
        tables: Mapping[str, ConfigTable],
        scheduler: Scheduler,
        *,
        remap_on_finish: bool,
        governor: FrequencyGovernor | None,
        budget: EnergyBudget | None,
        account_energy: bool,
        kernel_caches: KernelCaches | None = None,
    ) -> None:
        self._capacity = (
            platform.capacity if isinstance(platform, Platform) else platform
        )
        self._platform = platform if isinstance(platform, Platform) else None
        if governor is not None:
            if self._platform is None:
                raise SchedulingError(
                    "a frequency governor needs a full Platform, "
                    "not a bare capacity vector"
                )
            self._platform = ensure_opps(self._platform)
        self._tables = dict(tables)
        if governor is not None:
            # DVFS-swept tables already embody a frequency choice per point;
            # stretching them again with a runtime governor would double-apply
            # the slow-down and misprice energy.  Swept tables are for offline
            # analysis and governor-free managers (where picking a slow point
            # *is* the DVFS decision).
            for name, table in self._tables.items():
                if any(point.frequency_scale != 1.0 for point in table):
                    raise SchedulingError(
                        f"table {name!r} contains DVFS-swept operating points "
                        f"(frequency_scale != 1); a frequency governor needs "
                        f"nominal-frequency tables"
                    )
        # Interned columnar twins of the design-time tables: one build per
        # manager (shared process-wide via fingerprints), consumed by the
        # execution hot loop instead of per-interval point lookups.
        self._optables = optables_for(self._tables)
        self._scheduler = scheduler
        self._remap_on_finish = remap_on_finish
        self._governor = governor
        self._budget = None if budget is not None and budget.unconstrained else budget
        self._account_energy = account_energy
        # Incremental-kernel plumbing: one admission pipeline per manager and
        # one warm-start cache store (shared across this manager's runs; a
        # batch service may inject its own to share across jobs).
        self._pipeline = AdmissionPipeline(self)
        if kernel_caches is None:
            kernel_caches = KernelCaches()
        self._kernel_caches = kernel_caches
        self._governor_takes_ledger = governor is not None and (
            "ledger" in inspect.signature(governor.select_scale).parameters
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        trace: RequestTrace,
        observer: Callable[[RunEvent], None] | None = None,
    ) -> ExecutionLog:
        """Simulate the runtime manager over a full request trace.

        Parameters
        ----------
        trace:
            The request arrivals to simulate.
        observer:
            Optional callback receiving a :class:`~repro.api.events.RunEvent`
            for every arrival, admission decision, schedule commit, executed
            interval and job finish, plus a final ``END`` event carrying the
            completed log.  Observation never changes the simulation.
        """
        ctx = _RunContext(observer=observer)
        if self._account_energy or self._governor is not None:
            ctx.meter = EnergyMeter(self._platform)
        if self._governor is not None:
            # Even before the first commit the platform idles at nominal
            # frequency; analytical accounting starts from that decision.
            ctx.decision = decide(self._platform, 1.0)
        ctx.kernel = KernelRun(
            self._kernel_caches,
            self._kernel_caches.shared_slices(self._capacity, self._tables),
        )
        # Immediately before the try whose finally releases it, so a failing
        # run can never leave the scheduler's adoption dangling.
        self._scheduler.begin_run(ctx.kernel)
        with obs.span(
            "rm.run", category="runtime", scheduler=self._scheduler.name
        ) as run_span:
            try:
                self._run_events(trace, ctx)
            finally:
                self._scheduler.end_run(ctx.kernel)
            self._finalise_outcomes(ctx)
            run_span.annotate(
                requests=len(ctx.log.outcomes),
                accepted=len(ctx.log.accepted),
                activations=ctx.log.activations,
                total_energy=ctx.log.total_energy,
                makespan=ctx.log.makespan,
            )
        if observer is not None:
            # One summary event of the incremental engine's delta work;
            # purely observational, like every other stream event.
            observer(RunEvent(RunEventKind.KERNEL, ctx.now, data=ctx.kernel.summary()))
            observer(RunEvent(RunEventKind.END, ctx.now, data={"log": ctx.log}))
        return ctx.log

    # ------------------------------------------------------------------ #
    # Drivers
    # ------------------------------------------------------------------ #
    def _run_events(self, trace: RequestTrace, ctx: _RunContext) -> None:
        """The event-engine driver: hop from event to event via a heap."""
        for request in trace:
            ctx.queue.push(Event(request.time, EventKind.ARRIVAL, payload=request))
        while ctx.queue:
            event = ctx.queue.pop()
            if event.kind is EventKind.ARRIVAL:
                request = event.payload
                self._check_application(request)
                self._advance_to(ctx, event.time)
                with obs.span("rm.arrival", category="runtime", request=request.name):
                    self._pipeline.admit(ctx, request)
            elif event.epoch == ctx.epoch:
                # A segment boundary of the current schedule (job finishes
                # coincide with segment ends, so boundary events cover them).
                # Boundaries of superseded schedules are lazily invalidated:
                # their epoch no longer matches and they are simply skipped.
                self._advance_to(ctx, event.time)
        # Defensive: execute anything the boundary events did not cover.
        self._advance_to(ctx, float("inf"))

    def _check_application(self, event: RequestEvent) -> None:
        if event.application not in self._tables:
            raise AdmissionError(
                f"request {event.name!r} asks for unknown application "
                f"{event.application!r}"
            )

    # ------------------------------------------------------------------ #
    # Admission decisions
    # ------------------------------------------------------------------ #
    def _emit_decision(
        self,
        ctx: _RunContext,
        event: RequestEvent,
        accepted: bool,
        result,
        reason: str | None = None,
    ) -> None:
        """Stream one admission decision to the run observer (if any)."""
        if ctx.observer is None:
            return
        data: dict = {"search_time": result.search_time}
        if reason is not None:
            data["reason"] = reason
        kind = RunEventKind.ADMIT if accepted else RunEventKind.REJECT
        ctx.observer(RunEvent(kind, event.time, event.name, data))

    # ------------------------------------------------------------------ #
    # Schedule commits
    # ------------------------------------------------------------------ #
    def _plan(
        self,
        ctx: _RunContext,
        schedule: Schedule,
        active: Mapping[str, Job],
        ledger: LoadLedger,
    ) -> _Plan:
        """Prepare a freshly solved ``schedule`` for commit: apply the governor.

        Every mapped job is a problem job and every problem job is active,
        so no ghost mapping needs pruning.  Without a governor the schedule
        commits as is.  With one, the governor picks a uniform speed for the
        committed schedule, every cluster moves to the slowest OPP
        sustaining it and the schedule stretches by the inverse speed.
        ``ledger`` shares busy-count rows between the governor and the
        budget admission check.
        """
        if self._governor is None:
            return _Plan(schedule)
        with obs.span(
            "governor", category="energy", governor=self._governor.name
        ) as governor_span:
            if self._governor_takes_ledger:
                scale = self._governor.select_scale(
                    schedule,
                    active,
                    ctx.now,
                    self._platform,
                    self._tables,
                    ledger=ledger,
                )
            else:
                scale = self._governor.select_scale(
                    schedule, active, ctx.now, self._platform, self._tables
                )
            governor_span.annotate(scale=scale)
        if not 0.0 < scale <= 1.0 + _SCALE_EPSILON:
            raise SchedulingError(
                f"governor {self._governor.name!r} selected invalid speed {scale}"
            )
        scale = min(scale, 1.0)
        if scale < 1.0 - _SCALE_EPSILON:
            schedule = stretch_schedule(schedule, ctx.now, scale)
        return _Plan(schedule, scale, decide(self._platform, scale))

    def _commit(self, ctx: _RunContext, plan: _Plan) -> None:
        """Install a planned schedule as the in-force schedule.

        The segment cursor resets and the schedule's boundary events are
        queued under a fresh epoch (stale events of the superseded schedule
        are skipped on pop).
        """
        ctx.schedule = plan.schedule
        if self._governor is not None:
            ctx.speed = plan.speed
            ctx.decision = plan.decision
        ctx.cursor = 0
        ctx.epoch += 1
        ctx.kernel.state.rebind(ctx.schedule)
        if ctx.observer is not None:
            ctx.observer(
                RunEvent(
                    RunEventKind.COMMIT,
                    ctx.now,
                    data={
                        "segments": len(ctx.schedule.segments),
                        "speed": ctx.speed,
                        "jobs": sorted(ctx.active),
                    },
                )
            )
        # One boundary event per future segment end.  Job finishes need no
        # separate events: a job completes exactly at the end of its last
        # segment, so the boundary events already cover them.
        for segment in ctx.schedule:
            if segment.end > ctx.now + _TIME_EPSILON:
                ctx.queue.push(
                    Event(segment.end, EventKind.SEGMENT_END, epoch=ctx.epoch)
                )

    def _without_finished(
        self, schedule: Schedule, active: Mapping[str, Job], now: float
    ) -> Schedule:
        """Strip not-yet-executed mappings whose job already finished."""
        changed = False
        kept: list[MappingSegment] = []
        for segment in schedule:
            if segment.end <= now + _TIME_EPSILON:
                kept.append(segment)
                continue
            live = [m for m in segment if m.job_name in active]
            if len(live) == len(segment.mappings):
                kept.append(segment)
            else:
                changed = True
                if live:
                    kept.append(MappingSegment(segment.start, segment.end, live))
        return Schedule(kept) if changed else schedule

    # ------------------------------------------------------------------ #
    # Time advance / schedule execution
    # ------------------------------------------------------------------ #
    def _advance_to(self, ctx: _RunContext, target: float) -> None:
        """Execute the committed schedule from the current time up to ``target``."""
        while ctx.now < target - _TIME_EPSILON:
            segment = self._next_segment(ctx)
            if segment is None:
                # Nothing left to execute; jump straight to the target time.
                if target != float("inf"):
                    ctx.now = target
                return

            if segment.start > ctx.now + _TIME_EPSILON:
                # Idle gap before the next planned segment.
                if segment.start >= target - _TIME_EPSILON:
                    ctx.now = target
                    return
                ctx.now = segment.start
                continue

            interval_end = min(segment.end, target)
            if interval_end <= ctx.now + _TIME_EPSILON:
                return
            self._execute_interval(ctx, segment, ctx.now, interval_end)
            ctx.now = interval_end

            if interval_end >= segment.end - _TIME_EPSILON:
                finished = self._collect_finished(ctx, segment.end)
                if finished and self._remap_on_finish and ctx.active:
                    # Remap on finish: re-activate the scheduler for the
                    # remaining jobs.
                    with obs.span("rm.reschedule", category="runtime"):
                        self._pipeline.reschedule(ctx, ctx.now)

    def _next_segment(self, ctx: _RunContext) -> MappingSegment | None:
        """The first committed segment that has not fully executed yet.

        The cursor is monotonic within one committed schedule (it resets on
        commit), so the lookup is O(1) amortised over a run instead of the
        seed's O(n) rescan from index 0 on every advance.
        """
        segments = ctx.schedule.segments
        while (
            ctx.cursor < len(segments)
            and segments[ctx.cursor].end <= ctx.now + _TIME_EPSILON
        ):
            ctx.cursor += 1
        if ctx.cursor < len(segments):
            return segments[ctx.cursor]
        return None

    def _execute_interval(
        self, ctx: _RunContext, segment: MappingSegment, start: float, end: float
    ) -> None:
        """Account progress and energy of one executed interval."""
        duration = end - start
        job_configs = []
        if ctx.decision is not None:
            # DVFS mode: work retires at the uniform speed the governor
            # selected and energy is integrated from the per-core power
            # models at the in-force OPPs.
            active_points = []
            for mapping in segment:
                job = ctx.active.get(mapping.job_name)
                if job is None:
                    continue
                table = self._optables[mapping.application]
                config_index = mapping.config_index
                progress = duration * ctx.speed / table.times[config_index]
                ctx.active[job.name] = job.with_progress(
                    min(progress, job.remaining_ratio)
                )
                active_points.append((mapping.job_name, table.points[config_index]))
                job_configs.append((mapping.job_name, config_index))
            if not job_configs:
                return
            energy = ctx.meter.record_analytical(duration, active_points, ctx.decision)
        else:
            # Seed mode: operating-point energies, bit-identical to pre-DVFS
            # behaviour; the meter only attributes the charged joules.  The
            # per-interval table lookups read the interned OpTable columns.
            energy = 0.0
            contributions = []
            for mapping in segment:
                job = ctx.active.get(mapping.job_name)
                if job is None:
                    continue
                table = self._optables[mapping.application]
                config_index = mapping.config_index
                progress = duration / table.times[config_index]
                share = table.energies[config_index] * progress
                energy += share
                ctx.active[job.name] = job.with_progress(
                    min(progress, job.remaining_ratio)
                )
                job_configs.append((mapping.job_name, config_index))
                contributions.append(
                    (mapping.job_name, table.points[config_index], share)
                )
            if not job_configs:
                # Every mapped job already finished (possible only for
                # schedules kept in force past a failed re-activation):
                # nothing ran, so nothing is logged.
                return
            if ctx.meter is not None:
                ctx.meter.record_table(contributions)
        ctx.log.timeline.append(
            ExecutedInterval(start, end, tuple(job_configs), energy)
        )
        ctx.log.total_energy += energy
        # Energy-accounting breadcrumbs on the enclosing span (too frequent
        # for spans of their own): interval count and charged joules, with
        # one ContextVar read for the pair.
        current = obs.current_span()
        if current is not None:
            current.count("energy.intervals")
            current.count("energy.joules", energy)
        if ctx.observer is not None:
            # The energy tick of a streaming consumer: what ran, for how
            # long, and the joules charged for it.
            ctx.observer(
                RunEvent(
                    RunEventKind.INTERVAL,
                    end,
                    data={
                        "start": start,
                        "end": end,
                        "energy": energy,
                        "jobs": [name for name, _ in job_configs],
                        "total_energy": ctx.log.total_energy,
                    },
                )
            )

    def _collect_finished(self, ctx: _RunContext, time: float) -> list[str]:
        """Remove completed jobs from the active set and record their completion."""
        finished = []
        for name, job in list(ctx.active.items()):
            if job.remaining_ratio <= _FINISH_TOLERANCE:
                ctx.completions[name] = time
                del ctx.active[name]
                finished.append(name)
                if ctx.observer is not None:
                    ctx.observer(RunEvent(RunEventKind.FINISH, time, name))
        if finished and ctx.active:
            # Mappings of finished jobs are dropped and segments that become
            # empty disappear, so the executed timeline never carries ghost
            # entries.  The ledger knows each job's last committed segment
            # end, so the common no-ghost case skips the prune scan
            # entirely; the scan only runs when it will produce a changed
            # schedule (the gate mirrors its boundary comparison).
            kernel = ctx.kernel
            kernel.state.dirty.update(finished)
            if not kernel.state.needs_prune(finished, ctx.now):
                kernel.stats["prunes_skipped"] += 1
                return finished
            kernel.stats["prune_scans"] += 1
            pruned = self._without_finished(ctx.schedule, ctx.active, ctx.now)
            if pruned is not ctx.schedule:
                # Prune-only commit: the in-force schedule is already planned
                # (and, with a governor, already stretched), so the current
                # speed and OPP decision are reused as-is.
                self._commit(ctx, _Plan(pruned, ctx.speed, ctx.decision))
        return finished

    # ------------------------------------------------------------------ #
    # Final bookkeeping
    # ------------------------------------------------------------------ #
    def _finalise_outcomes(self, ctx: _RunContext) -> None:
        with obs.span("energy.accounting", category="energy") as energy_span:
            if ctx.meter is not None:
                ctx.log.job_energy = dict(ctx.meter.job_joules)
                ctx.log.cluster_energy = ctx.meter.cluster_breakdown()
            energy_span.annotate(
                total_energy=ctx.log.total_energy,
                clusters=len(ctx.log.cluster_energy),
            )
        for name, event in ctx.request_info.items():
            accepted, search_time = ctx.admissions[name]
            ctx.log.outcomes.append(
                RequestOutcome(
                    name=name,
                    application=event.application,
                    arrival=event.time,
                    deadline=event.absolute_deadline,
                    accepted=accepted,
                    completion_time=ctx.completions.get(name),
                    scheduler_time=search_time,
                    energy=ctx.log.job_energy.get(name, 0.0),
                )
            )
