"""The composable admission pipeline (``snapshot → candidates → solve → commit``).

The runtime manager's decision path, for arrivals and remap-on-finish
reschedules alike, in four named stages over an explicit
:class:`~repro.kernel.state.ScheduleState`:

``snapshot``
    Capture the arrival: materialise the :class:`~repro.core.request.Job`,
    record the request, mark the dirty set, stream the ``ARRIVAL`` event.
``candidates``
    Derive the scheduler candidates from the active set; overdue jobs (a
    deadline-violating governor may leave some) get their deadline relaxed
    to their *committed* completion time, read in O(1) from the schedule
    state instead of scanning the committed segment list.
``solve``
    Build the :class:`~repro.core.problem.SchedulingProblem`, seed its
    columnar view with the run's cross-activation
    :class:`~repro.optable.view.SharedSlices`, and activate the scheduler.
    The delta machinery lives below this stage: the EDF packer resumes from
    placement prefixes shared with the activation's previous probe, falling
    back to a full re-pack whenever the prefix diverges — which is what
    keeps every schedule bit-identical to the seed's full re-solve.
``commit``
    Prune, apply the governor, check the energy envelope and install the
    schedule — sharing one :class:`~repro.kernel.state.LoadLedger` across
    the governor, the budget check and the committed-state rebind.

The stages are ordinary methods, so subclasses (or tests) can compose or
instrument them individually; the runtime manager drives :meth:`admit` and
:meth:`reschedule` for every activation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.api.events import RunEvent, RunEventKind
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.kernel.caches import KernelCaches
from repro.kernel.state import LoadLedger, ScheduleState
from repro.obs import tracer as obs

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.runtime.manager import RuntimeManager
    from repro.runtime.trace import RequestEvent
    from repro.schedulers.base import SchedulingResult


class KernelRun:
    """Per-run kernel context: warm-start caches, schedule state, counters."""

    __slots__ = ("caches", "slices", "state", "stats")

    def __init__(self, caches: KernelCaches, slices) -> None:
        self.caches = caches
        self.slices = slices
        self.state = ScheduleState()
        self.stats = {
            "activations": 0,
            "dirty_jobs": 0,
            "packs": 0,
            "resumed_steps": 0,
            "replayed_steps": 0,
            "prunes_skipped": 0,
            "prune_scans": 0,
        }

    def summary(self) -> dict:
        """The payload of the run's ``KERNEL`` stream event."""
        stats = dict(self.stats)
        stats["commits"] = self.state.commits
        placed = stats["resumed_steps"] + stats["replayed_steps"]
        stats["delta_share"] = stats["resumed_steps"] / placed if placed else 0.0
        return stats


class AdmissionPipeline:
    """Drives one arrival (or finish-time reschedule) through the kernel.

    The pipeline is stateless across runs — everything mutable lives in the
    manager's run context and its :class:`KernelRun` — so one pipeline
    instance per manager serves concurrent runs.
    """

    def __init__(self, manager: "RuntimeManager"):
        self._manager = manager

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def snapshot(self, ctx, event: "RequestEvent") -> Job:
        """Stage 1: capture the arrival and mark the delta."""
        job = Job(
            name=event.name,
            application=event.application,
            arrival=event.time,
            deadline=event.absolute_deadline,
        )
        ctx.request_info[event.name] = event
        ctx.kernel.state.dirty.add(event.name)
        if ctx.observer is not None:
            ctx.observer(
                RunEvent(
                    RunEventKind.ARRIVAL,
                    event.time,
                    event.name,
                    {
                        "application": event.application,
                        "deadline": event.absolute_deadline,
                    },
                )
            )
        return job

    def candidates(self, ctx, now: float) -> list[Job]:
        """Stage 2: the active jobs as scheduler candidates.

        Under deadline-violating governors (powersave, ondemand) an admitted
        job can still be running past its deadline when the next activation
        fires.  Its deadline is relaxed to its committed completion time —
        the in-force schedule is a feasibility witness for that bound — so
        the overdue job stays schedulable and new arrivals are judged on
        capacity, not doomed by an already-lost deadline.  The true deadline
        is kept for the outcome report.  Without a governor committed
        schedules always meet their deadlines and this is the identity.
        Committed completion times come from the schedule state's ledger in
        O(1) instead of a scan of the committed segments.
        """
        state = ctx.kernel.state
        candidates = []
        for job in ctx.active.values():
            if job.deadline < now:
                committed = state.completion_time(job.name)
                relaxed = max(now, committed if committed is not None else now)
                candidates.append(replace(job, deadline=relaxed))
            else:
                candidates.append(job)
        return candidates

    def solve(self, ctx, jobs: list[Job], now: float) -> "SchedulingResult":
        """Stage 3: pose the reduced problem and activate the scheduler."""
        manager = self._manager
        kernel = ctx.kernel
        problem = SchedulingProblem(
            manager._capacity, manager._tables, jobs, now=now
        )
        problem.share_view(kernel.slices)
        result = manager._scheduler.schedule(problem)
        ctx.log.activations += 1
        stats = kernel.stats
        stats["activations"] += 1
        # The delta this activation was about: how many of the candidates
        # were perturbed (arrived/finished) since the previous solve.
        stats["dirty_jobs"] += len(kernel.state.dirty)
        view = problem._view
        memo = getattr(view, "_pack_memo", None) if view is not None else None
        current = obs.current_span()
        if memo is not None:
            stats["packs"] += memo.packs
            stats["resumed_steps"] += memo.resumed_steps
            stats["replayed_steps"] += memo.replayed_steps
            # Pack resume-vs-fallback outcome of this activation, aggregated
            # here (once per solve) rather than in the per-candidate pack
            # hot path, where per-call counting would dominate the traced
            # run's overhead.  One ContextVar read for the whole burst.
            if current is not None:
                current.count("pack.resume", memo.resumed_packs)
                current.count("pack.scratch", memo.packs - memo.resumed_packs)
                current.count("pack.steps_resumed", memo.resumed_steps)
        if current is not None:
            current.annotate(dirty_jobs=len(kernel.state.dirty))
        kernel.state.dirty.clear()
        return result

    # ------------------------------------------------------------------ #
    # Drivers
    # ------------------------------------------------------------------ #
    def admit(self, ctx, event: "RequestEvent") -> None:
        """Admit or reject one arrival."""
        manager = self._manager
        with obs.span("phase.snapshot", category="pipeline"):
            job = self.snapshot(ctx, event)
        with obs.span("phase.candidates", category="pipeline") as candidates_span:
            candidate_jobs = self.candidates(ctx, event.time) + [job]
            candidates_span.annotate(jobs=len(candidate_jobs))
        with obs.span("phase.solve", category="pipeline") as solve_span:
            result = self.solve(ctx, candidate_jobs, event.time)
            solve_span.annotate(feasible=result.feasible)

        with obs.span("phase.commit", category="pipeline") as commit_span:
            if result.feasible:
                candidates = dict(ctx.active)
                candidates[job.name] = job
                ledger = LoadLedger(manager._optables, len(manager._capacity))
                plan = manager._plan(ctx, result.schedule, candidates, ledger)
                if manager._budget is not None:
                    verdict = manager._budget.admits(
                        plan.schedule,
                        manager._tables,
                        now=event.time,
                        consumed_joules=ctx.log.total_energy,
                        platform=manager._platform,
                        decision=plan.decision,
                        optables=manager._optables,
                        ledger=ledger,
                    )
                    if not verdict:
                        # Deadline-feasible but over the power/energy
                        # envelope: rejected like an infeasible request.
                        ctx.log.budget_rejections += 1
                        ctx.admissions[event.name] = (False, result.search_time)
                        commit_span.annotate(outcome="budget-reject")
                        manager._emit_decision(
                            ctx, event, False, result, reason="budget"
                        )
                        return
                ctx.active[job.name] = job
                manager._commit(ctx, plan)
                ctx.admissions[event.name] = (True, result.search_time)
                commit_span.annotate(outcome="admitted", speed=plan.speed)
                manager._emit_decision(ctx, event, True, result)
            else:
                # The new request is rejected; the previously committed
                # schedule keeps serving the already admitted jobs.
                ctx.admissions[event.name] = (False, result.search_time)
                commit_span.annotate(outcome="rejected")
                manager._emit_decision(ctx, event, False, result, reason="infeasible")

    def reschedule(self, ctx, time: float) -> None:
        """Re-solve the remaining jobs when one finishes (remap on finish)."""
        manager = self._manager
        with obs.span("phase.candidates", category="pipeline"):
            candidate_jobs = self.candidates(ctx, time)
        with obs.span("phase.solve", category="pipeline") as solve_span:
            result = self.solve(ctx, candidate_jobs, time)
            solve_span.annotate(feasible=result.feasible)
        if result.feasible:
            with obs.span("phase.commit", category="pipeline"):
                ledger = LoadLedger(manager._optables, len(manager._capacity))
                plan = manager._plan(ctx, result.schedule, ctx.active, ledger)
                manager._commit(ctx, plan)
        # If rescheduling fails the previously committed schedule (which is
        # still feasible for the remaining jobs) stays in force.
