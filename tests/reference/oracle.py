"""The reference oracle: the seed decision path, kept for tests and benchmarks.

``repro`` runs one implementation of each paper algorithm: the columnar,
incremental MMKP-MDF walk (Algorithm 1), the trajectory-resuming EDF packer
(Algorithm 2), the columnar MMKP-LR baseline and the event-driven runtime
manager with its admission pipeline.  This module is the seed
implementation those fast paths were derived from, written directly over
``list[OperatingPoint]`` tables and full re-solves:

* :class:`ReferenceMDF` / :func:`pack_jobs_edf` — Algorithm 1 with the list
  MDF priority, packing each probe from scratch with the seed placement loop;
* :class:`ReferenceLR` — the single-segment Lagrangian baseline building its
  MMKP items per segment and solving them with
  :func:`reference_solve_lagrangian`, the seed subgradient loop that
  re-derives load, value and greedy repair on every iteration;
* :func:`segment_energy` / :func:`budget_admits` — objective (2a) per
  segment and the power-cap / energy-budget walk over a truncated schedule;
* :class:`ReferenceRuntime` — the arrival-by-arrival runtime manager that
  re-solves every activation inline and rescans the committed schedule.

Every float is produced by the same operations in the same order as the
production path, so schedules, execution logs and batch fingerprints must be
*identical*, not merely close; the equivalence suites assert it.  The oracle
uses only core data types (the MMKP containers among them), the public
energy helpers and governors, and the production EX-MEM and fixed
schedulers (which have no seed twin).  It never goes through the code it
checks: the knapsack solvers, the admission pipeline, the pack memo, the
kernel caches, the load ledger or the runtime manager's private methods.

Only tests and benchmarks import this module; nothing under ``src/`` may.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule, TIME_EPSILON
from repro.energy.accounting import (
    EnergyMeter,
    analytical_schedule_energy,
    segment_analytical_power,
)
from repro.energy.budget import BudgetDecision, EnergyBudget
from repro.energy.governor import FrequencyGovernor, stretch_schedule
from repro.energy.opp import OPPDecision, decide, ensure_opps
from repro.exceptions import AdmissionError, SchedulingError
from repro.knapsack import LagrangianResult, MMKPItem, MMKPProblem, MMKPSolution
from repro.platforms.platform import Platform
from repro.platforms.resources import ResourceVector
from repro.runtime.log import ExecutedInterval, ExecutionLog, RequestOutcome
from repro.runtime.trace import RequestEvent, RequestTrace
from repro.schedulers import MMKPLRScheduler, MMKPMDFScheduler
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.schedulers.policies import JobSelectionPolicy, MaximumDifferencePolicy

#: Numerical slack for capacity/deadline filtering (Algorithm 1).
_EPSILON = 1e-9
#: Remaining-ratio threshold below which a job counts as finished.
_RATIO_EPSILON = 1e-9
#: Remaining-ratio threshold below which a running job counts as completed.
_FINISH_TOLERANCE = 1e-6
#: Speeds within this tolerance of 1.0 leave the schedule unstretched.
_SCALE_EPSILON = 1e-9


# ---------------------------------------------------------------------- #
# Energy: objective (2a) and the budget walk
# ---------------------------------------------------------------------- #
def segment_energy(segment: MappingSegment, tables: Mapping[str, ConfigTable]) -> float:
    """Energy consumed during ``segment`` from the operating-point lists."""
    total = 0.0
    for mapping in segment:
        point = mapping.operating_point(tables)
        total += point.energy * segment.duration / point.execution_time
    return total


def schedule_energy(schedule: Schedule, tables: Mapping[str, ConfigTable]) -> float:
    """Objective (2a) of a whole schedule."""
    return sum(segment_energy(segment, tables) for segment in schedule)


def budget_admits(
    budget: EnergyBudget,
    schedule: Schedule,
    tables: Mapping[str, ConfigTable],
    now: float,
    consumed_joules: float,
    platform: Platform | None = None,
    decision: OPPDecision | None = None,
) -> BudgetDecision:
    """Check the part of ``schedule`` after ``now`` against ``budget``.

    Materialises the truncated schedule and prices it segment by segment:
    analytically under an OPP ``decision``, from operating-point averages
    otherwise.
    """
    future = schedule.truncated_before(now)
    analytical = platform is not None and decision is not None

    if budget.power_cap_watts is not None:
        for segment in future:
            if analytical:
                watts = segment_analytical_power(segment, tables, platform, decision)
            else:
                watts = sum(m.operating_point(tables).power for m in segment)
            if watts > budget.power_cap_watts + 1e-9:
                return BudgetDecision(
                    False,
                    f"segment [{segment.start:.3f}, {segment.end:.3f}) draws "
                    f"{watts:.3f} W > cap {budget.power_cap_watts:.3f} W",
                )

    if budget.energy_budget_joules is not None:
        if analytical:
            planned = analytical_schedule_energy(future, tables, platform, decision)
        else:
            planned = schedule_energy(future, tables)
        total = consumed_joules + planned
        if total > budget.energy_budget_joules + 1e-9:
            return BudgetDecision(
                False,
                f"plan needs {total:.3f} J > budget "
                f"{budget.energy_budget_joules:.3f} J",
            )

    return BudgetDecision(True)


# ---------------------------------------------------------------------- #
# Algorithm 2: the EDF packer
# ---------------------------------------------------------------------- #
def pack_jobs_edf(
    problem: SchedulingProblem, assignment: Mapping[str, int]
) -> Schedule | None:
    """Pack the assigned jobs from an empty schedule in EDF order."""
    jobs = [job for job in problem.jobs if job.name in assignment]
    for job in jobs:
        if assignment[job.name] not in problem.table_for(job).indices():
            raise SchedulingError(
                f"job {job.name!r}: configuration {assignment[job.name]} out of range"
            )
    schedule = Schedule()
    for job in sorted(jobs, key=lambda j: (j.deadline, j.name)):
        schedule = _place_job(problem, schedule, job, assignment[job.name])
        if schedule is None:
            return None
    return schedule


def _place_job(
    problem: SchedulingProblem, schedule: Schedule, job: Job, config_index: int
) -> Schedule | None:
    """Place one job into the schedule (the body of Algorithm 2's outer loop)."""
    point = problem.table_for(job)[config_index]
    capacity = problem.capacity
    dimension = len(capacity)
    remaining_ratio = job.remaining_ratio
    finish_time: float | None = None

    index = 0
    while index < len(schedule) and remaining_ratio > _RATIO_EPSILON:
        segment = schedule[index]
        usage = segment.resource_usage(problem.tables, dimension)
        if not (usage + point.resources).fits_into(capacity):
            index += 1
            continue

        required = point.remaining_time(min(1.0, remaining_ratio))
        if required >= segment.duration - TIME_EPSILON:
            # Busy for the whole segment (lines 9-11).
            new_segment = segment.with_mapping(JobMapping(job, config_index))
            schedule = schedule.replace_segment(segment, [new_segment])
            remaining_ratio -= segment.duration / point.execution_time
            if remaining_ratio <= _RATIO_EPSILON:
                remaining_ratio = 0.0
                finish_time = new_segment.end
                break
            index += 1
        else:
            # Finishes inside the segment: split it (lines 13-17).
            first, second = segment.split_at(segment.start + required)
            first = first.with_mapping(JobMapping(job, config_index))
            schedule = schedule.replace_segment(segment, [first, second])
            remaining_ratio = 0.0
            finish_time = first.end
            break

    if remaining_ratio > _RATIO_EPSILON:
        # Remaining work goes into a new segment at the end (lines 19-22).
        start = max(problem.now, schedule.end if len(schedule) else problem.now)
        required = point.remaining_time(min(1.0, remaining_ratio))
        new_segment = MappingSegment(
            start, start + required, [JobMapping(job, config_index)]
        )
        schedule = schedule.with_segment(new_segment)
        finish_time = new_segment.end

    # Deadline check (line 23).
    if finish_time is None or finish_time > job.deadline + 1e-9:
        return None
    return schedule


# ---------------------------------------------------------------------- #
# Algorithm 1: MMKP-MDF
# ---------------------------------------------------------------------- #
def mdf_select(candidates, tables: Mapping[str, ConfigTable]):
    """The MDF policy: the job with the largest best-vs-second-best gap."""
    for job, indices in candidates:
        if not indices:
            return job, indices

    def priority(entry) -> float:
        job, indices = entry
        table = tables[job.application]
        ratio = job.remaining_ratio
        energies = sorted(table[i].remaining_energy(ratio) for i in indices)
        if len(energies) == 1:
            return float("inf")
        return energies[1] - energies[0]

    return max(candidates, key=lambda entry: (priority(entry), entry[0].name))


class ReferenceMDF(Scheduler):
    """Algorithm 1 over configuration lists, re-packing every probe.

    ``policy`` defaults to :func:`mdf_select`; an ablation policy of
    :mod:`repro.schedulers.policies` (which has no seed twin) may be given.
    """

    name = "reference-mmkp-mdf"

    def __init__(self, policy: JobSelectionPolicy | None = None):
        self._policy = policy

    def _select(self, candidates, problem: SchedulingProblem):
        if self._policy is None:
            return mdf_select(candidates, problem.tables)
        return self._policy.select(candidates, problem.tables, problem.now)

    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        containers = problem.processing_capacity()
        assignment: dict[str, int] = {}
        schedule = None
        packer_calls = 0
        policy_calls = 0

        def statistics() -> dict:
            return {"packer_calls": packer_calls, "policy_calls": policy_calls}

        unassigned = {job.name for job in problem.jobs}
        while unassigned:
            candidates = [
                (job, _feasible_configs(job, problem, containers))
                for job in problem.jobs
                if job.name in unassigned
            ]
            policy_calls += 1
            job, config_indices = self._select(candidates, problem)

            # Configurations in non-decreasing remaining-energy order (lines 5-14).
            table = problem.table_for(job)
            ordered = sorted(
                config_indices,
                key=lambda i: table[i].remaining_energy(job.remaining_ratio),
            )
            committed = False
            for config_index in ordered:
                trial = dict(assignment)
                trial[job.name] = config_index
                packer_calls += 1
                trial_schedule = pack_jobs_edf(problem, trial)
                if trial_schedule is None:
                    continue
                assignment = trial
                schedule = trial_schedule
                # Charge the committed configuration to the containers (line 12).
                point = table[config_index]
                remaining = point.remaining_time(job.remaining_ratio)
                for k in range(len(containers)):
                    containers[k] -= point.resources[k] * remaining
                committed = True
                break

            if not committed:
                # No configuration of this job packs: reject the set (line 6).
                return SchedulingResult(schedule=None, statistics=statistics())
            unassigned.remove(job.name)

        energy = float("inf")
        if schedule is not None:
            energy = schedule_energy(schedule, problem.tables)
        return SchedulingResult(
            schedule=schedule,
            assignment=assignment,
            energy=energy,
            statistics=statistics(),
        )


def _feasible_configs(
    job: Job, problem: SchedulingProblem, containers: list[float]
) -> list[int]:
    """NEXTJOBMDF step (i): configurations meeting the deadline that still fit."""
    table = problem.table_for(job)
    budget = job.deadline - problem.now
    feasible = []
    for index, point in enumerate(table):
        remaining = point.remaining_time(job.remaining_ratio)
        if remaining > budget + _EPSILON:
            continue
        if all(
            point.resources[k] * remaining <= containers[k] + _EPSILON
            for k in range(len(containers))
        ):
            feasible.append(index)
    return feasible


# ---------------------------------------------------------------------- #
# MMKP-LR
# ---------------------------------------------------------------------- #
def _relaxed_selection(problem: MMKPProblem, multipliers: list[float]) -> list[int]:
    """Per-group argmax of the Lagrangian-reduced value.

    Runs on the problem's dense columns: the subgradient loop evaluates this
    for every item on every iteration, so the flat tuples (no MMKPItem
    attribute lookups) carry most of the solver's hot path.
    """
    selection = []
    dimensions = len(multipliers)
    if dimensions == 1:
        # Unrolled penalty for the dominant 1-D/2-D instances: the same
        # additions in the same order as ``sum(...)``, minus the generator
        # machinery (a ±0.0 sign is the only representable difference and no
        # comparison observes it).
        (m0,) = multipliers
        for group_values, group_rows in zip(problem.dense_values, problem.dense_rows):
            best_index = 0
            best_reduced = float("-inf")
            for index in range(len(group_values)):
                reduced = group_values[index] - m0 * group_rows[index][0]
                if reduced > best_reduced:
                    best_reduced = reduced
                    best_index = index
            selection.append(best_index)
        return selection
    if dimensions == 2:
        m0, m1 = multipliers
        for group_values, group_rows in zip(problem.dense_values, problem.dense_rows):
            best_index = 0
            best_reduced = float("-inf")
            for index in range(len(group_values)):
                row = group_rows[index]
                reduced = group_values[index] - (m0 * row[0] + m1 * row[1])
                if reduced > best_reduced:
                    best_reduced = reduced
                    best_index = index
            selection.append(best_index)
        return selection
    for group_values, group_rows in zip(problem.dense_values, problem.dense_rows):
        best_index = 0
        best_reduced = float("-inf")
        for index in range(len(group_values)):
            reduced = group_values[index] - sum(
                multiplier * weight
                for multiplier, weight in zip(multipliers, group_rows[index])
            )
            if reduced > best_reduced:
                best_reduced = reduced
                best_index = index
        selection.append(best_index)
    return selection


def _repair(problem: MMKPProblem, selection: list[int]) -> MMKPSolution:
    """Turn a (possibly infeasible) relaxed selection into a feasible one.

    Groups whose current item overflows the capacities are downgraded to the
    item with the smallest capacity-normalised weight until the selection
    fits; ties are broken in favour of higher value.
    """
    rows = problem.dense_rows
    current = list(selection)
    for _ in range(problem.num_groups * max(len(g) for g in rows)):
        if problem.is_feasible(current):
            return MMKPSolution(tuple(current), problem.value_of(current), True)
        # Find the dimension with the largest relative violation.
        used = problem.weights_of(current)
        violations = [
            (used[d] - problem.capacities[d]) / (problem.capacities[d] or 1.0)
            for d in range(problem.num_dimensions)
        ]
        worst_dim = max(range(problem.num_dimensions), key=lambda d: violations[d])
        # Downgrade the group contributing most to that dimension to a lighter item.
        best_group, best_item, best_saving = None, None, 0.0
        for group_index, group_rows in enumerate(rows):
            current_weight = group_rows[current[group_index]][worst_dim]
            for item_index in range(len(group_rows)):
                saving = current_weight - group_rows[item_index][worst_dim]
                if saving > best_saving:
                    best_saving = saving
                    best_group, best_item = group_index, item_index
        if best_group is None:
            break
        current[best_group] = best_item
    if problem.is_feasible(current):
        return MMKPSolution(tuple(current), problem.value_of(current), True)
    return MMKPSolution(None, float("-inf"), False)


def reference_solve_lagrangian(
    problem: MMKPProblem,
    max_iterations: int = 100,
    initial_step: float = 1.0,
) -> LagrangianResult:
    """The seed subgradient loop, re-deriving everything every iteration.

    Load, value, subgradient and greedy repair are recomputed on every one
    of the (up to ``max_iterations``) iterations, even when the relaxed
    selection did not change.  Production ``solve_lagrangian`` and both
    ``solve_lagrangian_many`` backends must equal it bit for bit.
    """
    multipliers = [0.0] * problem.num_dimensions
    best_dual = float("inf")
    best_multipliers = list(multipliers)
    best_primal = MMKPSolution(None, float("-inf"), False)
    iteration = 0

    for iteration in range(1, max_iterations + 1):
        selection = _relaxed_selection(problem, multipliers)
        used = problem.weights_of(selection)
        relaxed_value = problem.value_of(selection) + sum(
            multiplier * (capacity - weight)
            for multiplier, capacity, weight in zip(
                multipliers, problem.capacities, used
            )
        )
        if relaxed_value < best_dual:
            best_dual = relaxed_value
            best_multipliers = list(multipliers)

        primal = _repair(problem, selection)
        if primal.feasible and primal.value > best_primal.value:
            best_primal = primal

        # Subgradient: capacity violation per dimension.
        subgradient = [
            weight - capacity for weight, capacity in zip(used, problem.capacities)
        ]
        if all(abs(g) < 1e-12 for g in subgradient):
            break
        step = initial_step / (iteration**0.5)
        multipliers = [
            max(0.0, multiplier + step * gradient)
            for multiplier, gradient in zip(multipliers, subgradient)
        ]

    best_primal = MMKPSolution(
        best_primal.selection, best_primal.value, best_primal.feasible, iteration
    )
    return LagrangianResult(
        multipliers=tuple(best_multipliers),
        dual_bound=best_dual,
        solution=best_primal,
        iterations=iteration,
    )


@dataclass
class _PendingJob:
    job: Job
    remaining_ratio: float

    @property
    def name(self) -> str:
        return self.job.name

    def finished(self) -> bool:
        return self.remaining_ratio <= _RATIO_EPSILON


class ReferenceLR(Scheduler):
    """The single-segment Lagrangian baseline, solving every segment afresh."""

    name = "reference-mmkp-lr"

    def __init__(self, max_subgradient_iterations: int = 100):
        self._max_iterations = max_subgradient_iterations

    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        pending = [
            _PendingJob(job, job.remaining_ratio)
            for job in sorted(problem.jobs, key=lambda j: j.name)
        ]
        segments: list[MappingSegment] = []
        first_config: dict[str, int] = {}
        now = problem.now
        iterations = 0
        segment_count = 0

        def statistics() -> dict:
            return {"subgradient_iterations": iterations, "segments": segment_count}

        def reject() -> SchedulingResult:
            return SchedulingResult(schedule=None, statistics=statistics())

        while any(not p.finished() for p in pending):
            active = [p for p in pending if not p.finished()]
            # Every unfinished job must still be able to meet its deadline.
            for record in active:
                fastest = problem.table_for(record.job).fastest().execution_time
                if now + fastest * record.remaining_ratio > record.job.deadline + 1e-6:
                    return reject()

            assignment, spent = self._assign_segment(problem, active, now)
            iterations += spent
            if not assignment:
                return reject()

            # The segment ends when the first mapped job finishes.
            segment_end = min(
                now
                + problem.table_for(record.job)[assignment[record.name]].remaining_time(
                    record.remaining_ratio
                )
                for record in active
                if record.name in assignment
            )
            duration = segment_end - now
            if duration <= TIME_EPSILON:
                return reject()

            mappings = []
            for record in active:
                if record.name not in assignment:
                    continue
                config_index = assignment[record.name]
                first_config.setdefault(record.name, config_index)
                mappings.append(JobMapping(record.job, config_index))
                point = problem.table_for(record.job)[config_index]
                record.remaining_ratio -= duration / point.execution_time
                if record.remaining_ratio <= _RATIO_EPSILON:
                    record.remaining_ratio = 0.0
                    if segment_end > record.job.deadline + 1e-6:
                        return reject()
            segments.append(MappingSegment(now, segment_end, mappings))
            segment_count += 1
            now = segment_end

        schedule = Schedule(segments)
        return SchedulingResult(
            schedule=schedule,
            assignment=first_config,
            energy=schedule_energy(schedule, problem.tables),
            statistics=statistics(),
        )

    def _assign_segment(
        self, problem: SchedulingProblem, active: list[_PendingJob], now: float
    ) -> tuple[dict[str, int], int]:
        """One configuration per job for the segment starting at ``now``."""
        capacity = problem.capacity

        # The single-segment MMKP: negated remaining energies as values,
        # per-type core demands as weights, the cores as capacities.
        groups = []
        candidates: list[list[tuple[int, OperatingPoint]]] = []
        for record in active:
            table = problem.table_for(record.job)
            feasible = [
                (index, point)
                for index, point in enumerate(table)
                if point.resources.fits_into(capacity)
            ]
            candidates.append(feasible)
            groups.append(
                [
                    MMKPItem(
                        value=-point.remaining_energy(record.remaining_ratio),
                        weights=tuple(float(c) for c in point.resources),
                        label=index,
                    )
                    for index, point in feasible
                ]
                or [MMKPItem(value=0.0, weights=(0.0,) * len(capacity), label=None)]
            )

        relaxation = reference_solve_lagrangian(
            MMKPProblem([float(c) for c in capacity], groups),
            max_iterations=self._max_iterations,
        )
        multipliers = relaxation.multipliers

        def reduced_cost(record: _PendingJob, point: OperatingPoint) -> float:
            energy = point.remaining_energy(record.remaining_ratio)
            penalty = sum(
                multiplier * resource
                for multiplier, resource in zip(multipliers, point.resources)
            )
            return energy + penalty

        # Map jobs in increasing order of their minimum configuration cost.
        ordering = []
        for record, feasible in zip(active, candidates):
            if feasible:
                minimum = min(reduced_cost(record, point) for _, point in feasible)
            else:
                minimum = float("inf")
            ordering.append((minimum, record, feasible))
        ordering.sort(key=lambda entry: (entry[0], entry[1].name))

        assignment: dict[str, int] = {}
        remaining: ResourceVector = capacity
        # Earliest completion among the jobs assigned so far: the optimistic
        # deadline check switches to the fastest configuration there.
        estimated_end = float("inf")
        for _, record, feasible in ordering:
            deadline = record.job.deadline
            fastest = problem.table_for(record.job).fastest().execution_time
            for index, point in sorted(
                feasible, key=lambda item: reduced_cost(record, item[1])
            ):
                if not point.resources.fits_into(remaining):
                    continue
                completion = now + point.remaining_time(record.remaining_ratio)
                if completion <= deadline + 1e-9:
                    accepted = True
                else:
                    segment_end = min(estimated_end, completion)
                    progressed = (segment_end - now) / point.execution_time
                    left_after = max(0.0, record.remaining_ratio - progressed)
                    accepted = segment_end + fastest * left_after <= deadline + 1e-9
                if not accepted:
                    continue
                assignment[record.name] = index
                remaining = remaining - point.resources
                estimated_end = min(estimated_end, completion)
                break

        return assignment, relaxation.iterations


@contextmanager
def registered_twins(prefix: str) -> Iterator[dict[str, str]]:
    """Register the oracle MMKP-MDF and MMKP-LR under ``prefix``-ed names.

    Yields production name → registry name, so batch jobs and specs can run
    the oracle schedulers through the production service; the names are
    unregistered on exit.
    """
    from repro.api.registry import schedulers

    names = {"mmkp-mdf": f"{prefix}-mmkp-mdf", "mmkp-lr": f"{prefix}-mmkp-lr"}
    schedulers.register(names["mmkp-mdf"], ReferenceMDF)
    schedulers.register(names["mmkp-lr"], ReferenceLR)
    try:
        yield names
    finally:
        for name in names.values():
            schedulers.unregister(name)


def reference_twin(scheduler: Scheduler) -> Scheduler:
    """The oracle scheduler checking ``scheduler``.

    MMKP-MDF and MMKP-LR map to their seed twins; EX-MEM and the fixed
    mapper have none and check themselves.
    """
    if isinstance(scheduler, MMKPMDFScheduler):
        policy = scheduler.policy
        return ReferenceMDF(None if type(policy) is MaximumDifferencePolicy else policy)
    if isinstance(scheduler, MMKPLRScheduler):
        return ReferenceLR(scheduler._max_iterations)
    return scheduler


# ---------------------------------------------------------------------- #
# The runtime manager
# ---------------------------------------------------------------------- #
class ReferenceRuntime:
    """The seed runtime manager: arrivals in trace order, full re-solves.

    Takes the arguments of ``RuntimeManager.from_components`` and produces
    the same :class:`~repro.runtime.log.ExecutionLog` (wall-clock fields
    aside).  ``scheduler`` is used as given; pass :func:`reference_twin` of
    a production scheduler to check the whole decision path.
    """

    def __init__(
        self,
        platform: Platform | ResourceVector,
        tables: Mapping[str, ConfigTable],
        scheduler: Scheduler,
        *,
        remap_on_finish: bool = False,
        governor: FrequencyGovernor | None = None,
        budget: EnergyBudget | None = None,
        account_energy: bool = True,
    ):
        full = isinstance(platform, Platform)
        self.capacity = platform.capacity if full else platform
        self.platform = platform if full else None
        if governor is not None:
            self.platform = ensure_opps(self.platform)
        self.tables = dict(tables)
        self.scheduler = scheduler
        self.remap_on_finish = remap_on_finish
        self.governor = governor
        self.budget = None if budget is not None and budget.unconstrained else budget
        self.account_energy = account_energy

    @classmethod
    def from_spec(cls, spec) -> "ReferenceRuntime":
        """The oracle twin of ``RuntimeManager.from_spec(spec)``."""
        platform = spec.platform.build()
        return cls(
            platform,
            spec.resolve_tables(platform),
            reference_twin(spec.scheduler.build()),
            remap_on_finish=spec.scheduler.remap_on_finish,
            governor=spec.energy.build_governor(),
            budget=spec.energy.build_budget(),
            account_energy=spec.energy.account_energy,
        )

    def run(self, trace: RequestTrace) -> ExecutionLog:
        """Simulate ``trace`` and return the execution log."""
        run = _Run(self)
        for event in trace:
            if event.application not in self.tables:
                raise AdmissionError(
                    f"request {event.name!r} asks for unknown application "
                    f"{event.application!r}"
                )
            run.advance_to(event.time)
            run.arrive(event)
        run.advance_to(float("inf"))
        return run.finish()


class _Run:
    """The mutable state of one :meth:`ReferenceRuntime.run`."""

    def __init__(self, manager: ReferenceRuntime):
        self.m = manager
        self.now = 0.0
        self.active: dict[str, Job] = {}
        self.schedule = Schedule()
        self.speed = 1.0
        self.decision: OPPDecision | None = None
        self.meter: EnergyMeter | None = None
        self.log = ExecutionLog()
        self.completions: dict[str, float] = {}
        self.requests: dict[str, RequestEvent] = {}
        self.admissions: dict[str, tuple[bool, float]] = {}
        if manager.account_energy or manager.governor is not None:
            self.meter = EnergyMeter(manager.platform)
        if manager.governor is not None:
            # The platform idles at nominal frequency until the first commit.
            self.decision = decide(manager.platform, 1.0)

    # -- decisions ------------------------------------------------------ #
    def arrive(self, event: RequestEvent) -> None:
        """Admit or reject one request by re-solving the whole active set."""
        m = self.m
        job = Job(
            name=event.name,
            application=event.application,
            arrival=event.time,
            deadline=event.absolute_deadline,
        )
        self.requests[event.name] = event
        problem = SchedulingProblem(
            m.capacity, m.tables, self.candidates(event.time) + [job], now=event.time
        )
        result = m.scheduler.schedule(problem)
        self.log.activations += 1
        if not result.feasible:
            self.admissions[event.name] = (False, result.search_time)
            return
        candidates = dict(self.active)
        candidates[job.name] = job
        schedule, speed, decision = self.plan(result.schedule, candidates)
        if m.budget is not None and not budget_admits(
            m.budget,
            schedule,
            m.tables,
            now=event.time,
            consumed_joules=self.log.total_energy,
            platform=m.platform,
            decision=decision,
        ):
            self.log.budget_rejections += 1
            self.admissions[event.name] = (False, result.search_time)
            return
        self.active[job.name] = job
        self.commit(schedule, speed, decision)
        self.admissions[event.name] = (True, result.search_time)

    def reschedule(self, time: float) -> None:
        """Remap on finish; a failed re-solve keeps the schedule in force."""
        m = self.m
        problem = SchedulingProblem(
            m.capacity, m.tables, self.candidates(time), now=time
        )
        result = m.scheduler.schedule(problem)
        self.log.activations += 1
        if result.feasible:
            self.commit(*self.plan(result.schedule, self.active))

    def candidates(self, now: float) -> list[Job]:
        """The active jobs; overdue ones get their committed completion as deadline."""
        jobs = []
        for job in self.active.values():
            if job.deadline < now:
                committed = self.schedule.completion_time(job.name)
                relaxed = max(now, committed if committed is not None else now)
                jobs.append(replace(job, deadline=relaxed))
            else:
                jobs.append(job)
        return jobs

    def plan(self, schedule: Schedule, active: Mapping[str, Job]):
        """Prune finished jobs, then let the governor pick and apply a speed."""
        m = self.m
        schedule = _without_finished(schedule, active, self.now)
        if m.governor is None:
            return schedule, 1.0, None
        scale = m.governor.select_scale(
            schedule, active, self.now, m.platform, m.tables
        )
        if not 0.0 < scale <= 1.0 + _SCALE_EPSILON:
            raise SchedulingError(
                f"governor {m.governor.name!r} selected invalid speed {scale}"
            )
        scale = min(scale, 1.0)
        if scale < 1.0 - _SCALE_EPSILON:
            schedule = stretch_schedule(schedule, self.now, scale)
        return schedule, scale, decide(m.platform, scale)

    def commit(self, schedule: Schedule, speed: float, decision) -> None:
        self.schedule = schedule
        if self.m.governor is not None:
            self.speed = speed
            self.decision = decision

    # -- execution ------------------------------------------------------ #
    def advance_to(self, target: float) -> None:
        """Execute the committed schedule from ``now`` up to ``target``."""
        while self.now < target - TIME_EPSILON:
            segment = next(
                (s for s in self.schedule if s.end > self.now + TIME_EPSILON), None
            )
            if segment is None:
                if target != float("inf"):
                    self.now = target
                return
            if segment.start > self.now + TIME_EPSILON:
                # Idle gap before the next planned segment.
                if segment.start >= target - TIME_EPSILON:
                    self.now = target
                    return
                self.now = segment.start
                continue
            end = min(segment.end, target)
            if end <= self.now + TIME_EPSILON:
                return
            self.execute(segment, self.now, end)
            self.now = end
            if end >= segment.end - TIME_EPSILON:
                finished = self.collect_finished(segment.end)
                if finished and self.m.remap_on_finish and self.active:
                    self.reschedule(self.now)

    def execute(self, segment: MappingSegment, start: float, end: float) -> None:
        """Account the progress and energy of one executed interval."""
        tables = self.m.tables
        duration = end - start
        job_configs = []
        if self.decision is not None:
            # DVFS: work retires at the governor's speed, energy comes from
            # the per-core power models at the in-force OPPs.
            points = []
            for mapping in segment:
                job = self.active.get(mapping.job_name)
                if job is None:
                    continue
                point = mapping.operating_point(tables)
                progress = duration * self.speed / point.execution_time
                self.active[job.name] = job.with_progress(
                    min(progress, job.remaining_ratio)
                )
                points.append((mapping.job_name, point))
                job_configs.append((mapping.job_name, mapping.config_index))
            if not job_configs:
                return
            energy = self.meter.record_analytical(duration, points, self.decision)
        else:
            energy = 0.0
            contributions = []
            for mapping in segment:
                job = self.active.get(mapping.job_name)
                if job is None:
                    continue
                point = mapping.operating_point(tables)
                progress = duration / point.execution_time
                share = point.energy * progress
                energy += share
                self.active[job.name] = job.with_progress(
                    min(progress, job.remaining_ratio)
                )
                job_configs.append((mapping.job_name, mapping.config_index))
                contributions.append((mapping.job_name, point, share))
            if not job_configs:
                return
            if self.meter is not None:
                self.meter.record_table(contributions)
        self.log.timeline.append(
            ExecutedInterval(start, end, tuple(job_configs), energy)
        )
        self.log.total_energy += energy

    def collect_finished(self, time: float) -> list[str]:
        """Retire completed jobs and prune their not-yet-executed mappings."""
        finished = []
        for name, job in list(self.active.items()):
            if job.remaining_ratio <= _FINISH_TOLERANCE:
                self.completions[name] = time
                del self.active[name]
                finished.append(name)
        if finished and self.active:
            pruned = _without_finished(self.schedule, self.active, self.now)
            if pruned is not self.schedule:
                # Already planned: keep the speed and OPPs in force.
                self.commit(pruned, self.speed, self.decision)
        return finished

    def finish(self) -> ExecutionLog:
        log = self.log
        if self.meter is not None:
            log.job_energy = dict(self.meter.job_joules)
            log.cluster_energy = self.meter.cluster_breakdown()
        for name, event in self.requests.items():
            accepted, search_time = self.admissions[name]
            log.outcomes.append(
                RequestOutcome(
                    name=name,
                    application=event.application,
                    arrival=event.time,
                    deadline=event.absolute_deadline,
                    accepted=accepted,
                    completion_time=self.completions.get(name),
                    scheduler_time=search_time,
                    energy=log.job_energy.get(name, 0.0),
                )
            )
        return log


def _without_finished(
    schedule: Schedule, active: Mapping[str, Job], now: float
) -> Schedule:
    """Strip not-yet-executed mappings whose job already finished."""
    changed = False
    kept: list[MappingSegment] = []
    for segment in schedule:
        if segment.end <= now + TIME_EPSILON:
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


def result_key(result) -> tuple:
    """A batch result's fingerprint fields without the scheduler's name."""
    key = result.fingerprint_key()
    return key[:1] + key[2:]


def log_key(log: ExecutionLog) -> tuple:
    """Every deterministic field of an execution log, floats compared by ``repr``."""
    return (
        repr(log.total_energy),
        log.activations,
        log.budget_rejections,
        tuple(
            (
                o.name,
                o.application,
                repr(o.arrival),
                repr(o.deadline),
                o.accepted,
                repr(o.completion_time),
                repr(o.energy),
            )
            for o in log.outcomes
        ),
        tuple(
            (repr(i.start), repr(i.end), repr(i.energy), i.job_configs)
            for i in log.timeline
        ),
        tuple(sorted((name, repr(value)) for name, value in log.job_energy.items())),
        tuple(
            (name, repr(entry["busy"]), repr(entry["idle"]), repr(entry["total"]))
            for name, entry in sorted(log.cluster_energy.items())
        ),
    )
