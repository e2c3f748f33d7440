"""EX-MEM — exhaustive segment-level search with memoisation.

EX-MEM is the (near-)optimal reference scheduler of the paper's evaluation.
It explores every possible mapping of the current job set onto one mapping
segment, cuts the segment at the point where the first mapped job finishes,
and recurses on the remaining work.  The best (minimum-energy) continuation of
every encountered state — the pair of remaining progress ratios and the
current time — is memoised, which prunes the exponential recursion
considerably but does not change its worst-case complexity: the paper reports
an average of 152 s and a worst case of ~2550 s for four jobs.

Because the search is exponential, the class exposes two practical knobs:

* ``max_configs_per_job`` restricts each job to its N most energy-efficient
  operating points (``None`` keeps all points).
* ``max_states`` bounds the number of distinct memoised states; when the
  budget is exhausted the search stops expanding and reports the problem as
  unsolved (``budget_exhausted`` is set in the result statistics so the
  experiment harness can flag such runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule
from repro.schedulers.base import Scheduler, SchedulingResult

_RATIO_EPSILON = 1e-9
_TIME_EPSILON = 1e-9
#: Number of decimal digits used to quantise memoisation keys.
_KEY_DIGITS = 6


@dataclass(frozen=True)
class _JobState:
    """Remaining work of one job inside the recursive search."""

    job: Job
    remaining_ratio: float

    @property
    def name(self) -> str:
        return self.job.name

    def finished(self) -> bool:
        return self.remaining_ratio <= _RATIO_EPSILON


class _BudgetExhausted(Exception):
    """Internal signal: the state budget was consumed, abort the search."""


class ExMemScheduler(Scheduler):
    """Exhaustive mapping-segment search with memoisation (EX-MEM baseline).

    Parameters
    ----------
    max_configs_per_job:
        If given, each job only considers its ``N`` most energy-efficient
        operating points.  The paper uses the full tables; the benchmark
        harness restricts them to keep the reference runs tractable.
    max_states:
        Upper bound on the number of memoised states (``None`` = unlimited).
    """

    name = "ex-mem"

    def __init__(
        self,
        max_configs_per_job: int | None = None,
        max_states: int | None = 2_000_000,
    ):
        self._max_configs = max_configs_per_job
        self._max_states = max_states
        self._kernel_caches = None

    # ------------------------------------------------------------------ #
    # Incremental-kernel hooks
    # ------------------------------------------------------------------ #
    def begin_run(self, kernel) -> None:
        """Adopt the kernel's shared per-table candidate-column store.

        The candidate points/columns of an application depend only on the
        table content and the truncation knob; keying by the interned
        table fingerprint lets every activation of a run (and every job of
        a batch posing the same tables) reuse one derivation.
        """
        self._kernel_caches = kernel.caches

    def end_run(self, kernel) -> None:
        self._kernel_caches = None

    # ------------------------------------------------------------------ #
    # Scheduler interface
    # ------------------------------------------------------------------ #
    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        self._problem = problem
        self._capacity_counts = tuple(problem.capacity)
        self._memo: dict = {}
        self._points_cache: dict[str, list[tuple[int, OperatingPoint]]] = {}
        #: Per-application candidate columns, derived once per solve:
        #: ``app → (times, energies, resource rows, cheapest energy,
        #: fastest time)`` with columns indexed by *configuration index*
        #: (sparse dict per app, since truncation may skip indices).
        self._columns_cache: dict[str, tuple] = {}
        self._states_created = 0
        budget_exhausted = False

        states = tuple(
            _JobState(job, job.remaining_ratio)
            for job in sorted(problem.jobs, key=lambda j: j.name)
        )
        try:
            best_energy, _ = self._best_continuation(problem.now, states)
        except _BudgetExhausted:
            best_energy = float("inf")
            budget_exhausted = True

        statistics = {
            "states": self._states_created,
            "budget_exhausted": float(budget_exhausted),
        }
        if best_energy == float("inf"):
            return SchedulingResult(schedule=None, statistics=statistics)

        schedule, assignment = self._reconstruct(problem.now, states)
        return SchedulingResult(
            schedule=schedule,
            assignment=assignment,
            energy=problem.energy_of(schedule),
            statistics=statistics,
        )

    # ------------------------------------------------------------------ #
    # Recursive search
    # ------------------------------------------------------------------ #
    def _candidate_points(self, job: Job) -> list[tuple[int, OperatingPoint]]:
        """The (index, point) pairs this job may use, possibly truncated."""
        if job.application not in self._points_cache:
            pairs = None
            caches = self._kernel_caches
            if caches is not None:
                # Shared across activations (and batch jobs) by table
                # content: the pairs are a pure function of the interned
                # table and the truncation knob.
                table = self._problem.optable_for(job)
                entry = caches.exmem.get((table.fingerprint, self._max_configs))
                if entry is not None:
                    pairs = entry[0]
            if pairs is None:
                table = self._problem.optable_for(job)
                pairs = [(index, table.points[index]) for index in range(len(table))]
                if self._max_configs is not None and len(pairs) > self._max_configs:
                    # ``order_by_energy`` is the same stable energy sort the
                    # seed performed here per solve.
                    pairs = [
                        (index, table.points[index])
                        for index in table.order_by_energy[: self._max_configs]
                    ]
            self._points_cache[job.application] = pairs
        return self._points_cache[job.application]

    def _candidate_columns(self, job: Job):
        """Columnar view of the candidate set of ``job``'s application.

        Returns ``(times, energies, rows, cheapest, fastest)`` where the
        first three are dicts keyed by configuration index (the candidate set
        may be truncated) and the minima are over the candidate set — the
        values the seed re-derived with ``min(...)`` scans per search state.
        Under the incremental kernel the derivation is shared process-wide
        by table fingerprint (see :meth:`begin_run`).
        """
        application = job.application
        columns = self._columns_cache.get(application)
        if columns is None:
            caches = self._kernel_caches
            fingerprint = None
            if caches is not None:
                fingerprint = self._problem.optable_for(job).fingerprint
                entry = caches.exmem.get((fingerprint, self._max_configs))
                if entry is not None and entry[1] is not None:
                    self._columns_cache[application] = entry[1]
                    self._points_cache.setdefault(application, entry[0])
                    return entry[1]
            pairs = self._candidate_points(job)
            times = {index: point.execution_time for index, point in pairs}
            energies = {index: point.energy for index, point in pairs}
            rows = {index: tuple(point.resources) for index, point in pairs}
            cheapest = min(energies.values())
            fastest = min(times.values())
            columns = (times, energies, rows, cheapest, fastest)
            self._columns_cache[application] = columns
            if caches is not None:
                caches.exmem.put((fingerprint, self._max_configs), (pairs, columns))
        return columns

    def _state_key(self, now: float, states: Sequence[_JobState]):
        return (
            round(now, _KEY_DIGITS),
            tuple((s.name, round(s.remaining_ratio, _KEY_DIGITS)) for s in states),
        )

    def _energy_lower_bound(self, states: Sequence[_JobState]) -> float:
        """Admissible bound: every job finishes with its cheapest configuration."""
        bound = 0.0
        for state in states:
            if state.finished():
                continue
            cheapest = self._candidate_columns(state.job)[3]
            bound += cheapest * state.remaining_ratio
        return bound

    def _best_continuation(self, now: float, states: Sequence[_JobState]):
        """Return ``(best energy, best decision)`` for the given state.

        The decision is ``(assignment, segment_end)`` where the assignment
        maps job names to configuration indices of the jobs running in the
        next segment.  ``float('inf')`` marks infeasible states.

        The optimal continuation of a state does not depend on how the state
        was reached, so a *local* branch-and-bound is exact and composes with
        the memoisation: within one state's enumeration a child assignment is
        skipped as soon as its segment energy plus an admissible lower bound
        on the child state can no longer beat the best child found so far.
        """
        active = [s for s in states if not s.finished()]
        if not active:
            return 0.0, None

        # Prune: every unfinished job must still be able to meet its deadline
        # even when executed with its fastest configuration starting now.
        for state in active:
            fastest = self._candidate_columns(state.job)[4]
            if now + fastest * state.remaining_ratio > state.job.deadline + 1e-6:
                return float("inf"), None

        key = self._state_key(now, active)
        if key in self._memo:
            return self._memo[key]

        self._states_created += 1
        if self._max_states is not None and self._states_created > self._max_states:
            raise _BudgetExhausted()

        # Evaluate the most promising assignments first so the local bound
        # becomes effective as early as possible.
        candidates = []
        for assignment in self._enumerate_assignments(active):
            estimate = self._assignment_estimate(now, active, assignment)
            if estimate is not None:
                candidates.append((estimate, assignment))
        candidates.sort(key=lambda item: item[0])

        best_energy = float("inf")
        best_decision = None
        for estimate, assignment in candidates:
            if estimate >= best_energy - 1e-12:
                break  # candidates are sorted; no later one can improve
            energy, decision = self._evaluate_assignment(now, states, active, assignment)
            if energy < best_energy:
                best_energy = energy
                best_decision = decision

        self._memo[key] = (best_energy, best_decision)
        return best_energy, best_decision

    def _assignment_estimate(
        self, now: float, active: Sequence[_JobState], assignment: Mapping[str, int]
    ) -> float | None:
        """Admissible estimate of the total energy of a child assignment.

        The estimate charges every mapped job the energy it actually consumes
        during the segment, every job its cheapest-configuration energy for
        the remaining work afterwards, and returns ``None`` for assignments
        that cannot make progress.
        """
        segment_end = float("inf")
        for state in active:
            if state.name not in assignment:
                continue
            times = self._candidate_columns(state.job)[0]
            segment_end = min(
                segment_end,
                now + times[assignment[state.name]] * state.remaining_ratio,
            )
        if segment_end == float("inf"):
            return None
        duration = segment_end - now
        if duration <= _TIME_EPSILON:
            return None

        estimate = 0.0
        for state in active:
            times, energies, _, cheapest, _ = self._candidate_columns(state.job)
            if state.name not in assignment:
                estimate += cheapest * state.remaining_ratio
                continue
            config_index = assignment[state.name]
            progressed = min(state.remaining_ratio, duration / times[config_index])
            estimate += energies[config_index] * progressed
            estimate += cheapest * (state.remaining_ratio - progressed)
        return estimate

    def _enumerate_assignments(
        self, active: Sequence[_JobState]
    ) -> Iterator[dict[str, int]]:
        """Yield every resource-feasible assignment with at least one mapped job.

        Each active job either runs one of its candidate configurations or is
        suspended for the segment (absent from the assignment).
        """
        capacity = self._capacity_counts
        dimension = len(capacity)
        rows_by_state = [self._candidate_columns(state.job)[2] for state in active]

        def recurse(index: int, used: tuple[int, ...], chosen: dict[str, int]):
            if index == len(active):
                if chosen:
                    yield dict(chosen)
                return
            state = active[index]
            # Option 1: suspend the job for this segment.
            yield from recurse(index + 1, used, chosen)
            # Option 2: run it with one of its configurations.
            rows = rows_by_state[index]
            for config_index, _ in self._candidate_points(state.job):
                row = rows[config_index]
                total = tuple(u + r for u, r in zip(used, row))
                fits = True
                for k in range(dimension):
                    if total[k] > capacity[k]:
                        fits = False
                        break
                if not fits:
                    continue
                chosen[state.name] = config_index
                yield from recurse(index + 1, total, chosen)
                del chosen[state.name]

        yield from recurse(0, (0,) * dimension, {})

    def _evaluate_assignment(
        self,
        now: float,
        states: Sequence[_JobState],
        active: Sequence[_JobState],
        assignment: Mapping[str, int],
    ):
        """Energy of the segment defined by ``assignment`` plus the best continuation."""
        # The segment ends when the first mapped job finishes ("cut the
        # segment on the shortest job").
        segment_end = float("inf")
        for state in active:
            if state.name not in assignment:
                continue
            times = self._candidate_columns(state.job)[0]
            segment_end = min(
                segment_end,
                now + times[assignment[state.name]] * state.remaining_ratio,
            )
        duration = segment_end - now
        if duration <= _TIME_EPSILON:
            return float("inf"), None

        # Segment energy and new job states.
        segment_energy = 0.0
        new_states = []
        for state in states:
            if state.finished() or state.name not in assignment:
                new_states.append(state)
                continue
            times, energies, _, _, _ = self._candidate_columns(state.job)
            config_index = assignment[state.name]
            execution_time = times[config_index]
            segment_energy += energies[config_index] * duration / execution_time
            progressed = duration / execution_time
            remaining = state.remaining_ratio - progressed
            if remaining <= _RATIO_EPSILON:
                remaining = 0.0
                if segment_end > state.job.deadline + 1e-6:
                    return float("inf"), None
            new_states.append(_JobState(state.job, remaining))

        tail_energy, _ = self._best_continuation(segment_end, tuple(new_states))
        if tail_energy == float("inf"):
            return float("inf"), None
        return segment_energy + tail_energy, (dict(assignment), segment_end)

    # ------------------------------------------------------------------ #
    # Schedule reconstruction from the memo table
    # ------------------------------------------------------------------ #
    def _reconstruct(self, now: float, states: Sequence[_JobState]):
        """Rebuild the optimal schedule by replaying the memoised decisions."""
        segments: list[MappingSegment] = []
        first_config: dict[str, int] = {}
        current_states = tuple(states)
        current_time = now

        while True:
            active = [s for s in current_states if not s.finished()]
            if not active:
                break
            key = self._state_key(current_time, active)
            _, decision = self._memo[key]
            if decision is None:
                break
            assignment, segment_end = decision
            mappings = []
            for state in active:
                if state.name not in assignment:
                    continue
                config_index = assignment[state.name]
                first_config.setdefault(state.name, config_index)
                mappings.append(JobMapping(state.job, config_index))
            segments.append(MappingSegment(current_time, segment_end, mappings))

            duration = segment_end - current_time
            next_states = []
            for state in current_states:
                if state.finished() or state.name not in assignment:
                    next_states.append(state)
                    continue
                times = self._candidate_columns(state.job)[0]
                remaining = (
                    state.remaining_ratio - duration / times[assignment[state.name]]
                )
                if remaining <= _RATIO_EPSILON:
                    remaining = 0.0
                next_states.append(_JobState(state.job, remaining))
            current_states = tuple(next_states)
            current_time = segment_end

        return Schedule(segments), first_config
