"""MMKP-LR — the Lagrangian-relaxation baseline scheduler.

The baseline follows Wildermann et al. as described in Section VI.A of the
paper: for the *current* mapping segment it builds an MMKP whose capacities
are the platform resources, solves the Lagrangian relaxation with a
subgradient method (limited to 100 iterations), and then maps jobs greedily in
increasing order of their minimum (Lagrangian-reduced) configuration cost.  A
configuration is accepted if the resources still fit and the job can meet its
deadline either by running that configuration until completion or — an
*optimistic* check — by being reconfigured to its fastest configuration at the
end of the segment.  The segment ends when the first mapped job finishes; the
procedure repeats for the remaining work.  The analysis scope is therefore a
single mapping segment, which is exactly the limitation the paper's global
MMKP-MDF removes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule
from repro.knapsack import MMKPProblem, solve_lagrangian, solve_lagrangian_many
from repro.knapsack.lagrangian import check_max_iterations
from repro.obs import tracer as obs
from repro.optable.view import ProblemView, SolveCache
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.store.memo import Memo

_RATIO_EPSILON = 1e-9
_TIME_EPSILON = 1e-9


@dataclass
class _PendingJob:
    """Mutable remaining-work record used while segments are being built."""

    job: Job
    remaining_ratio: float

    @property
    def name(self) -> str:
        return self.job.name

    def finished(self) -> bool:
        return self.remaining_ratio <= _RATIO_EPSILON


class MMKPLRScheduler(Scheduler):
    """Lagrangian-relaxation MMKP scheduler with single-segment scope.

    Parameters
    ----------
    max_subgradient_iterations:
        Iteration limit of the subgradient method per segment, an ``int``
        >= 1 (the paper uses 100).

    Examples
    --------
    >>> from repro.workload.motivational import motivational_problem
    >>> result = MMKPLRScheduler().schedule(motivational_problem("S1"))
    >>> result.feasible
    True
    """

    name = "mmkp-lr"

    def __init__(
        self,
        max_subgradient_iterations: int = 100,
        solve_cache: Memo | None = None,
    ):
        self._max_iterations = check_max_iterations(
            max_subgradient_iterations, "max_subgradient_iterations"
        )
        #: Fingerprint-keyed memo for the segment relaxations.  Per instance
        #: by default: a runtime-manager run (one scheduler, many arrivals)
        #: reuses solves, while independent schedulers — and wall-time
        #: measurements — stay isolated.  Pass a shared :func:`SolveCache`
        #: to pool deliberately (it is thread-safe).
        self.solve_cache = solve_cache if solve_cache is not None else SolveCache()
        self._own_cache = solve_cache is None
        self._pre_run_cache = None
        #: Counters of the most recent :meth:`schedule_many` call — batching
        #: telemetry only (round count, deduplicated relaxations and how many
        #: of those crossed ``groups`` boundaries); schedules never depend on
        #: it.  ``None`` until the first batched call.
        self.last_batch_stats: dict[str, object] | None = None

    # ------------------------------------------------------------------ #
    # Incremental-kernel hooks
    # ------------------------------------------------------------------ #
    def begin_run(self, kernel) -> None:
        """Adopt the kernel's shared relaxation memo as a warm start.

        Keys embed table fingerprints, the capacity and exact remaining
        ratios, so a hit anywhere in a batch replays the identical
        deterministic relaxation — adopting a shared cache can change wall
        time only, never a schedule.  An explicitly injected cache (the
        constructor's ``solve_cache``) is respected and kept.
        """
        if self._own_cache:
            self._pre_run_cache = self.solve_cache
            self.solve_cache = kernel.caches.solve_cache

    def end_run(self, kernel) -> None:
        """Restore the instance cache adopted over in :meth:`begin_run`.

        Keeps the adoption scoped to the run: a later activation outside a
        runtime-manager run starts from the instance's own cache again, and
        the instance drops its reference to the manager's shared store.
        """
        if self._pre_run_cache is not None:
            self.solve_cache = self._pre_run_cache
            self._pre_run_cache = None

    # ------------------------------------------------------------------ #
    # Scheduler interface
    # ------------------------------------------------------------------ #
    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        """Drive :meth:`_solve_gen`, solving each requested relaxation inline.

        The segment logic lives in the generator; this driver answers its
        relaxation requests one at a time.  :meth:`schedule_many` drives many
        generators lock-step instead and answers a whole round of requests
        with one batched solve — same generator, so the schedules are
        identical by construction.
        """
        generator = self._solve_gen(problem)
        try:
            request = generator.send(None)
            while True:
                _, mmkp = request
                relaxation = solve_lagrangian(
                    mmkp, max_iterations=self._max_iterations
                )
                request = generator.send(relaxation)
        except StopIteration as stop:
            return stop.value

    # ------------------------------------------------------------------ #
    # Batched admission
    # ------------------------------------------------------------------ #
    def schedule_many(
        self,
        problems: Sequence[SchedulingProblem],
        groups: Sequence[object] | None = None,
    ) -> list[SchedulingResult]:
        """Schedule many problems, batching their Lagrangian relaxations.

        All problems' segment loops advance lock-step: each round collects
        every activation's pending :attr:`solve_cache` miss, deduplicates
        identical relaxation keys and answers the round with one
        :func:`~repro.knapsack.solve_lagrangian_many` call (a single stacked
        subgradient solve with the dense backend).  Schedules, assignments,
        energies and statistics are bit-identical to calling
        :meth:`~repro.schedulers.base.Scheduler.schedule` per problem — only
        the wall time changes, so ``search_time`` is reported as each
        activation's equal share of the batch.

        ``groups`` optionally labels each problem with an opaque group token
        (a DSE sweep passes its sweep-point key).  Groups never influence the
        schedules; they only split :attr:`last_batch_stats`'s deduplication
        counter into same-group and cross-group shares, which is how the
        sweep engine proves that relaxations were shared *across* sweep
        points rather than merely within one.
        """
        problems = list(problems)
        if groups is not None:
            groups = list(groups)
            if len(groups) != len(problems):
                raise ValueError(
                    f"groups has {len(groups)} entries for {len(problems)} problems"
                )
        if not problems:
            return []
        with obs.span(
            "solve_many", category="scheduler", scheduler=self.name
        ) as span:
            start = time.perf_counter()
            raw = self._drive_many(problems, groups)
            elapsed = time.perf_counter() - start
            span.annotate(problems=len(problems))
        share = elapsed / len(problems)
        return [
            SchedulingResult(
                schedule=result.schedule,
                assignment=result.assignment,
                energy=result.energy,
                search_time=share,
                statistics=result.statistics,
            )
            for result in raw
        ]

    def _drive_many(
        self,
        problems: Sequence[SchedulingProblem],
        groups: Sequence[object] | None = None,
    ) -> list[SchedulingResult]:
        """Advance all solve generators lock-step, round by round."""
        results: list[SchedulingResult | None] = [None] * len(problems)
        live: list[tuple[int, object, tuple]] = []
        for index, problem in enumerate(problems):
            generator = self._solve_gen(problem)
            try:
                request = generator.send(None)
            except StopIteration as stop:
                results[index] = stop.value
            else:
                live.append((index, generator, request))

        stats = {
            "batched": True,
            "problems": len(problems),
            "rounds": 0,
            "requested": 0,
            "solved": 0,
            "deduped": 0,
            "cross_group_deduped": 0,
        }
        self.last_batch_stats = stats
        while live:
            # One batched solve answers the whole round; identical keys
            # (same tables, ratios and capacity anywhere in the batch) are
            # solved once, exactly as the solve cache would replay them.
            order: list = []
            unique: dict = {}
            first_group: dict = {}
            stats["rounds"] += 1
            stats["requested"] += len(live)
            for index, _, (key, mmkp) in live:
                group = None if groups is None else groups[index]
                if key not in unique:
                    unique[key] = mmkp
                    order.append(key)
                    first_group[key] = group
                else:
                    stats["deduped"] += 1
                    if groups is not None and first_group[key] != group:
                        stats["cross_group_deduped"] += 1
            stats["solved"] += len(order)
            solved = solve_lagrangian_many(
                [unique[key] for key in order],
                max_iterations=self._max_iterations,
            )
            by_key = dict(zip(order, solved))

            next_live: list[tuple[int, object, tuple]] = []
            for index, generator, (key, _) in live:
                try:
                    request = generator.send(by_key[key])
                except StopIteration as stop:
                    results[index] = stop.value
                else:
                    next_live.append((index, generator, request))
            live = next_live
        return results

    def _solve_gen(self, problem: SchedulingProblem):
        """Generator form of the segment loop.

        Yields ``(cache_key, MMKPProblem)`` whenever a segment relaxation
        misses the :attr:`solve_cache` and expects the
        :class:`~repro.knapsack.LagrangianResult` back via ``send`` — the
        only solver-facing seam, so the single-problem and batched drivers
        share every line of scheduling logic.
        """
        view = problem.view()
        pending = [
            _PendingJob(job, job.remaining_ratio)
            for job in sorted(problem.jobs, key=lambda j: j.name)
        ]
        segments: list[MappingSegment] = []
        first_config: dict[str, int] = {}
        now = problem.now
        subgradient_iterations = 0
        segment_count = 0

        while any(not p.finished() for p in pending):
            active = [p for p in pending if not p.finished()]

            # Every unfinished job must still have a chance to meet its
            # deadline; otherwise the request set is rejected.
            for record in active:
                fastest = view.optable(record.job.application).min_time
                if now + fastest * record.remaining_ratio > record.job.deadline + 1e-6:
                    return self._reject(subgradient_iterations, segment_count)

            assignment, iterations = yield from self._assign_segment(
                view, active, now
            )
            subgradient_iterations += iterations
            if not assignment:
                # No job could be mapped onto the empty platform: no progress
                # is possible, reject.
                return self._reject(subgradient_iterations, segment_count)

            # The segment ends when the first mapped job finishes.
            segment_end = min(
                now
                + view.optable(record.job.application).times[assignment[record.name]]
                * record.remaining_ratio
                for record in active
                if record.name in assignment
            )
            duration = segment_end - now
            if duration <= _TIME_EPSILON:
                return self._reject(subgradient_iterations, segment_count)

            mappings = []
            for record in active:
                if record.name not in assignment:
                    continue
                config_index = assignment[record.name]
                first_config.setdefault(record.name, config_index)
                mappings.append(JobMapping(record.job, config_index))
                execution_time = view.optable(record.job.application).times[
                    config_index
                ]
                record.remaining_ratio -= duration / execution_time
                if record.remaining_ratio <= _RATIO_EPSILON:
                    record.remaining_ratio = 0.0
                    if segment_end > record.job.deadline + 1e-6:
                        return self._reject(subgradient_iterations, segment_count)
            segments.append(MappingSegment(now, segment_end, mappings))
            segment_count += 1
            now = segment_end

        schedule = Schedule(segments)
        return SchedulingResult(
            schedule=schedule,
            assignment=first_config,
            energy=problem.energy_of(schedule),
            statistics={
                "subgradient_iterations": subgradient_iterations,
                "segments": segment_count,
            },
        )

    @staticmethod
    def _reject(subgradient_iterations: int, segment_count: int) -> SchedulingResult:
        return SchedulingResult(
            schedule=None,
            statistics={
                "subgradient_iterations": subgradient_iterations,
                "segments": segment_count,
            },
        )

    # ------------------------------------------------------------------ #
    # Per-segment assignment
    # ------------------------------------------------------------------ #
    def _assign_segment(
        self,
        view: ProblemView,
        active: list[_PendingJob],
        now: float,
    ):
        """Pick one configuration per job for the segment starting at ``now``.

        Returns the assignment (jobs left out are suspended for the segment)
        and the number of subgradient iterations spent.  Generator form:
        builds the single-segment MMKP from the view's cached
        capacity-feasible slices (no ``MMKPItem`` churn) and memoises the
        Lagrangian solve in this scheduler's :attr:`solve_cache`, keyed by
        table fingerprints, exact remaining ratios and the capacity — a hit
        replays the identical deterministic relaxation without spending the
        100 subgradient iterations again.  On a miss the relaxation is not
        solved here: the ``(key, mmkp)`` pair is *yielded* to whichever
        driver is advancing the generator (inline single solve or the
        lock-step batch), and the result arrives back via ``send``.
        """
        capacity = view.capacity
        dimension = len(capacity)

        entries = [
            (record.job.application, record.remaining_ratio) for record in active
        ]
        key = view.lagrangian_key(entries, self._max_iterations)
        relaxation = self.solve_cache.get(key)
        if relaxation is None:
            group_values = []
            group_rows = []
            for application, ratio in entries:
                fitting = view.fitting_indices(application)
                if fitting:
                    energies = view.optable(application).energies
                    group_values.append([-(energies[i] * ratio) for i in fitting])
                    group_rows.append(view.mmkp_weight_rows(application))
                else:
                    group_values.append([0.0])
                    group_rows.append((tuple(0.0 for _ in capacity),))
            mmkp = MMKPProblem.from_columns(
                [float(c) for c in capacity], group_values, group_rows
            )
            relaxation = yield (key, mmkp)
            self.solve_cache.put(key, relaxation)
        multipliers = relaxation.multipliers

        def reduced_cost(ratio: float, energy: float, row: tuple[int, ...]) -> float:
            penalty = sum(
                multiplier * resource for multiplier, resource in zip(multipliers, row)
            )
            return energy * ratio + penalty

        # Map jobs in increasing order of their minimum configuration cost.
        ordering = []
        for record in active:
            application = record.job.application
            table = view.optable(application)
            fitting = view.fitting_indices(application)
            if fitting:
                ratio = record.remaining_ratio
                minimum = min(
                    reduced_cost(ratio, table.energies[i], table.resources[i])
                    for i in fitting
                )
            else:
                minimum = float("inf")
            ordering.append((minimum, record, fitting))
        ordering.sort(key=lambda entry: (entry[0], entry[1].name))

        assignment: dict[str, int] = {}
        remaining = list(capacity)
        # Estimated end of the segment under construction: the earliest
        # completion among the jobs assigned so far.  The optimistic deadline
        # check assumes the job switches to its fastest configuration there.
        estimated_end = float("inf")
        for _, record, fitting in ordering:
            table = view.optable(record.job.application)
            times = table.times
            energies = table.energies
            resources = table.resources
            ratio = record.remaining_ratio
            deadline = record.job.deadline
            fastest = table.min_time
            for index in sorted(
                fitting, key=lambda i: reduced_cost(ratio, energies[i], resources[i])
            ):
                row = resources[index]
                fits = True
                for k in range(dimension):
                    if row[k] > remaining[k]:
                        fits = False
                        break
                if not fits:
                    continue
                completion = now + times[index] * ratio
                if completion <= deadline + 1e-9:
                    accepted = True
                else:
                    # Optimistic check: run this configuration until the end
                    # of the segment, then reconfigure to the fastest one.
                    segment_end = min(estimated_end, completion)
                    progressed = (segment_end - now) / times[index]
                    left_after = max(0.0, ratio - progressed)
                    accepted = segment_end + fastest * left_after <= deadline + 1e-9
                if not accepted:
                    continue
                assignment[record.name] = index
                for k in range(dimension):
                    remaining[k] -= row[k]
                estimated_end = min(estimated_end, completion)
                break

        return assignment, relaxation.iterations
