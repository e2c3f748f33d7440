"""The EDF mapping-segment packer (Algorithm 2 of the paper, SCHEDULEJOBS).

Given one configuration index per job, the packer constructs the mapping
segments: jobs are placed in non-decreasing deadline order (Earliest Deadline
First); each job first fills already existing segments (skipping those where
its resource demand does not fit), splitting the segment in which it finishes,
and only then appends a new segment at the end of the schedule for any
remaining work.  The result is ``None`` when some job would miss its deadline.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.problem import SchedulingProblem
from repro.core.segment import JobMapping, MappingSegment, Schedule, TIME_EPSILON
from repro.exceptions import SchedulingError
from repro.kernel.packmemo import usage_columns

#: Remaining-ratio threshold below which a job counts as finished.
_RATIO_EPSILON = 1e-9


def pack_jobs_edf(
    problem: SchedulingProblem, assignment: Mapping[str, int]
) -> Schedule | None:
    """Build mapping segments for the jobs listed in ``assignment``.

    Packing resumes from the longest ``(job, configuration)`` placement
    prefix shared with the activation's previous pack (see
    :class:`~repro.kernel.packmemo.PackMemo`) over a list of *immutable*
    segment records ``(start, end, mappings, usage)``.  Placements
    copy-on-write only the records they touch, so recording one snapshot per
    step is a pointer copy.  On two-cluster platforms the feasibility probe
    runs on struct-of-arrays usage columns (same integer adds and compares
    as the record loop, derived once per pack from the resumed state).  The
    arithmetic — and therefore every float — is identical to a from-scratch
    pack from an empty schedule, the seed packer of the reference oracle;
    the equivalence tests assert it.

    Parameters
    ----------
    problem:
        The scheduling problem (capacity, tables, jobs, current time).
    assignment:
        Job name → configuration index.  Jobs of the problem that do not
        appear in the assignment are ignored (Algorithm 1 calls the packer
        with partial assignments while it incrementally selects
        configurations).

    Returns
    -------
    Schedule or None
        The feasible schedule, or ``None`` if some assigned job cannot meet
        its deadline with the given configurations.

    Examples
    --------
    >>> from repro.workload.motivational import motivational_problem
    >>> problem = motivational_problem("S1")
    >>> schedule = pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 6})
    >>> schedule is not None
    True
    """
    view = problem.view()
    memo = view.pack_memo()
    capacity = view.capacity
    dimension = len(capacity)
    now = problem.now

    # The EDF placement order of the *full* job set is a constant of the
    # activation; sorting it once and filtering preserves the exact relative
    # order a per-pack sort of the assigned subset would produce.
    edf_jobs = memo.edf_jobs
    if edf_jobs is None:
        edf_jobs = memo.edf_jobs = sorted(
            problem.jobs, key=lambda j: (j.deadline, j.name)
        )
    ordered = [job for job in edf_jobs if job.name in assignment]
    memo.packs += 1

    # Longest placement prefix shared with the previous pack, compared in
    # stride (no intermediate step list).
    recorded = memo.steps
    shared = 0
    limit = min(len(ordered), len(recorded))
    while shared < limit:
        job = ordered[shared]
        step = recorded[shared]
        if step[0] != job.name or step[1] != assignment[job.name]:
            break
        shared += 1
    segments = memo.resume(shared)
    memo.resumed_steps += shared
    # Resume-vs-fallback outcome of this pack: a non-empty shared prefix
    # resumes mid-placement, an empty one replays from scratch.  Counted on
    # the memo (plain int — this runs once per candidate probe) and rolled
    # onto the activation's phase.solve span by the admission pipeline.
    if shared:
        memo.resumed_packs += 1
    steps = memo.steps
    snapshots = memo.snapshots
    placements = memo.placements
    add = int.__add__

    two_dim = dimension == 2
    if two_dim:
        usage0, usage1 = usage_columns(segments, 2)
        cap0, cap1 = capacity[0], capacity[1]

    # Validate (and derive placement constants for) every job of the dirty
    # suffix up front, before any placement — so an out-of-range
    # configuration raises even when an earlier placement fails its
    # deadline first.  Prefix jobs were validated when their steps were
    # recorded; repeat probes hit the per-activation placement cache.
    for job in ordered[shared:]:
        config_index = assignment[job.name]
        placement = placements.get(job.name)
        if placement is None or placement[0] != config_index:
            table = view.optable(job.application)
            if not 0 <= config_index < len(table.times):
                raise SchedulingError(
                    f"job {job.name!r}: configuration {config_index} out of range"
                )
            placements[job.name] = (
                config_index,
                table.resources[config_index],
                table.times[config_index],
                JobMapping(job, config_index),
            )

    # No "already mapped in this segment" guard: job names are unique and
    # each job's own placement only moves forward, so it cannot trigger.
    for job in ordered[shared:]:
        job_name = job.name
        config_index, row, execution_time, mapping = placements[job_name]
        remaining_ratio = job.remaining_ratio
        finish_time: float | None = None
        if two_dim:
            row0, row1 = row[0], row[1]

        index = 0
        while index < len(segments) and remaining_ratio > _RATIO_EPSILON:
            if two_dim:
                # SoA probe: the exact adds/compares of the record loop below,
                # on flat per-cluster columns.
                if usage0[index] + row0 > cap0 or usage1[index] + row1 > cap1:
                    index += 1
                    continue
                start, end, mappings, usage = segments[index]
            else:
                start, end, mappings, usage = segments[index]
                fits = True
                for k in range(dimension):
                    if usage[k] + row[k] > capacity[k]:
                        fits = False
                        break
                if not fits:
                    index += 1
                    continue

            required = execution_time * min(1.0, remaining_ratio)
            duration = end - start
            if required >= duration - TIME_EPSILON:
                # The job is busy for the whole segment (Alg. 2, lines 9-11).
                segments[index] = (
                    start,
                    end,
                    mappings + (mapping,),
                    tuple(map(add, usage, row)),
                )
                if two_dim:
                    usage0[index] += row0
                    usage1[index] += row1
                remaining_ratio -= duration / execution_time
                if remaining_ratio <= _RATIO_EPSILON:
                    remaining_ratio = 0.0
                    finish_time = end
                    break
                index += 1
            else:
                # The job finishes inside the segment: split it and map the
                # job only onto the first half (Alg. 2, lines 13-17).
                split_time = start + required
                if split_time <= start + TIME_EPSILON:
                    # Same guard (and error) as MappingSegment.split_at.
                    raise SchedulingError(
                        f"split time {split_time} outside open interval "
                        f"({start}, {end})"
                    )
                first = (
                    start,
                    split_time,
                    mappings + (mapping,),
                    tuple(map(add, usage, row)),
                )
                second = (split_time, end, mappings, usage)
                segments[index : index + 1] = [first, second]
                if two_dim:
                    base0, base1 = usage0[index], usage1[index]
                    usage0[index : index + 1] = [base0 + row0, base0]
                    usage1[index : index + 1] = [base1 + row1, base1]
                remaining_ratio = 0.0
                finish_time = split_time
                break

        if remaining_ratio > _RATIO_EPSILON:
            # Remaining work after the last existing segment (lines 19-22).
            start = max(now, segments[-1][1] if segments else now)
            required = execution_time * min(1.0, remaining_ratio)
            end = start + required
            if end <= start + TIME_EPSILON:
                # Same guard (and error) as the MappingSegment constructor.
                raise SchedulingError(
                    f"segment end {end} must be greater than start {start}"
                )
            segments.append((start, end, (mapping,), row))
            if two_dim:
                usage0.append(row0)
                usage1.append(row1)
            finish_time = end

        memo.replayed_steps += 1
        # Deadline check (Algorithm 2, line 23).  Failed placements are not
        # recorded: a later pack sharing the failing step must re-fail it.
        if finish_time is None or finish_time > job.deadline + 1e-9:
            return None
        steps.append((job_name, config_index))
        snapshots.append(segments.copy())

    # The working list is sorted and disjoint by construction; materialise
    # through the trusted constructors (no re-sort, no re-validation).
    return Schedule._trusted(
        tuple(
            MappingSegment._trusted(start, end, mappings)
            for start, end, mappings, _ in segments
        )
    )
