"""The EDF mapping-segment packer (Algorithm 2 of the paper, SCHEDULEJOBS).

Given one configuration index per job, the packer constructs the mapping
segments: jobs are placed in non-decreasing deadline order (Earliest Deadline
First); each job first fills already existing segments (skipping those where
its resource demand does not fit), splitting the segment in which it finishes,
and only then appends a new segment at the end of the schedule for any
remaining work.  The result is ``None`` when some job would miss its deadline.
"""

from __future__ import annotations

from itertools import starmap
from typing import Mapping

from repro.core.problem import SchedulingProblem
from repro.core.segment import JobMapping, MappingSegment, Schedule, TIME_EPSILON
from repro.exceptions import SchedulingError

#: Remaining-ratio threshold below which a job counts as finished.
_RATIO_EPSILON = 1e-9

#: ``assignment.get`` default marking a job the assignment leaves out.
_UNASSIGNED = object()


def pack_jobs_edf(
    problem: SchedulingProblem, assignment: Mapping[str, int]
) -> Schedule | None:
    """Build mapping segments for the jobs listed in ``assignment``.

    Packing resumes from the longest ``(job, configuration)`` placement
    prefix shared with the activation's previous pack (see
    :class:`~repro.kernel.packmemo.PackMemo`); one walk over the
    activation's EDF order finds that prefix and collects the dirty suffix.
    The working state is a list of *immutable* segment records ``(start,
    end, mappings)`` plus one int usage column per resource type, which the
    feasibility probe scans.  Placements copy-on-write only the records they
    touch, and each memo snapshot keeps its columns, so recording one
    snapshot per step is a few flat list copies.  The arithmetic — and
    therefore every float — is identical to a from-scratch pack from an
    empty schedule, the seed packer of the reference oracle; the
    equivalence tests assert it.

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
    memo.packs += 1

    # The EDF placement order of the *full* job set is a constant of the
    # activation; walking it and skipping unassigned jobs preserves the
    # exact relative order a per-pack sort of the assigned subset would
    # produce.
    edf_jobs = memo.edf_jobs
    if edf_jobs is None:
        edf_jobs = memo.edf_jobs = sorted(
            problem.jobs, key=lambda j: (j.deadline, j.name)
        )

    # One walk over the EDF order: match the recorded step prefix, then
    # collect the dirty suffix — validated (and its placement constants
    # derived) before any placement, so an out-of-range configuration raises
    # even when an earlier placement fails its deadline first.  The raise
    # waits until the memo is resumed and counted, as for any other pack.
    # Prefix jobs were validated when their steps were recorded; repeat
    # probes hit the per-activation placement cache.
    recorded = memo.steps
    depth = len(recorded)
    placements = memo.placements
    lookup = assignment.get
    shared = 0
    suffix = []
    invalid = None
    for job in edf_jobs:
        name = job.name
        config_index = lookup(name, _UNASSIGNED)
        if config_index is _UNASSIGNED:
            continue
        if not suffix and shared < depth:
            step = recorded[shared]
            if step[0] == name and step[1] == config_index:
                shared += 1
                continue
        placement = placements.get(name)
        if placement is None or placement[0] != config_index:
            table = view.optable(job.application)
            if not 0 <= config_index < len(table.times):
                invalid = SchedulingError(
                    f"job {name!r}: configuration {config_index} out of range"
                )
                break
            placement = placements[name] = (
                config_index,
                table.resources[config_index],
                table.times[config_index],
                JobMapping(job, config_index),
            )
        suffix.append((job, placement))

    state = memo.resume(shared)
    memo.resumed_steps += shared
    # Resume-vs-fallback outcome of this pack: a non-empty shared prefix
    # resumes mid-placement, an empty one replays from scratch.  Counted on
    # the memo (plain int — this runs once per candidate probe) and rolled
    # onto the activation's phase.solve span by the admission pipeline.
    if shared:
        memo.resumed_packs += 1
    if invalid is not None:
        raise invalid
    steps = memo.steps
    snapshots = memo.snapshots
    segments = state[0]
    # On two-cluster platforms the columns and rows are unrolled into
    # locals; other dimensions loop over them.  Either way the probe is the
    # same integer adds and compares per resource type.
    two_dim = dimension == 2
    if two_dim:
        usage0, usage1 = state[1], state[2]
        cap0, cap1 = capacity[0], capacity[1]
    else:
        columns = state[1:]

    # No "already mapped in this segment" guard: job names are unique and
    # each job's own placement only moves forward, so it cannot trigger.
    for job, (config_index, row, execution_time, mapping) in suffix:
        remaining_ratio = job.remaining_ratio
        finish_time: float | None = None
        if two_dim:
            row0, row1 = row[0], row[1]

        index = 0
        while index < len(segments) and remaining_ratio > _RATIO_EPSILON:
            if two_dim:
                if usage0[index] + row0 > cap0 or usage1[index] + row1 > cap1:
                    index += 1
                    continue
            else:
                fits = True
                for k in range(dimension):
                    if columns[k][index] + row[k] > capacity[k]:
                        fits = False
                        break
                if not fits:
                    index += 1
                    continue

            start, end, mappings = segments[index]
            # min(1.0, remaining_ratio), spelled out: no call per probe.
            required = execution_time * (
                remaining_ratio if remaining_ratio < 1.0 else 1.0
            )
            duration = end - start
            if required >= duration - TIME_EPSILON:
                # The job is busy for the whole segment (Alg. 2, lines 9-11).
                segments[index] = (start, end, mappings + (mapping,))
                if two_dim:
                    usage0[index] += row0
                    usage1[index] += row1
                else:
                    for k in range(dimension):
                        columns[k][index] += row[k]
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
                segments[index] = (split_time, end, mappings)
                segments.insert(index, (start, split_time, mappings + (mapping,)))
                if two_dim:
                    usage0.insert(index, usage0[index] + row0)
                    usage1.insert(index, usage1[index] + row1)
                else:
                    for k in range(dimension):
                        column = columns[k]
                        column.insert(index, column[index] + row[k])
                remaining_ratio = 0.0
                finish_time = split_time
                break

        if remaining_ratio > _RATIO_EPSILON:
            # Remaining work after the last existing segment (lines 19-22).
            last = segments[-1][1] if segments else now
            start = last if last > now else now
            required = execution_time * (
                remaining_ratio if remaining_ratio < 1.0 else 1.0
            )
            end = start + required
            if end <= start + TIME_EPSILON:
                # Same guard (and error) as the MappingSegment constructor.
                raise SchedulingError(
                    f"segment end {end} must be greater than start {start}"
                )
            segments.append((start, end, (mapping,)))
            if two_dim:
                usage0.append(row0)
                usage1.append(row1)
            else:
                for k in range(dimension):
                    columns[k].append(row[k])
            finish_time = end

        memo.replayed_steps += 1
        # Deadline check (Algorithm 2, line 23).  Failed placements are not
        # recorded: a later pack sharing the failing step must re-fail it.
        if finish_time is None or finish_time > job.deadline + 1e-9:
            return None
        steps.append((job.name, config_index))
        snapshots.append(tuple(map(list.copy, state)))

    # The working list is sorted and disjoint by construction; materialise
    # through the trusted constructors (no re-sort, no re-validation).
    return Schedule._trusted(tuple(starmap(MappingSegment._trusted, segments)))
