"""The EDF mapping-segment packer (Algorithm 2 of the paper, SCHEDULEJOBS).

Given one configuration index per job, the packer constructs the mapping
segments: jobs are placed in non-decreasing deadline order (Earliest Deadline
First); each job first fills already existing segments (skipping those where
its resource demand does not fit), splitting the segment in which it finishes,
and only then appends a new segment at the end of the schedule for any
remaining work.  The result is ``None`` when some job would miss its deadline.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Mapping

from repro.core.segment import JobMapping, TIME_EPSILON
from repro.exceptions import SchedulingError
from repro.kernel.packmemo import materialise

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.problem import SchedulingProblem
    from repro.core.request import Job
    from repro.core.segment import Schedule
    from repro.kernel.packmemo import PackMemo, Step
    from repro.optable.table import OpTable

#: Remaining-ratio threshold below which a job counts as finished.
_RATIO_EPSILON = 1e-9


def pack_jobs_edf(
    problem: SchedulingProblem,
    assignment: Mapping[str, int],
    trial: str | None = None,
) -> Schedule | PackMemo | None:
    """Build mapping segments for the jobs listed in ``assignment``.

    * Without ``trial``, the whole assignment is packed from the empty
      timeline; the activation's committed trajectory is left alone.
    * With ``trial`` — Algorithm 1's configuration probe — the pack runs on
      the committed EDF trajectory of the current walk (see
      :class:`~repro.kernel.packmemo.PackMemo`).  ``assignment`` is the
      committed assignment plus the configuration of ``trial``, a job not
      yet committed, and only that one entry is read.  The trial job's EDF
      rank among the committed steps is found by bisection; the pack
      resumes from the state before that rank, places the trial job and
      replays the committed suffix.  A successful probe becomes the
      committed trajectory; a failed one changes nothing.

    Placements copy-on-write only the segment records they touch.  The
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
    trial:
        Name of the probed job, or ``None`` to pack the whole assignment.

    Returns
    -------
    Schedule, PackMemo or None
        ``None`` if some assigned job cannot meet its deadline with the given
        configurations.  Otherwise the feasible schedule — or, for a
        ``trial`` probe, the committed :class:`PackMemo`, whose
        :meth:`~repro.kernel.packmemo.PackMemo.schedule` materialises it, so
        a caller that probes many configurations builds one schedule.

    Raises
    ------
    SchedulingError
        If an assigned configuration index is out of range (checked before
        any placement), ``trial`` is not a job of the problem, or the probe
        does not add exactly the uncommitted ``trial`` to the committed
        trajectory.

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
    memo.packs += 1
    order = memo.order
    if order is None:
        # The EDF placement order of the activation's whole job set: name →
        # (rank, job, table), inserted in rank order.
        order = memo.order = {
            job.name: (rank, job, view.optable(job.application))
            for rank, job in enumerate(
                sorted(problem.jobs, key=lambda j: (j.deadline, j.name))
            )
        }
    snapshots = memo.snapshots
    # Every new step is derived (and its configuration validated) before any
    # placement, so an out-of-range configuration raises even when an
    # earlier placement would miss its deadline first.
    if trial is None:
        placing = [
            _step(entry, assignment[name])
            for name, entry in order.items()
            if name in assignment
        ]
        position = resume = 0
    else:
        entry = order.get(trial)
        if entry is None:
            raise SchedulingError(f"trial job {trial!r} is not a job of the problem")
        rank = entry[0]
        ranks = memo.ranks
        position = bisect_left(ranks, rank)
        if len(assignment) != len(ranks) + 1 or (
            position < len(ranks) and ranks[position] == rank
        ):
            # A stale trajectory (the walk did not restart it) or a trial
            # that is already committed: resuming would pack other jobs
            # than the assignment names.
            raise SchedulingError(
                f"trial job {trial!r} does not extend the committed trajectory"
            )
        trial_step = _step(entry, assignment[trial])
        # Resume from the nearest filled snapshot at or before the trial's
        # rank; the committed steps in between are replayed and their
        # snapshots filled on the way.
        resume = position
        while snapshots[resume] is None:
            resume -= 1
        steps = memo.steps
        placing = steps[resume:position]
        placing.append(trial_step)
        placing += steps[position:]
    memo.resumed_steps += resume
    if resume:
        memo.resumed_packs += 1
    fill = position - resume

    state = list(map(list, snapshots[resume]))
    segments = state[0]
    capacity = view.capacity
    dimension = len(capacity)
    now = view.now
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
    for executed, step in enumerate(placing, 1):
        _, mapping, row, execution_time, remaining_ratio, limit = step
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

        # Deadline check (Algorithm 2, line 23).
        if finish_time is None or finish_time > limit:
            memo.replayed_steps += executed
            return None
        if fill:
            # A committed step replayed up to the trial's rank: keep the
            # state it leaves as that rank's snapshot.
            fill -= 1
            resume += 1
            snapshots[resume] = tuple(map(list.copy, state))
    memo.replayed_steps += len(placing)

    if trial is None:
        return materialise(segments)
    memo.commit(position, trial_step, state)
    return memo


def _step(entry: tuple[int, Job, OpTable], config_index: int) -> Step:
    """The placement :data:`~repro.kernel.packmemo.Step` of one assignment."""
    rank, job, table = entry
    if not 0 <= config_index < len(table.times):
        raise SchedulingError(
            f"job {job.name!r}: configuration {config_index} out of range"
        )
    return (
        rank,
        JobMapping(job, config_index),
        table.resources[config_index],
        table.times[config_index],
        job.remaining_ratio,
        job.deadline + 1e-9,
    )
