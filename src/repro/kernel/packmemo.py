"""The activation's committed EDF trajectory (the delta half of Algorithm 2).

Algorithm 1 validates every candidate ``(job, configuration)`` by packing the
trial assignment with the EDF packer.  The packer places jobs in a fixed
order (non-decreasing deadline, then name), and each placement depends only
on the segment state left by the placements before it, so the packed
timeline after the first ``p`` placements is a pure function of the first
``p`` ``(job, configuration)`` steps.

A :class:`PackMemo` holds the *committed* trajectory of one Algorithm 1
walk: the steps of its last successful probe in EDF-rank order, their ranks,
and the working segment state after each step — filled lazily, because most
of them are never resumed from.  A probe of a trial job that is not yet
committed finds the job's rank among the committed steps by bisection,
resumes from the state before that rank, places the trial job and replays
only the committed suffix.  A failed probe records nothing; a successful one
becomes the committed trajectory.  Since a resumed pack starts from the
exact state a from-scratch pack reaches and replays the identical float
operations, every schedule is bit-identical to the reference oracle's; the
equivalence suites assert it.

The working state is a list of *immutable* segment records ``(start, end,
mappings)`` plus one flat int column of busy cores per resource type.  A
snapshot is a shallow copy of each list (pointer-width per segment), and
placements copy-on-write only the records they touch.

One memo is valid for exactly one scheduler activation (fixed ``now``, job
set, remaining ratios and capacity); it lives on the activation's
:class:`~repro.optable.view.ProblemView` and dies with it.  A problem can be
solved more than once, so each walk starts with :meth:`PackMemo.restart`.
"""

from __future__ import annotations

from itertools import starmap

from repro.core.segment import MappingSegment, Schedule

#: One immutable working segment: ``(start, end, mappings)`` with
#: ``mappings`` a tuple of :class:`~repro.core.segment.JobMapping` in
#: placement order.
SegmentRecord = tuple

#: One placement step: ``(rank, mapping, resources row, execution time,
#: remaining ratio, deadline + 1e-9)`` with ``mapping`` the step's
#: :class:`~repro.core.segment.JobMapping`; every field is a constant of the
#: activation once the job's configuration is chosen.
Step = tuple


class PackMemo:
    """Committed EDF trajectory of one Algorithm 1 walk.

    Parameters
    ----------
    dimension:
        Number of resource types, i.e. usage columns per snapshot.

    Attributes
    ----------
    steps:
        The committed :data:`Step` tuples, in EDF placement order.
    ranks:
        ``ranks[i]`` is the EDF rank of ``steps[i]`` within the activation's
        whole job set; sorted, so a trial job's position is one bisection.
    snapshots:
        ``snapshots[i]`` is the working state after the first ``i`` steps,
        or ``None`` until a probe needs it: the list of immutable
        :data:`SegmentRecord` tuples followed by one usage column per
        resource type, so ``snapshots[i][1 + k][s]`` is the number of
        type-``k`` cores busy in segment ``s``.  ``snapshots[0]`` (the empty
        timeline) and ``snapshots[-1]`` (the committed schedule) are always
        filled.
    order:
        Job name → ``(rank, job, OpTable)`` over the activation's job set,
        in rank order (lazy).
    packs / resumed_packs / resumed_steps / replayed_steps:
        Diagnostic counters: packer calls, calls that resumed a non-empty
        prefix, placements skipped by resuming vs. actually executed (the
        kernel's delta accounting reads them).
    """

    __slots__ = (
        "steps",
        "ranks",
        "snapshots",
        "order",
        "packs",
        "resumed_packs",
        "resumed_steps",
        "replayed_steps",
    )

    def __init__(self, dimension: int) -> None:
        self.steps: list[Step] = []
        self.ranks: list[int] = []
        self.snapshots: list[tuple | None] = [((),) * (1 + dimension)]
        self.order: dict | None = None
        self.packs = 0
        self.resumed_packs = 0
        self.resumed_steps = 0
        self.replayed_steps = 0

    def restart(self) -> None:
        """Start an empty committed trajectory (a new Algorithm 1 walk)."""
        self.steps.clear()
        self.ranks.clear()
        del self.snapshots[1:]

    def commit(self, position: int, step: Step, state: list) -> None:
        """Make a successful probe the committed trajectory.

        The trial ``step`` is inserted at ``position`` and ``state`` is the
        working state after the last step.  Snapshots up to ``position``
        stay valid; later ones are dropped, except the final state, which
        the memo keeps without copying (resumes copy it before mutating).
        """
        self.steps.insert(position, step)
        self.ranks.insert(position, step[0])
        tail = len(self.steps) - position
        self.snapshots[position + 1 :] = [None] * (tail - 1) + [tuple(state)]

    def schedule(self) -> Schedule:
        """The committed schedule, materialised from the final state."""
        return materialise(self.snapshots[-1][0])


def materialise(records) -> Schedule:
    """The :class:`Schedule` of a list of working segment records.

    The records are sorted and disjoint by construction, so this goes
    through the trusted constructors (no re-sort, no re-validation).
    """
    return Schedule._trusted(tuple(starmap(MappingSegment._trusted, records)))
