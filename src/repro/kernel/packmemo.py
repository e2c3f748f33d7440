"""Prefix-resumable EDF packing state (the delta half of Algorithm 2).

Algorithm 1 probes configurations by re-running the EDF packer on the full
trial assignment — every probe re-places *every* already-committed job from
an empty timeline, even though consecutive probes differ in exactly one
``(job, configuration)`` decision.  Because the packer places jobs in a
deterministic order (non-decreasing deadline, then name) and each placement
depends only on the segment state left by the placements before it, the
packed timeline after the first ``p`` placements is a pure function of the
first ``p`` ``(job, configuration)`` steps.

A :class:`PackMemo` records that trajectory: the step sequence of the last
pack plus a snapshot of the working segment state *after* every step.  The
next pack replays only the suffix after the longest shared step prefix —
unaffected jobs keep their packed mapping segments verbatim, the first
changed decision marks the dirty suffix, and the re-placed suffix is spliced
onto the shared prefix.  Since the resumed computation starts from the exact
state the seed computation would have reached and replays the identical
float operations, the packed schedule is bit-identical to a from-scratch
pack; the equivalence suite asserts it.

The working state is a list of *immutable* segment records ``(start, end,
mappings)`` plus one flat int column of busy cores per resource type.  A
snapshot is a shallow copy of each list (pointer-width per segment) and
placements copy-on-write only the records they touch; a resume copies the
snapshot's columns rather than re-deriving them from the records.

One memo is valid for exactly one scheduler activation (fixed ``now``, job
set, remaining ratios and capacity); it lives on the activation's
:class:`~repro.optable.view.ProblemView` and dies with it.
"""

from __future__ import annotations

#: One immutable working segment: ``(start, end, mappings)`` with
#: ``mappings`` a tuple of :class:`~repro.core.segment.JobMapping` in
#: placement order.
SegmentRecord = tuple


class PackMemo:
    """Trajectory of the most recent EDF pack over one activation.

    Parameters
    ----------
    dimension:
        Number of resource types, i.e. usage columns per snapshot.

    Attributes
    ----------
    steps:
        The ``(job name, configuration index)`` placement steps of the last
        pack, in EDF placement order.
    snapshots:
        ``snapshots[i]`` is the working state after the first ``i`` steps
        (``snapshots[0]`` is the empty timeline): the list of immutable
        :data:`SegmentRecord` tuples followed by one usage column per
        resource type, so ``snapshots[i][1 + k][s]`` is the number of
        type-``k`` cores busy in segment ``s``.  Keeping one per step costs
        pointer-array and int-array copies, not a deep copy.
    resumed_steps / replayed_steps:
        Diagnostic counters: placements skipped by prefix reuse vs. actually
        executed (the kernel's delta-hit accounting reads them).
    """

    __slots__ = (
        "steps",
        "snapshots",
        "placements",
        "edf_jobs",
        "packs",
        "resumed_packs",
        "resumed_steps",
        "replayed_steps",
    )

    def __init__(self, dimension: int) -> None:
        self.steps: list[tuple[str, int]] = []
        self.snapshots: list[tuple] = [((),) * (1 + dimension)]
        #: name → ``(config, resources row, execution time, JobMapping)`` of
        #: the job's most recently placed configuration (per-activation
        #: constants; re-derived only when the probed configuration changes).
        self.placements: dict[str, tuple] = {}
        #: The activation's full job set in EDF placement order (lazy).
        self.edf_jobs = None
        self.packs = 0
        #: Packs that resumed a non-empty shared prefix (vs. from scratch).
        self.resumed_packs = 0
        self.resumed_steps = 0
        self.replayed_steps = 0

    def resume(self, shared: int) -> list[list]:
        """Truncate the trajectory to ``shared`` steps and return a working copy.

        The copy is ``[records, column_0, column_1, ...]``, fresh lists the
        caller may mutate freely (the records are immutable and shared with
        the snapshots).  The packer extends the trajectory by appending to
        :attr:`steps` and :attr:`snapshots` in lock-step, one entry per
        placement that passed its deadline check — the post-state of a
        *failed* placement is never recorded, because it is not a valid
        resume point (a later pack sharing the failing step must replay, and
        re-fail, it).
        """
        del self.steps[shared:]
        del self.snapshots[shared + 1 :]
        return list(map(list, self.snapshots[shared]))
