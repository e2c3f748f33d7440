"""Scheduler-activation caching.

Large batch sweeps activate the schedulers on *structurally identical*
problems over and over: the same platform capacity, the same configuration
tables and the same multiset of job residuals and relative deadlines — only
the absolute wall-clock time and the request names differ.  Re-solving the
MMKP for every one of those activations is pure waste.

:func:`ActivationCache` builds the ``activation``
:class:`~repro.store.memo.Memo`: a bounded LRU map from a canonical
:class:`~repro.core.problem.SchedulingProblem` signature to a compact record
of the canonical scheduling result.  :class:`CachingScheduler` wraps any
:class:`~repro.schedulers.base.Scheduler` with it:

1. every incoming problem is *canonicalised* — time is re-anchored at 0,
   jobs are sorted into stable slots ``j0..jn`` — and the signature
   (capacity, the tables' ``OpTable`` fingerprints, sorted job
   residuals/relative deadlines, namespaced by the scheduler's registry
   name) is looked up;
2. on a miss the wrapped scheduler solves the canonical problem and its
   result is stored as a builtins-only record (see :func:`_record`), so a
   store row stays a few hundred bytes;
3. hit or miss, the record is re-hydrated against the *original* problem
   (times shifted back, slots re-bound to the real jobs) through the
   validating :class:`~repro.core.segment.MappingSegment` and
   :class:`~repro.core.segment.Schedule` constructors.

Because both paths re-hydrate the same record, the returned schedule is a
pure function of the problem — independent of cache state, hit order, worker
count or sharing — which is what makes ``SimulationService`` batches
bit-reproducible regardless of parallelism.  The flip side is that a cached
run can differ from an *uncached* run in two ways, while remaining
bit-identical from run to run and never differing in validity (returned
schedules satisfy the same constraints (2b)–(2e), which the test suite
checks):

* the wrapped heuristic sees jobs in canonical order, so it may break ties
  differently than on the raw problem;
* times are anchored at 0 and shifted back by ``now``, and
  ``(x - now) + now`` need not equal ``x``, so a completion time can
  differ in its last bit (15.352748990552687 against 15.352748990552685).

Only an uncached batch (``use_cache=False``) is bit-comparable with
:meth:`Session.run <repro.api.session.Session.run>`.

The cache is thread-safe; one instance may be shared by all worker threads of
a batch so activations repeated *across* traces hit as well.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.store.memo import Memo


def _canonical_order(problem: SchedulingProblem) -> list[Job]:
    """The problem's *real* jobs sorted into canonical slot order.

    This is the one place the canonical sort key lives; the signature, the
    slot naming and the record's slot indices all derive from this ordering.
    """
    now = problem.now
    return sorted(
        problem.jobs,
        key=lambda job: (
            job.application,
            job.remaining_ratio,
            job.deadline - now,
            job.name,
        ),
    )


def _slot_jobs(ordered: list[Job], now: float) -> list[Job]:
    """Canonical slot jobs ``j0..jn`` for an already-ordered job list."""
    return [
        Job(
            name=f"j{index}",
            application=job.application,
            arrival=0.0,
            deadline=job.deadline - now,
            remaining_ratio=job.remaining_ratio,
        )
        for index, job in enumerate(ordered)
    ]


def canonical_jobs(problem: SchedulingProblem) -> list[Job]:
    """The problem's jobs in canonical order, re-anchored at time 0.

    Jobs are sorted by (application, remaining ratio, relative deadline,
    name) and renamed to stable slots ``j0..jn``; arrival times collapse to 0
    because only the remaining ratio matters to the schedulers.
    """
    return _slot_jobs(_canonical_order(problem), problem.now)


def problem_signature(
    problem: SchedulingProblem,
    namespace: str = "",
    ordered: list[Job] | None = None,
) -> tuple[Hashable, ...]:
    """The canonical cache key of one scheduler activation.

    The key is built from the platform capacity, the sorted job residuals and
    *relative* deadlines and the content fingerprints of the tables the jobs
    actually use, plus a ``namespace`` (normally the scheduler's registry
    name) so different algorithms and configurations never share entries.
    A table enters as the fingerprint its interned
    :class:`~repro.optable.table.OpTable` computed once, so the key does not
    grow with the tables.  Absolute times and request names are deliberately
    absent: activations that only differ by a time shift or by naming
    collide — which is exactly the point.

    ``ordered`` (the :func:`_canonical_order` of the problem) may be passed
    to avoid re-sorting on the activation hot path.
    """
    if ordered is None:
        ordered = _canonical_order(problem)
    now = problem.now
    tables = problem.tables
    jobs_key = tuple(
        (job.application, job.remaining_ratio, job.deadline - now)
        for job in ordered
    )
    table_keys = tuple(
        tables[application].optable.fingerprint
        for application in sorted({job.application for job in ordered})
    )
    return (namespace, tuple(problem.capacity), jobs_key, table_keys)


def ActivationCache(maxsize: int = 4096, store=None) -> Memo:
    """The ``activation`` :class:`~repro.store.memo.Memo` of canonical records."""
    return Memo("activation", maxsize, store)


def _record(canonical: SchedulingResult, slot_jobs: list[Job]) -> tuple:
    """The builtins-only memo value of a canonical result.

    ``(segments, assignment, energy, solver_search_time, statistics)``:
    ``segments`` is ``None`` for a rejection, else one ``(start, end,
    ((slot, config_index), ...))`` per segment at canonical times;
    ``assignment`` is ``((slot, config_index), ...)``.  A slot is the job's
    index in the canonical order.
    """
    slots = {job.name: index for index, job in enumerate(slot_jobs)}
    segments = None
    if canonical.schedule is not None:
        segments = tuple(
            (
                segment.start,
                segment.end,
                tuple((slots[m.job_name], m.config_index) for m in segment),
            )
            for segment in canonical.schedule
        )
    assignment = tuple(
        (slots[name], config) for name, config in canonical.assignment.items()
    )
    return (
        segments,
        assignment,
        canonical.energy,
        canonical.search_time,
        dict(canonical.statistics),
    )


class CachingScheduler(Scheduler):
    """Wrap a scheduler with an activation :class:`~repro.store.memo.Memo`.

    The wrapper is transparent to the runtime manager: it is a
    :class:`~repro.schedulers.base.Scheduler` whose ``name`` equals the
    wrapped scheduler's, so logs, reports and benchmarks group results
    identically with and without caching.

    ``namespace`` separates the cache entries of differently configured
    schedulers; it defaults to the wrapped scheduler's ``name``.  Pass the
    registry name the scheduler was built from — two registered
    configurations of one class share a ``name`` but must not share results.

    Examples
    --------
    >>> from repro.schedulers import MMKPMDFScheduler
    >>> from repro.workload.motivational import motivational_problem
    >>> cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
    >>> first = cached.schedule(motivational_problem("S1"))
    >>> second = cached.schedule(motivational_problem("S1"))
    >>> cached.cache.hits, cached.cache.misses
    (1, 1)
    >>> round(second.energy, 2)
    12.95
    """

    def __init__(
        self,
        scheduler: Scheduler,
        cache: Memo | None = None,
        namespace: str | None = None,
    ):
        self._inner = scheduler
        self.cache = cache if cache is not None else ActivationCache()
        self.name = scheduler.name
        self._namespace = scheduler.name if namespace is None else namespace

    @property
    def inner(self) -> Scheduler:
        """The wrapped scheduler."""
        return self._inner

    def begin_run(self, kernel) -> None:
        """Forward the incremental-kernel run hook to the wrapped scheduler."""
        self._inner.begin_run(kernel)

    def end_run(self, kernel) -> None:
        self._inner.end_run(kernel)

    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        ordered = _canonical_order(problem)
        key = problem_signature(problem, namespace=self._namespace, ordered=ordered)
        record = self.cache.get(key)
        hit = record is not None
        if record is None:
            slot_jobs = _slot_jobs(ordered, problem.now)
            canonical_problem = SchedulingProblem(
                problem.capacity, problem.tables, slot_jobs, now=0.0
            )
            record = _record(self._inner.schedule(canonical_problem), slot_jobs)
            self.cache.put(key, record)
        return self._rehydrate(record, problem.now, ordered, hit)

    @staticmethod
    def _rehydrate(
        record: tuple, now: float, ordered: list[Job], hit: bool
    ) -> SchedulingResult:
        """Translate a canonical record back to the original problem.

        Slots map back to the real jobs in canonical order and all times
        shift by the activation time.  Applied on hits *and* misses, so the
        output never depends on which path produced it.
        """
        segments, assignment, energy, solver_search_time, statistics = record
        schedule = None
        if segments is not None:
            schedule = Schedule(
                [
                    MappingSegment(
                        start + now,
                        end + now,
                        [
                            JobMapping(job=ordered[slot], config_index=config)
                            for slot, config in mappings
                        ],
                    )
                    for start, end, mappings in segments
                ]
            )
        statistics = dict(statistics)
        statistics["cache_hit"] = 1.0 if hit else 0.0
        # What the underlying solver originally spent on this activation.
        # The Scheduler.schedule() wrapper re-times _solve, so the reported
        # search_time is this activation's *actual* cost — microseconds on a
        # hit — which is what the runtime manager's overhead accounting
        # should see; the canonical solve cost stays available here.
        statistics["solver_search_time"] = solver_search_time
        return SchedulingResult(
            schedule=schedule,
            assignment={ordered[slot].name: config for slot, config in assignment},
            energy=energy,
            statistics=statistics,
        )

    def __repr__(self) -> str:
        return f"CachingScheduler({self._inner!r}, entries={len(self.cache)})"
