"""Scheduler-activation caching.

Large batch sweeps activate the schedulers on *structurally identical*
problems over and over: the same platform capacity, the same configuration
tables and the same multiset of job residuals and relative deadlines — only
the absolute wall-clock time and the request names differ.  Re-solving the
MMKP for every one of those activations is pure waste.

:func:`ActivationCache` builds the ``activation``
:class:`~repro.store.memo.Memo`: a bounded LRU map from a canonical
:class:`~repro.core.problem.SchedulingProblem` signature to the canonical
scheduling result.  :class:`CachingScheduler` wraps any
:class:`~repro.schedulers.base.Scheduler` with it:

1. every incoming problem is *canonicalised* — time is re-anchored at 0,
   jobs are sorted and renamed to stable slots ``j0..jn`` — and the signature
   (capacity, table fingerprints, sorted job residuals/relative deadlines) is
   looked up;
2. on a miss the wrapped scheduler solves the canonical problem and the
   canonical result is stored;
3. hit or miss, the canonical result is re-hydrated against the *original*
   problem (times shifted back, canonical slots re-bound to the real jobs).

Because the canonical transformation is applied on **both** paths, the
returned schedule is a pure function of the problem — independent of cache
state, hit order, worker count or sharing — which is what makes
``SimulationService`` batches bit-reproducible regardless of parallelism.
The flip side: the wrapped heuristic sees jobs in canonical order, so it may
break ties differently than on the raw problem.  A cached run can therefore
differ from an *uncached* run in tie-break decisions (never in validity —
returned schedules satisfy the same constraints (2b)–(2e), which the test
suite checks), while remaining bit-identical from run to run.

The cache is thread-safe; one instance may be shared by all worker threads of
a batch so activations repeated *across* traces hit as well.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.config import ConfigTable
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.store.memo import Memo


def table_fingerprint(table: ConfigTable) -> tuple:
    """A content-based identity of a configuration table.

    Two tables with the same operating points (in the same order) produce the
    same fingerprint, regardless of object identity — deserialised tables hit
    cache entries populated from freshly built ones.
    """
    return tuple(
        (tuple(point.resources), point.execution_time, point.energy)
        for point in table
    )


def _canonical_order(problem: SchedulingProblem) -> list[Job]:
    """The problem's *real* jobs sorted into canonical slot order.

    This is the one place the canonical sort key lives; the signature, the
    slot naming and the hit-path rebinding all derive from this ordering.
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
    actually use, plus a ``namespace`` (normally the scheduler name) so
    different algorithms never share entries.  Absolute times and request
    names are deliberately absent: activations that only differ by a time
    shift or by naming collide — which is exactly the point.

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
        table_fingerprint(tables[application])
        for application in sorted({job.application for job in ordered})
    )
    return (namespace, tuple(problem.capacity), jobs_key, table_keys)


def ActivationCache(maxsize: int = 4096, store=None) -> Memo:
    """The ``activation`` :class:`~repro.store.memo.Memo` of canonical results."""
    return Memo("activation", maxsize, store)


class CachingScheduler(Scheduler):
    """Wrap a scheduler with an activation :class:`~repro.store.memo.Memo`.

    The wrapper is transparent to the runtime manager: it is a
    :class:`~repro.schedulers.base.Scheduler` whose ``name`` equals the
    wrapped scheduler's, so logs, reports and benchmarks group results
    identically with and without caching.

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

    def __init__(self, scheduler: Scheduler, cache: Memo | None = None):
        self._inner = scheduler
        self.cache = cache if cache is not None else ActivationCache()
        self.name = scheduler.name

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
        key = problem_signature(problem, namespace=self._inner.name, ordered=ordered)
        canonical = self.cache.get(key)
        hit = canonical is not None
        if canonical is None:
            canonical_problem = SchedulingProblem(
                problem.capacity,
                problem.tables,
                _slot_jobs(ordered, problem.now),
                now=0.0,
            )
            canonical = self._inner.schedule(canonical_problem)
            self.cache.put(key, canonical)
        result = self._rehydrate(canonical, problem, ordered)
        statistics = dict(result.statistics)
        statistics["cache_hit"] = 1.0 if hit else 0.0
        # What the underlying solver originally spent on this activation.
        # The Scheduler.schedule() wrapper re-times _solve, so the reported
        # search_time is this activation's *actual* cost — microseconds on a
        # hit — which is what the runtime manager's overhead accounting
        # should see; the canonical solve cost stays available here.
        statistics["solver_search_time"] = canonical.search_time
        return SchedulingResult(
            schedule=result.schedule,
            assignment=result.assignment,
            energy=result.energy,
            statistics=statistics,
        )

    def _rehydrate(
        self,
        canonical: SchedulingResult,
        problem: SchedulingProblem,
        ordered: list[Job],
    ) -> SchedulingResult:
        """Translate a canonical result back to the original problem.

        Canonical slot names map back to the real jobs in canonical order and
        all times shift by the activation time.  Applied on hits *and*
        misses, so the output never depends on which path produced it.
        """
        if canonical.schedule is None:
            return canonical
        now = problem.now
        slot_jobs = {f"j{index}": job for index, job in enumerate(ordered)}
        segments = []
        for segment in canonical.schedule:
            mappings = [
                JobMapping(job=slot_jobs[mapping.job_name], config_index=mapping.config_index)
                for mapping in segment
            ]
            segments.append(
                MappingSegment(segment.start + now, segment.end + now, mappings)
            )
        assignment = {
            slot_jobs[slot].name: config
            for slot, config in canonical.assignment.items()
        }
        return SchedulingResult(
            schedule=Schedule(segments),
            assignment=assignment,
            energy=canonical.energy,
            statistics=canonical.statistics,
        )

    def __repr__(self) -> str:
        return f"CachingScheduler({self._inner!r}, entries={len(self.cache)})"
