"""Scheduler-activation caching.

Batch sweeps re-simulate the same traces over and over: repeats of one
seed, the governor replays of ``repro-rm energy --compare``, warm reruns
against a store.  Each of them poses its scheduler the same activations
again, and re-solving the MMKP for every one of those is pure waste.

:func:`ActivationCache` builds the ``activation``
:class:`~repro.store.memo.Memo`: a bounded LRU map from the signature of a
:class:`~repro.core.problem.SchedulingProblem` to a compact record of its
scheduling result.  :class:`CachingScheduler` wraps any
:class:`~repro.schedulers.base.Scheduler` with it:

1. the signature of the problem *as given* (see :func:`problem_signature`)
   is looked up;
2. on a miss the wrapped scheduler solves the problem itself and its result
   is stored as a builtins-only record (see :func:`_record`), so a store row
   stays a few hundred bytes;
3. hit or miss, the record is re-hydrated against the problem through the
   validating :class:`~repro.core.segment.MappingSegment` and
   :class:`~repro.core.segment.Schedule` constructors.

The key holds every job field, the activation time, the capacity and the
tables' content, so a hit returns exactly what the plain scheduler returns
on that problem: the same schedule, assignment and energy, float for float.
A cached batch therefore equals :meth:`Session.run
<repro.api.session.Session.run>` bit for bit, whatever the memo holds and
whatever the hit order, worker count or sharing.

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


def problem_signature(
    problem: SchedulingProblem, namespace: str = ""
) -> tuple[Hashable, ...]:
    """The cache key of one scheduler activation, the problem as given.

    The key is built from the platform capacity, the activation time, each
    job's ``(name, application, arrival, deadline, remaining_ratio)`` in
    ``problem.jobs`` order and the content fingerprints of the tables the
    jobs use, plus a ``namespace`` (normally the scheduler's registry name)
    so different algorithms and configurations never share entries.  A
    table enters as the fingerprint its interned
    :class:`~repro.optable.table.OpTable` computed once, so the key does not
    grow with the tables.
    """
    jobs = problem.jobs
    tables = problem.tables
    jobs_key = tuple(
        (job.name, job.application, job.arrival, job.deadline, job.remaining_ratio)
        for job in jobs
    )
    table_keys = tuple(
        tables[application].optable.fingerprint
        for application in sorted({job.application for job in jobs})
    )
    return (namespace, tuple(problem.capacity), problem.now, jobs_key, table_keys)


def ActivationCache(maxsize: int = 4096, store=None) -> Memo:
    """The ``activation`` :class:`~repro.store.memo.Memo` of result records."""
    return Memo("activation", maxsize, store)


def _record(result: SchedulingResult, jobs: tuple[Job, ...]) -> tuple:
    """The builtins-only memo value of a scheduling result.

    ``(segments, assignment, energy, solver_search_time, statistics)``:
    ``segments`` is ``None`` for a rejection, else one ``(start, end,
    ((slot, config_index), ...))`` per segment; ``assignment`` is ``((slot,
    config_index), ...)``.  A slot is the job's position in ``problem.jobs``.
    """
    slots = {job.name: index for index, job in enumerate(jobs)}
    segments = None
    if result.schedule is not None:
        segments = tuple(
            (
                segment.start,
                segment.end,
                tuple((slots[m.job_name], m.config_index) for m in segment),
            )
            for segment in result.schedule
        )
    assignment = tuple(
        (slots[name], config) for name, config in result.assignment.items()
    )
    return (
        segments,
        assignment,
        result.energy,
        result.search_time,
        dict(result.statistics),
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
        key = problem_signature(problem, namespace=self._namespace)
        record = self.cache.get(key)
        hit = record is not None
        if record is None:
            record = _record(self._inner.schedule(problem), problem.jobs)
            self.cache.put(key, record)
        return self._rehydrate(record, problem.jobs, hit)

    @staticmethod
    def _rehydrate(
        record: tuple, jobs: tuple[Job, ...], hit: bool
    ) -> SchedulingResult:
        """Translate a record back into a result over the problem's jobs.

        Slots map back to the jobs at those positions.  Applied on hits
        *and* misses, so the output never depends on which path produced it.
        """
        segments, assignment, energy, solver_search_time, statistics = record
        schedule = None
        if segments is not None:
            schedule = Schedule(
                [
                    MappingSegment(
                        start,
                        end,
                        [
                            JobMapping(job=jobs[slot], config_index=config)
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
        # should see; the original solve cost stays available here.
        statistics["solver_search_time"] = solver_search_time
        return SchedulingResult(
            schedule=schedule,
            assignment={jobs[slot].name: config for slot, config in assignment},
            energy=energy,
            statistics=statistics,
        )

    def __repr__(self) -> str:
        return f"CachingScheduler({self._inner!r}, entries={len(self.cache)})"
