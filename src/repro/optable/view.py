"""Problem-scoped slicing of operating-point tables (:class:`ProblemView`).

The seed schedulers re-derived per-activation structures from the raw point
lists on every call: MMKP-LR re-wrapped points into ``MMKPItem`` groups per
segment, MMKP-MDF re-filtered feasibility per round, EX-MEM re-scanned for
minima per state.  A :class:`ProblemView` computes each capacity-dependent
slice once per (table, capacity) pair and shares everything that is
ratio-independent; the Lagrangian solve itself is memoised process-wide,
keyed by table fingerprints — two activations anywhere in a batch that pose
the same relaxation reuse one solve.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

from repro.obs import tracer as obs
from repro.optable.table import OpTable, as_optable

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.problem import SchedulingProblem


class SolveCache:
    """A small, thread-safe LRU memo for deterministic solver calls.

    Keys embed table fingerprints, capacities and exact remaining ratios, so
    a hit is guaranteed to describe the *same* mathematical problem and the
    cached result is bit-identical to a fresh solve (all solvers in this
    library are deterministic).

    Caches are owned by their consumer (e.g. one per
    :class:`~repro.schedulers.lr.MMKPLRScheduler` instance) rather than being
    process-wide: a runtime-manager run reuses its scheduler across arrivals
    and still benefits, while independent schedulers — and independent tests
    measuring solver wall time — never contaminate each other.  All
    operations take an internal lock, so one cache may also be shared across
    service worker threads deliberately.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError("cache capacity must be positive")
        self._max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """Return the cached value for ``key`` or ``None``."""
        # obs.count stays outside the lock: it reads a ContextVar and may
        # touch tracer state, and nothing under the lock depends on it —
        # keeping the critical section to pure dict work means a slow or
        # re-entrant tracer can never serialise cache readers.
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                value = None
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        obs.count("cache.solve.miss" if value is None else "cache.solve.hit")
        return value

    def put(self, key, value) -> None:
        """Insert ``key → value``, evicting the least-recently-used entry."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict[str, int]:
        """Cache statistics (entries, hits, misses)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class SharedSlices:
    """Capacity-dependent table slices shared across scheduler activations.

    A :class:`ProblemView` normally derives its slices per activation; the
    incremental kernel keeps one ``SharedSlices`` per runtime-manager run
    (and, via :class:`~repro.kernel.caches.KernelCaches`, per batch) so the
    (table, capacity)-pure dictionaries — interned tables, capacity-fitting
    index sets, MMKP weight rows — survive from one activation to the next.
    The slices are filled lazily by whichever view touches them first; the
    values are immutable, so sharing never changes what any activation sees.
    """

    __slots__ = ("optables", "fitting", "weight_rows")

    def __init__(self) -> None:
        self.optables: dict[str, OpTable] = {}
        self.fitting: dict[str, tuple[int, ...]] = {}
        self.weight_rows: dict[str, tuple[tuple[float, ...], ...]] = {}


class ProblemView:
    """Columnar view of one scheduler activation.

    Built lazily by :meth:`repro.core.problem.SchedulingProblem.view`; holds
    the capacity as a plain tuple, resolves each application's interned
    :class:`OpTable` on first use and caches the capacity-dependent slices
    (which points fit the whole platform, their MMKP weight rows) that the
    seed path rebuilt per segment.
    """

    def __init__(self, problem: "SchedulingProblem", shared: "SharedSlices | None" = None):
        self._problem = problem
        self.capacity = tuple(problem.capacity)
        self.now = problem.now
        self._tables = problem.tables
        if shared is not None:
            # Cross-activation reuse (the incremental kernel): the slices
            # depend only on (table content, capacity), both fixed for the
            # lifetime of one runtime manager, so consecutive activations
            # share one backing store instead of re-deriving them.
            self._optables = shared.optables
            self._fitting = shared.fitting
            self._weight_rows = shared.weight_rows
        else:
            self._optables: dict[str, OpTable] = {}
            #: app → indices of points whose demand fits the *full* capacity.
            self._fitting: dict[str, tuple[int, ...]] = {}
            #: app → per-fitting-point float weight rows for MMKP groups.
            self._weight_rows: dict[str, tuple[tuple[float, ...], ...]] = {}
        #: Per-activation prefix-resumable EDF pack trajectory (lazy).
        self._pack_memo = None

    def pack_memo(self):
        """The activation's :class:`~repro.kernel.packmemo.PackMemo` (lazy).

        One memo per view — i.e. per scheduler activation — because a pack
        trajectory is only a valid resume point while ``now``, the job set,
        the remaining ratios and the capacity are all unchanged.
        """
        if self._pack_memo is None:
            from repro.kernel.packmemo import PackMemo

            self._pack_memo = PackMemo(len(self.capacity))
        return self._pack_memo

    # ------------------------------------------------------------------ #
    # Table access
    # ------------------------------------------------------------------ #
    def optable(self, application: str) -> OpTable:
        """The interned columnar table of ``application``."""
        table = self._optables.get(application)
        if table is None:
            try:
                source = self._tables[application]
            except KeyError:
                from repro.exceptions import SchedulingError

                raise SchedulingError(
                    f"no configuration table for application {application!r}"
                ) from None
            # Prefer the table's cached twin over re-fingerprinting.
            table = getattr(source, "optable", None)
            if table is None:
                table = as_optable(source)
            self._optables[application] = table
        return table

    def fitting_indices(self, application: str) -> tuple[int, ...]:
        """Indices of the application's points that fit the platform capacity."""
        cached = self._fitting.get(application)
        if cached is None:
            cached = self.optable(application).fitting_indices(self.capacity)
            self._fitting[application] = cached
        return cached

    def mmkp_weight_rows(self, application: str) -> tuple[tuple[float, ...], ...]:
        """Float weight rows (one per *fitting* point) for MMKP groups.

        Matches the seed's ``tuple(float(c) for c in point.resources)`` per
        feasible point, computed once per (table, capacity) instead of per
        segment.
        """
        cached = self._weight_rows.get(application)
        if cached is None:
            table = self.optable(application)
            cached = tuple(
                tuple(float(c) for c in table.resources[index])
                for index in self.fitting_indices(application)
            )
            self._weight_rows[application] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Cache keys
    # ------------------------------------------------------------------ #
    def lagrangian_key(self, entries, max_iterations: int):
        """Memo key for one MMKP-LR segment relaxation.

        ``entries`` is the ordered ``(application, remaining_ratio)`` list of
        the segment's active jobs.  Fingerprints pin the table *content*;
        ratios are kept as exact floats, so equal keys imply an identical
        MMKP instance.
        """
        return (
            self.capacity,
            max_iterations,
            tuple(
                (self.optable(application).fingerprint, remaining_ratio)
                for application, remaining_ratio in entries
            ),
        )

    def signature(self) -> tuple:
        """Content signature of the whole activation (tables, jobs, time).

        Useful as a memo key for whole-activation caches layered above the
        schedulers: equal signatures imply an identical
        :class:`SchedulingProblem` up to job naming.
        """
        jobs = tuple(
            (
                self.optable(job.application).fingerprint,
                job.remaining_ratio,
                job.deadline,
            )
            for job in self._problem.jobs
        )
        return (self.capacity, self.now, jobs)
