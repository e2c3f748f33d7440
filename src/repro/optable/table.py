"""The columnar operating-point table (:class:`OpTable`).

One :class:`OpTable` is the structure-of-arrays twin of a
:class:`~repro.core.config.ConfigTable`: parallel tuples for execution time
(makespan), energy, average power, DVFS frequency scale and per-cluster core
demand, plus the aggregates every decision layer keeps re-deriving on the
seed's list path — stable sort orders, first-minimum indices, per-cluster
maximum demand and the dominance-filtered (Pareto) index set.

Construction is canonical and *interned*: the packed column bytes are hashed
into a fingerprint and identical tables — the common case when many jobs of a
batch run the same application, or many sweep points share a platform — all
resolve to one shared ``OpTable`` instance.  Aggregates are therefore computed
once per distinct table per process, not once per job per scheduler
activation.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.optable.frontier import pareto_select
from repro.store.memo import Memo

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids an import cycle
    from repro.core.config import ConfigTable, OperatingPoint

#: Dominance slack on the time/energy dimensions, matching
#: ``OperatingPoint.dominates`` (resource dimensions compare exactly).
POINT_TOLERANCE = 1e-12

#: Process-wide intern pool: fingerprint → the canonical OpTable instance.
#: Bounded so a long-lived service sweeping ever-new tables cannot grow
#: without bound; eviction only costs a rebuild on the next request —
#: existing references stay valid.  Never store-backed: every caller holds
#: the points a table is built from.
_INTERN = Memo("optable", 4096)


class OpTable:
    """Columnar, interned view of one operating-point table.

    Do not call the constructor directly — go through :func:`as_optable` (or
    ``ConfigTable.optable``), which canonicalises and interns.  All columns
    are plain tuples: index ``j`` across every column describes configuration
    ``j``, exactly as in the row-oriented table.

    Examples
    --------
    >>> from repro.core.config import OperatingPoint
    >>> from repro.platforms.resources import ResourceVector
    >>> table = as_optable([
    ...     OperatingPoint(ResourceVector([1, 0]), 10.0, 2.0),
    ...     OperatingPoint(ResourceVector([0, 1]), 5.0, 7.5),
    ... ])
    >>> table.times
    (10.0, 5.0)
    >>> table.min_energy
    2.0
    >>> as_optable(list(table.points)) is table
    True
    """

    __slots__ = (
        "points",
        "times",
        "energies",
        "scales",
        "resources",
        "dimension",
        "fingerprint",
        "_powers",
        "_demand_columns",
        "_order_by_energy",
        "_order_by_makespan",
        "_argmin_time",
        "_argmin_energy",
        "_min_time",
        "_min_energy",
        "_max_demand",
        "_pareto_index",
    )

    def __init__(self, points: Sequence["OperatingPoint"], fingerprint: str):
        self.points = tuple(points)
        self.times = tuple(p.execution_time for p in self.points)
        self.energies = tuple(p.energy for p in self.points)
        self.scales = tuple(p.frequency_scale for p in self.points)
        self.resources = tuple(tuple(p.resources) for p in self.points)
        self.dimension = len(self.resources[0]) if self.resources else 0
        self.fingerprint = fingerprint
        # Derived columns and aggregates are filled lazily: many tables only
        # ever serve the hot columns above, and laziness keeps interning O(n).
        self._powers = None
        self._demand_columns = None
        self._order_by_energy = None
        self._order_by_makespan = None
        self._argmin_time = None
        self._argmin_energy = None
        self._min_time = None
        self._min_energy = None
        self._max_demand = None
        self._pareto_index = None

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index: int) -> "OperatingPoint":
        return self.points[index]

    def __repr__(self) -> str:
        return (
            f"OpTable({len(self.points)} points, dim={self.dimension}, "
            f"fp={self.fingerprint[:12]})"
        )

    # ------------------------------------------------------------------ #
    # Aggregates (computed once per interned table)
    # ------------------------------------------------------------------ #
    @property
    def powers(self) -> tuple[float, ...]:
        """Average power (energy / execution time) per configuration."""
        if self._powers is None:
            self._powers = tuple(
                e / t for e, t in zip(self.energies, self.times)
            )
        return self._powers

    @property
    def demand_columns(self) -> tuple[tuple[int, ...], ...]:
        """Per-cluster demand columns: ``demand_columns[k][j]`` is the core
        demand of configuration ``j`` on cluster ``k`` (the transpose of
        :attr:`resources`)."""
        if self._demand_columns is None:
            self._demand_columns = tuple(
                tuple(row[k] for row in self.resources)
                for k in range(self.dimension)
            )
        return self._demand_columns

    @property
    def order_by_energy(self) -> tuple[int, ...]:
        """Indices sorted ascending by energy; ties keep index order.

        Because ``remaining_energy(r) = energy * r`` is monotone for any
        positive remaining ratio, this is also the remaining-energy order
        every scheduler needs.
        """
        if self._order_by_energy is None:
            energies = self.energies
            self._order_by_energy = tuple(
                sorted(range(len(energies)), key=energies.__getitem__)
            )
        return self._order_by_energy

    @property
    def order_by_makespan(self) -> tuple[int, ...]:
        """Indices stably sorted by ``(execution_time, energy)``."""
        if self._order_by_makespan is None:
            keys = list(zip(self.times, self.energies))
            self._order_by_makespan = tuple(
                sorted(range(len(keys)), key=keys.__getitem__)
            )
        return self._order_by_makespan

    @property
    def argmin_time(self) -> int:
        """Index of the first point attaining the minimum execution time."""
        if self._argmin_time is None:
            self._argmin_time = self.times.index(min(self.times))
        return self._argmin_time

    @property
    def argmin_energy(self) -> int:
        """Index of the first point attaining the minimum energy."""
        if self._argmin_energy is None:
            self._argmin_energy = self.energies.index(min(self.energies))
        return self._argmin_energy

    @property
    def min_time(self) -> float:
        """The fastest full-run execution time in the table."""
        if self._min_time is None:
            self._min_time = self.times[self.argmin_time]
        return self._min_time

    @property
    def min_energy(self) -> float:
        """The lowest full-run energy in the table."""
        if self._min_energy is None:
            self._min_energy = self.energies[self.argmin_energy]
        return self._min_energy

    @property
    def max_demand(self) -> tuple[int, ...]:
        """Per-cluster maximum core demand over all points."""
        if self._max_demand is None:
            self._max_demand = tuple(max(col) for col in self.demand_columns)
        return self._max_demand

    @property
    def pareto_index(self) -> tuple[int, ...]:
        """Indices of the non-dominated points (reference dominance).

        Resource dimensions compare exactly, time/energy with the
        :data:`POINT_TOLERANCE` slack — the same relation as
        ``OperatingPoint.dominates``.  A table built from a Pareto-filtered
        ``ConfigTable`` has every index here.
        """
        if self._pareto_index is None:
            vectors = [
                row + (t, e)
                for row, t, e in zip(self.resources, self.times, self.energies)
            ]
            tolerances = (0.0,) * self.dimension + (POINT_TOLERANCE, POINT_TOLERANCE)
            self._pareto_index = tuple(pareto_select(vectors, tolerances))
        return self._pareto_index

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def fitting_indices(self, capacity: Sequence[int]) -> tuple[int, ...]:
        """Indices of points whose demand fits ``capacity`` componentwise."""
        capacity = tuple(capacity)
        return tuple(
            i
            for i, row in enumerate(self.resources)
            if all(r <= c for r, c in zip(row, capacity))
        )


# ---------------------------------------------------------------------- #
# Canonical construction + interning
# ---------------------------------------------------------------------- #
def fingerprint_points(points: Sequence["OperatingPoint"]) -> str:
    """Content hash of a point list: the OpTable interning key.

    The fingerprint covers dimension, point count and every column value
    (resources, execution time, energy, frequency scale) in order — it is a
    pure *content* key, deliberately blind to application names, so tables of
    different applications with identical numbers share one instance.
    """
    hasher = hashlib.blake2b(digest_size=16)
    dimension = len(points[0].resources) if points else 0
    hasher.update(struct.pack("<II", dimension, len(points)))
    for point in points:
        hasher.update(struct.pack(f"<{dimension}d", *(float(c) for c in point.resources)))
        hasher.update(
            struct.pack("<3d", point.execution_time, point.energy, point.frequency_scale)
        )
    return hasher.hexdigest()


def as_optable(source) -> OpTable:
    """Canonicalise ``source`` into the interned :class:`OpTable`.

    ``source`` may be an :class:`OpTable` (returned as-is), a
    :class:`~repro.core.config.ConfigTable` (adapter for the row-oriented
    boundary type) or any iterable of
    :class:`~repro.core.config.OperatingPoint`.
    """
    if isinstance(source, OpTable):
        return source
    points = getattr(source, "points", None)
    if points is None:
        points = tuple(source)
    if not points:
        raise ValueError("an OpTable needs at least one operating point")
    key = fingerprint_points(points)
    table = _INTERN.get(key)
    if table is None:
        table = OpTable(points, key)
        _INTERN.put(key, table)
    return table


def intern_info() -> dict[str, int]:
    """Intern-pool statistics: distinct tables, hits and misses."""
    info = _INTERN.info()
    return {"tables": info["entries"], "hits": info["hits"], "misses": info["misses"]}


def clear_intern_pool() -> None:
    """Drop every interned table (test isolation / long-lived services)."""
    _INTERN.clear()
