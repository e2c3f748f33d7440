"""Incremental Pareto frontier.

The seed's :func:`repro.dse.pareto.pareto_front` compared every candidate
against every other candidate — an O(n²) scan repeated from scratch on every
DSE sweep.  :class:`ParetoFrontier` maintains the non-dominated set
*incrementally*: a new point is checked against the current frontier only
(typically far smaller than the full input), dominated members are evicted on
insertion, and exact duplicates collapse to their first occurrence.

Semantics contract
------------------
The library-wide dominance semantics is the *reference* one: a point survives
iff **no other input point** dominates it.  With ``tolerance == 0`` dominance
is a strict partial order (transitive), so the incremental frontier equals
the reference answer for any insertion order.  With a non-zero tolerance the
relation loses transitivity in pathological near-tie chains, so
:meth:`ParetoFrontier.survivors` finishes with a verification pass that
re-checks each frontier member against every seen vector — O(n·f) with
``f = |frontier|`` instead of the seed's O(n²).  :func:`pareto_select` hands
inputs of 32 or more points to the numpy dominance matrix of
:mod:`repro.optable._backend` when numpy is installed.  Either way the
result is exactly the reference set, in first-occurrence input order.
"""

from __future__ import annotations

from typing import Generic, Sequence, TypeVar

from repro.optable._backend import dominance_survivors

T = TypeVar("T")


def dominates(
    a: Sequence[float], b: Sequence[float], tolerances: Sequence[float]
) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (minimisation, per-dim slack)."""
    no_worse = True
    strictly = False
    for x, y, tol in zip(a, b, tolerances):
        if x > y + tol:
            no_worse = False
            break
        if x < y - tol:
            strictly = True
    return no_worse and strictly


class ParetoFrontier(Generic[T]):
    """Order-preserving incremental Pareto frontier (all objectives minimised).

    Parameters
    ----------
    dimension:
        Length of the objective vectors.
    tolerance:
        Either one scalar slack applied to every dimension or a per-dimension
        sequence (the operating-point filter uses exact comparison on the
        integer resource dimensions and a small slack on time/energy).

    Examples
    --------
    >>> frontier = ParetoFrontier(2)
    >>> for point in [(1.0, 5.0), (2.0, 2.0), (3.0, 3.0)]:
    ...     _ = frontier.add(point, point)
    >>> frontier.survivors()
    [(1.0, 5.0), (2.0, 2.0)]
    """

    def __init__(self, dimension: int, tolerance: float | Sequence[float] = 0.0):
        if dimension <= 0:
            raise ValueError("objective dimension must be positive")
        if isinstance(tolerance, (int, float)):
            self._tolerances = (float(tolerance),) * dimension
        else:
            self._tolerances = tuple(float(t) for t in tolerance)
            if len(self._tolerances) != dimension:
                raise ValueError(
                    f"{len(self._tolerances)} tolerances for {dimension} dimensions"
                )
        self._dimension = dimension
        #: Frontier entries in first-occurrence input order.
        self._items: list[T] = []
        self._vectors: list[tuple[float, ...]] = []
        #: Every vector ever seen (for the exact verification pass).
        self._seen: list[tuple[float, ...]] = []
        self._exact = all(t == 0.0 for t in self._tolerances)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def dimension(self) -> int:
        """Length of the objective vectors."""
        return self._dimension

    def add(self, item: T, vector: Sequence[float]) -> bool:
        """Offer one candidate; returns ``True`` iff it (currently) survives.

        Dominated candidates are rejected, newly dominated frontier members
        are evicted, and a vector exactly equal to a member collapses into
        the existing first occurrence.
        """
        vector = tuple(float(v) for v in vector)
        if len(vector) != self._dimension:
            raise ValueError(
                f"objective vector of length {len(vector)}, expected {self._dimension}"
            )
        self._seen.append(vector)
        tolerances = self._tolerances
        for existing in self._vectors:
            if existing == vector or dominates(existing, vector, tolerances):
                return False
        keep_items: list[T] = []
        keep_vectors: list[tuple[float, ...]] = []
        for other_item, other_vector in zip(self._items, self._vectors):
            if not dominates(vector, other_vector, tolerances):
                keep_items.append(other_item)
                keep_vectors.append(other_vector)
        keep_items.append(item)
        keep_vectors.append(vector)
        self._items = keep_items
        self._vectors = keep_vectors
        return True

    def extend(self, items: Sequence[T], vectors: Sequence[Sequence[float]]) -> None:
        """Offer many candidates at once (pairs are zipped)."""
        for item, vector in zip(items, vectors):
            self.add(item, vector)

    def survivors(self) -> list[T]:
        """The exact reference Pareto set, in first-occurrence input order.

        With exact tolerances the incremental frontier already *is* the
        reference set.  With slack, each member is re-verified against every
        seen vector so near-tie intransitivity chains cannot leak a dominated
        point through (O(n·f), still far below the seed's O(n²)).
        """
        if self._exact:
            return list(self._items)
        tolerances = self._tolerances
        verified: list[T] = []
        for item, vector in zip(self._items, self._vectors):
            if not any(
                other != vector and dominates(other, vector, tolerances)
                for other in self._seen
            ):
                verified.append(item)
        return verified

    def vectors(self) -> list[tuple[float, ...]]:
        """Objective vectors of the current (unverified) frontier members."""
        return list(self._vectors)


def pareto_select(
    vectors: Sequence[Sequence[float]],
    tolerance: float | Sequence[float] = 0.0,
) -> list[int]:
    """Indices of the reference Pareto set of ``vectors``.

    Exact duplicates collapse to the first occurrence; the surviving indices
    keep their input order.  Large inputs go through the vectorised backend
    (bit-identical comparisons); the rest through the incremental frontier.
    """
    if not vectors:
        return []
    dimension = len(vectors[0])
    if isinstance(tolerance, (int, float)):
        tolerances = (float(tolerance),) * dimension
    else:
        tolerances = tuple(float(t) for t in tolerance)
    rows = [tuple(float(v) for v in vector) for vector in vectors]
    for row in rows:
        if len(row) != dimension:
            raise ValueError(
                f"objective vectors have mixed lengths: "
                f"{sorted({len(r) for r in rows})}"
            )

    survivors = dominance_survivors(rows, tolerances)
    if survivors is not None:
        # Vectorised reference semantics; apply first-occurrence dedup.
        chosen: list[int] = []
        kept: set[tuple[float, ...]] = set()
        for index, keep in enumerate(survivors):
            if keep and rows[index] not in kept:
                kept.add(rows[index])
                chosen.append(index)
        return chosen

    frontier: ParetoFrontier[int] = ParetoFrontier(dimension, tolerances)
    for index, row in enumerate(rows):
        frontier.add(index, row)
    return frontier.survivors()
