"""The seed's pairwise Pareto filter: the oracle of :mod:`repro.dse.pareto`.

``repro.dse.pareto.pareto_front`` runs on the incremental
:class:`~repro.optable.frontier.ParetoFrontier` engine; this O(n²) scan is
the seed implementation it must match item for item.  Only tests and
benchmarks import it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.dse.pareto import DEFAULT_TOLERANCE

T = TypeVar("T")


def _dominates(a: Sequence[float], b: Sequence[float], tolerance: float) -> bool:
    """True iff objective vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    no_worse = all(x <= y + tolerance for x, y in zip(a, b))
    strictly_better = any(x < y - tolerance for x, y in zip(a, b))
    return no_worse and strictly_better


def pareto_front_reference(
    items: Iterable[T],
    objectives: Callable[[T], Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[T]:
    """The seed's O(n²) pairwise implementation, kept as the test oracle."""
    candidates = list(items)
    vectors = [tuple(objectives(item)) for item in candidates]
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise ValueError(f"objective vectors have mixed lengths: {lengths}")

    survivors: list[T] = []
    survivor_vectors: list[tuple[float, ...]] = []
    for item, vector in zip(candidates, vectors):
        if any(_dominates(other, vector, tolerance) for other in vectors if other is not vector):
            continue
        if vector in survivor_vectors:
            continue
        survivors.append(item)
        survivor_vectors.append(vector)
    return survivors
