"""Generic Pareto-front filtering.

The DSE minimises several objectives at once (per-type core usage, execution
time, energy).  :func:`pareto_front` works on arbitrary objective vectors so
it can also be reused for other multi-objective sweeps (e.g. the ablation
benchmarks).

Since the ``repro.optable`` refactor the filtering runs on the incremental
:class:`~repro.optable.frontier.ParetoFrontier` engine (a numpy dominance
matrix for inputs of 32 or more points) instead of the seed's O(n²)
pairwise scan; the *semantics* are
unchanged — an item survives iff no other input item dominates it.  The seed
scan lives on as the test oracle in ``tests/reference/pareto.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.optable.frontier import pareto_select

T = TypeVar("T")

#: Default numerical slack of the dominance comparison.  Exposed (instead of
#: the old buried literal) so callers that need a different tolerance — or
#: want to report the one in force — reference one named constant.
DEFAULT_TOLERANCE = 1e-12


def pareto_front(
    items: Iterable[T],
    objectives: Callable[[T], Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
    tie_key: Callable[[T], object] | None = None,
) -> list[T]:
    """Return the non-dominated subset of ``items`` (all objectives minimised).

    Exact duplicates (identical objective vectors) are collapsed to a single
    representative, preserving the input order of the survivors.

    Parameters
    ----------
    items:
        The candidate solutions.
    objectives:
        Function mapping an item to its objective vector.
    tolerance:
        Numerical slack used in the dominance comparison
        (:data:`DEFAULT_TOLERANCE` unless overridden).
    tie_key:
        Deterministic tie-breaker for equal-cost points.  Without one, the
        *first* of several items with identical objective vectors survives —
        which depends on the input order.  With a ``tie_key``, the item with
        the smallest key among each equal-cost group survives (occupying the
        group's first position), so shuffling the input can no longer change
        the selected representative.

    Examples
    --------
    >>> pareto_front([(1, 5), (2, 2), (3, 3)], objectives=lambda p: p)
    [(1, 5), (2, 2)]
    """
    candidates = list(items)
    vectors = [tuple(objectives(item)) for item in candidates]
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise ValueError(f"objective vectors have mixed lengths: {lengths}")

    selected = pareto_select(vectors, tolerance)
    if tie_key is None:
        return [candidates[index] for index in selected]

    # Deterministic tie-breaking: swap each surviving representative for the
    # smallest-keyed member of its equal-cost group (survival of the *group*
    # is order-independent already; only the representative was not).
    result: list[T] = []
    for index in selected:
        vector = vectors[index]
        group = [item for item, v in zip(candidates, vectors) if v == vector]
        result.append(min(group, key=tie_key))
    return result
