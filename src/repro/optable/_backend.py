"""The numpy kernel of the Pareto frontier.

:func:`dominance_survivors` evaluates the reference dominance of a whole
input as one boolean matrix.  It is the one optable path that keeps numpy:
on the DVFS-swept DSE fronts (roughly 100–300 points per variant) it runs
6–10× faster than the pure incremental frontier.  Below
:data:`NUMPY_MIN_POINTS` points the array set-up costs more than it saves —
which covers every per-application table the runtime manager selects over —
so those inputs never import numpy.  The matrix is quadratic in the input,
so above a few hundred points the frontier wins again; no caller builds
fronts that large.  The comparisons are the frontier's own, element for
element, so a host without numpy produces bit-identical fronts.
"""

from __future__ import annotations

from repro import _lazy

#: Inputs of this many points or more go through the numpy matrix.
NUMPY_MIN_POINTS = 32


def dominance_survivors(
    vectors: list[tuple[float, ...]], tolerances: tuple[float, ...]
) -> list[bool] | None:
    """Reference Pareto dominance over the *whole* input, vectorised.

    ``survivors[i]`` is ``True`` iff no other vector dominates ``vectors[i]``
    (minimisation, per-dimension numerical slack ``tolerances``).  This is the
    exact pairwise semantics of the seed's ``pareto_front``, evaluated as a
    boolean matrix.  Returns ``None`` when the input is below
    :data:`NUMPY_MIN_POINTS` or numpy is missing (callers then use the
    incremental frontier).
    """
    if len(vectors) < NUMPY_MIN_POINTS:
        return None
    np = _lazy.numpy()
    if np is None:
        return None
    a = np.asarray(vectors, dtype=float)
    tol = np.asarray(tolerances, dtype=float)
    # no_worse[i, j]: vector i is <= vector j + tol in every dimension.
    no_worse = (a[:, None, :] <= a[None, :, :] + tol).all(axis=2)
    strictly = (a[:, None, :] < a[None, :, :] - tol).any(axis=2)
    dominates = no_worse & strictly
    np.fill_diagonal(dominates, False)
    dominated = dominates.any(axis=0)
    return [not bool(d) for d in dominated]
