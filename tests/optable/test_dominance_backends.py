"""numpy dominance and the pure frontier agree on fronts of 32+ points.

:func:`~repro.optable.pareto_select` hands inputs of
:data:`~repro.optable._backend.NUMPY_MIN_POINTS` or more points to the numpy
dominance matrix when numpy is installed, so on such a host the pure
:class:`~repro.optable.ParetoFrontier` never sees them.  These tests run
both on the same inputs in one process: random vectors, near-tie chains
under a tolerance, and the exact rows the DVFS-swept DSE filters.
"""

import random

import pytest

from repro import _lazy
from repro.dse import paper_operating_points
from repro.optable import ParetoFrontier, pareto_select
from repro.optable import frontier as frontier_module
from repro.optable._backend import NUMPY_MIN_POINTS, dominance_survivors
from tests.reference.pareto import pareto_front_reference

pytestmark = pytest.mark.skipif(
    _lazy.numpy() is None, reason="the dominance matrix needs numpy"
)


def frontier_select(rows, tolerances):
    """The pure incremental frontier's answer, bypassing the numpy path."""
    frontier = ParetoFrontier(len(tolerances), tolerances)
    for index, row in enumerate(rows):
        frontier.add(index, row)
    return frontier.survivors()


def assert_backends_agree(rows, tolerances):
    assert len(rows) >= NUMPY_MIN_POINTS
    assert dominance_survivors(rows, tolerances) is not None  # numpy engaged
    assert pareto_select(rows, tolerances) == frontier_select(rows, tolerances)


@pytest.mark.parametrize("size", [32, 33, 100, 300])
@pytest.mark.parametrize("dimension", [2, 4])
def test_random_vectors(size, dimension):
    rng = random.Random(size * 10 + dimension)
    rows = [
        tuple(float(rng.randrange(0, 6)) + rng.choice((0.0, 0.5)) for _ in range(dimension))
        for _ in range(size)
    ]
    for tolerance in (0.0, 1e-12):
        tolerances = (tolerance,) * dimension
        assert_backends_agree(rows, tolerances)
        chosen = pareto_select(rows, tolerances)
        expected = pareto_front_reference(
            range(size), objectives=rows.__getitem__, tolerance=tolerance
        )
        assert chosen == expected


@pytest.mark.parametrize("size", [32, 150, 300])
def test_near_tie_chains_under_a_tolerance(size):
    # Steps of 0.6x the tolerance make dominance intransitive: a point can be
    # dominated only through a chain of points that are themselves dominated.
    tolerance = 1e-12
    step = 0.6 * tolerance
    rng = random.Random(size)
    rows = [
        (
            float(rng.randrange(0, 3)) + step * rng.randrange(0, 4),
            float(rng.randrange(0, 3)) + step * rng.randrange(0, 4),
            float(rng.randrange(0, 2)),
        )
        for _ in range(size)
    ]
    tolerances = (tolerance, tolerance, 0.0)
    assert_backends_agree(rows, tolerances)
    assert pareto_select(rows, tolerance) == pareto_front_reference(
        range(size), objectives=rows.__getitem__, tolerance=tolerance
    )


def test_dvfs_swept_explorer_rows(monkeypatch):
    recorded = []

    def recording(rows, tolerances):
        recorded.append((list(rows), tuple(tolerances)))
        return dominance_survivors(rows, tolerances)

    monkeypatch.setattr(frontier_module, "dominance_survivors", recording)
    paper_operating_points(sweep_opps=True)
    large = [entry for entry in recorded if len(entry[0]) >= NUMPY_MIN_POINTS]
    assert large, "the DVFS sweep produced no front of 32 or more points"
    monkeypatch.undo()
    for rows, tolerances in large:
        assert_backends_agree(rows, tolerances)


def test_small_inputs_stay_on_the_frontier():
    rows = [(float(i), float(-i)) for i in range(NUMPY_MIN_POINTS - 1)]
    assert dominance_survivors(rows, (0.0, 0.0)) is None
