"""The production Lagrangian solvers against the seed subgradient loop.

``solve_lagrangian`` derives load, value, subgradient and greedy repair once
per distinct relaxed selection and replays them on the iterations that
reproduce a selection; the reference oracle's
:func:`~tests.reference.oracle.reference_solve_lagrangian` is the seed loop
that re-derives them every iteration.  Both ``solve_lagrangian_many``
backends must agree with it as well.  Hypothesis draws ragged 1-D to 4-D
instances, instances of single-item groups, instances whose capacities no
selection fits, and iteration caps from 1 to 100; every float is compared
via ``repr``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knapsack import (
    MMKPItem,
    MMKPProblem,
    solve_lagrangian,
    solve_lagrangian_many,
    solver_numpy_override,
)
from tests.reference.oracle import reference_solve_lagrangian

_numbers = st.one_of(
    st.integers(min_value=-20, max_value=20).map(float),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
_weights = st.one_of(
    st.integers(min_value=0, max_value=5).map(float),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


@st.composite
def lagrangian_instances(draw):
    """Ragged, single-item-group and all-infeasible MMKP instances."""
    dimensions = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["ragged", "single-item", "infeasible"]))
    max_items = 1 if kind == "single-item" else 6
    groups = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        items = []
        for _ in range(draw(st.integers(min_value=1, max_value=max_items))):
            weights = [draw(_weights) for _ in range(dimensions)]
            if kind == "infeasible":
                # Every item needs at least 1 in every dimension, so no
                # selection fits the capacities below.
                weights = [w + 1.0 for w in weights]
            items.append(MMKPItem(draw(_numbers), tuple(weights)))
        groups.append(items)
    if kind == "infeasible":
        capacities = [
            draw(st.floats(min_value=0.0, max_value=0.99)) for _ in range(dimensions)
        ]
    else:
        capacities = [
            draw(st.integers(min_value=0, max_value=10)) * 1.0
            for _ in range(dimensions)
        ]
    return MMKPProblem(capacities, groups)


def fingerprint(result) -> tuple:
    return (
        tuple(repr(m) for m in result.multipliers),
        repr(result.dual_bound),
        result.iterations,
        result.solution.selection,
        repr(result.solution.value),
        result.solution.feasible,
        result.solution.iterations,
    )


# A subnormal capacity makes the repair's violation ratio overflow to inf;
# Python's float division and numpy's agree on that inf, numpy also warns.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    problem=lagrangian_instances(),
    max_iterations=st.integers(min_value=1, max_value=100),
)
def test_solvers_equal_the_seed_loop(problem, max_iterations):
    expected = fingerprint(reference_solve_lagrangian(problem, max_iterations))
    assert fingerprint(solve_lagrangian(problem, max_iterations)) == expected
    for numpy_mode in (True, False):
        with solver_numpy_override(numpy_mode):
            (batched,) = solve_lagrangian_many([problem], max_iterations)
        assert fingerprint(batched) == expected, f"numpy={numpy_mode}"
