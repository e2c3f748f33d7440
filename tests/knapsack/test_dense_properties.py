"""Property-based bit-identity of the dense solver against the pure solver.

Hypothesis drives random MMKP instances — 1-D to 3-D, ragged group sizes,
negative values (admission relaxations maximise *negated* energy), zero
capacities, and instances where every selection is infeasible — through the
stacked dense backend and the pure subgradient loop.  The agreement is
exact: multipliers, dual bound, iteration count, selection indices and
primal value are compared via ``repr`` so even a ``-0.0``/``0.0`` flip or a
last-ulp drift fails loudly.

``solve_lagrangian_many`` takes the stacked dense path for *every* problem
when numpy is enabled (no size threshold), so tiny instances still exercise
the backend; single solves always take the pure loop.  The dense
single-problem path is also checked against the seed loop of the reference
oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knapsack import (
    HAVE_NUMPY,
    MMKPItem,
    MMKPProblem,
    solve_lagrangian,
    solve_lagrangian_many,
    solver_numpy_override,
)
from tests.reference.oracle import reference_solve_lagrangian

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="dense backend needs numpy"
)


def result_fingerprint(result) -> tuple:
    """Every field the two paths must agree on, floats via ``repr``."""
    return (
        tuple(repr(m) for m in result.multipliers),
        repr(result.dual_bound),
        result.iterations,
        result.solution.selection,
        repr(result.solution.value),
        result.solution.feasible,
        result.solution.iterations,
    )


@st.composite
def mmkp_instances(draw, min_dimensions=1, max_dimensions=3, zero_capacity=False):
    """Random ragged MMKP instances (1-3 dimensions, 1-5 groups, 1-6 items)."""
    num_dimensions = draw(
        st.integers(min_value=min_dimensions, max_value=max_dimensions)
    )
    num_groups = draw(st.integers(min_value=1, max_value=5))
    if zero_capacity:
        capacities = [0.0 for _ in range(num_dimensions)]
    else:
        capacities = [
            draw(st.integers(min_value=0, max_value=8)) * 1.0
            for _ in range(num_dimensions)
        ]
    groups = []
    for _ in range(num_groups):
        num_items = draw(st.integers(min_value=1, max_value=6))
        groups.append(
            [
                MMKPItem(
                    # Negative values too: LR admission maximises -energy.
                    value=draw(st.integers(min_value=-20, max_value=20)) * 1.0,
                    weights=tuple(
                        draw(st.integers(min_value=0, max_value=5)) * 1.0
                        for _ in range(num_dimensions)
                    ),
                )
                for _ in range(num_items)
            ]
        )
    return MMKPProblem(capacities, groups)


@st.composite
def infeasible_instances(draw):
    """Instances where *no* selection fits: zero capacity, positive weights."""
    problem = draw(mmkp_instances(zero_capacity=True))
    groups = [
        [
            MMKPItem(item.value, tuple(w + 1.0 for w in item.weights))
            for item in group
        ]
        for group in problem.groups
    ]
    return MMKPProblem(problem.capacities, groups)


@settings(max_examples=150, deadline=None)
@given(problem=mmkp_instances())
def test_batched_single_matches_pure(problem):
    """One problem through the stacked path vs the pure reference."""
    with solver_numpy_override(True):
        (dense,) = solve_lagrangian_many([problem])
    with solver_numpy_override(False):
        pure = solve_lagrangian(problem)
    assert result_fingerprint(dense) == result_fingerprint(pure)


@settings(max_examples=60, deadline=None)
@given(problems=st.lists(mmkp_instances(), min_size=1, max_size=6))
def test_batched_many_matches_pure(problems):
    """Mixed ragged shapes: bucketed stacking must preserve input order."""
    with solver_numpy_override(True):
        dense = solve_lagrangian_many(problems)
    with solver_numpy_override(False):
        pure = [solve_lagrangian(problem) for problem in problems]
    assert [result_fingerprint(r) for r in dense] == [
        result_fingerprint(r) for r in pure
    ]


@settings(max_examples=100, deadline=None)
@given(problem=mmkp_instances())
def test_single_solve_threshold_path_matches_pure(problem):
    """The dense single-problem path against the oracle's seed loop."""
    with solver_numpy_override(True):
        (dense,) = solve_lagrangian_many([problem])
    seed = reference_solve_lagrangian(problem)
    assert result_fingerprint(dense) == result_fingerprint(seed)


@settings(max_examples=100, deadline=None)
@given(problem=infeasible_instances())
def test_all_infeasible_repairs_agree(problem):
    """The repair loop must fail identically when nothing can ever fit."""
    with solver_numpy_override(True):
        (dense,) = solve_lagrangian_many([problem])
    with solver_numpy_override(False):
        pure = solve_lagrangian(problem)
    assert not dense.solution.feasible
    assert dense.solution.selection is None
    assert result_fingerprint(dense) == result_fingerprint(pure)
