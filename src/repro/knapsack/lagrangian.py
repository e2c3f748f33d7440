"""Lagrangian relaxation of the MMKP with a subgradient method.

The resource constraints of the MMKP are dualised with non-negative
multipliers :math:`\\lambda_k`: the relaxed problem decomposes into one
independent choice per group — pick the item maximising
:math:`v - \\sum_k \\lambda_k w_k`.  The multipliers are updated with a
projected subgradient step on the capacity violations.  This follows the
method used by Wildermann et al. that underlies the paper's MMKP-LR baseline
(the paper limits the subgradient loop to 100 iterations).

Besides the dual bound and multipliers, the solver also reports a *primal*
feasible solution obtained by greedily repairing the relaxed selection.

Every single solve runs the pure-Python subgradient loop below.  Most of its
iterations reproduce the previous relaxed selection, so the loop derives the
load, value, subgradient and greedy repair once per distinct selection and
replays them; the dual value and the multiplier step still run every
iteration.  On hosts with numpy, :func:`solve_lagrangian_many` hands whole
batches to the :mod:`repro.knapsack._dense` backend (numpy is imported on
the first such batch), which runs the same method on stacked padded
ndarrays lock-step and reproduces the loop bit-identically — same
selections, multipliers, dual bounds and iteration counts.  The seed loop
the production loop was derived from is kept as the reference in
``tests/reference/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import SchedulingError
from repro.knapsack import _dense
from repro.knapsack.mmkp import MMKPProblem, MMKPSolution


@dataclass(frozen=True)
class LagrangianResult:
    """Outcome of the subgradient optimisation.

    Attributes
    ----------
    multipliers:
        The final Lagrange multipliers, one per knapsack dimension.
    dual_bound:
        Best (lowest) Lagrangian dual value found — an upper bound on the
        optimal primal value.
    solution:
        A feasible primal solution obtained by repairing the relaxed
        selection (may be infeasible if even repair fails).
    iterations:
        Number of subgradient iterations performed.
    """

    multipliers: tuple[float, ...]
    dual_bound: float
    solution: MMKPSolution
    iterations: int


def _relaxed_selection(problem: MMKPProblem, multipliers: list[float]) -> list[int]:
    """Per-group argmax of the Lagrangian-reduced value.

    Runs on the problem's dense columns: the subgradient loop evaluates this
    for every item on every iteration, so the flat tuples (no MMKPItem
    attribute lookups) carry most of the solver's hot path.
    """
    selection = []
    dimensions = len(multipliers)
    if dimensions == 1:
        # Unrolled penalty for the dominant 1-D/2-D instances: the same
        # additions in the same order as ``sum(...)``, minus the generator
        # machinery (a ±0.0 sign is the only representable difference and no
        # comparison observes it).
        (m0,) = multipliers
        for group_values, group_rows in zip(problem.dense_values, problem.dense_rows):
            best_index = 0
            best_reduced = float("-inf")
            for index in range(len(group_values)):
                reduced = group_values[index] - m0 * group_rows[index][0]
                if reduced > best_reduced:
                    best_reduced = reduced
                    best_index = index
            selection.append(best_index)
        return selection
    if dimensions == 2:
        m0, m1 = multipliers
        for group_values, group_rows in zip(problem.dense_values, problem.dense_rows):
            best_index = 0
            best_reduced = float("-inf")
            for index in range(len(group_values)):
                row = group_rows[index]
                reduced = group_values[index] - (m0 * row[0] + m1 * row[1])
                if reduced > best_reduced:
                    best_reduced = reduced
                    best_index = index
            selection.append(best_index)
        return selection
    for group_values, group_rows in zip(problem.dense_values, problem.dense_rows):
        best_index = 0
        best_reduced = float("-inf")
        for index in range(len(group_values)):
            reduced = group_values[index] - sum(
                multiplier * weight
                for multiplier, weight in zip(multipliers, group_rows[index])
            )
            if reduced > best_reduced:
                best_reduced = reduced
                best_index = index
        selection.append(best_index)
    return selection


def _repair(problem: MMKPProblem, selection: Sequence[int]) -> MMKPSolution:
    """Turn a (possibly infeasible) relaxed selection into a feasible one.

    Groups whose current item overflows the capacities are downgraded to the
    item with the smallest capacity-normalised weight until the selection
    fits; ties are broken in favour of higher value.
    """
    rows = problem.dense_rows
    current = list(selection)
    for _ in range(problem.num_groups * max(len(g) for g in rows)):
        if problem.is_feasible(current):
            return MMKPSolution(tuple(current), problem.value_of(current), True)
        # Find the dimension with the largest relative violation.
        used = problem.weights_of(current)
        violations = [
            (used[d] - problem.capacities[d]) / (problem.capacities[d] or 1.0)
            for d in range(problem.num_dimensions)
        ]
        worst_dim = max(range(problem.num_dimensions), key=lambda d: violations[d])
        # Downgrade the group contributing most to that dimension to a lighter item.
        best_group, best_item, best_saving = None, None, 0.0
        for group_index, group_rows in enumerate(rows):
            current_weight = group_rows[current[group_index]][worst_dim]
            for item_index in range(len(group_rows)):
                saving = current_weight - group_rows[item_index][worst_dim]
                if saving > best_saving:
                    best_saving = saving
                    best_group, best_item = group_index, item_index
        if best_group is None:
            break
        current[best_group] = best_item
    if problem.is_feasible(current):
        return MMKPSolution(tuple(current), problem.value_of(current), True)
    return MMKPSolution(None, float("-inf"), False)


def check_max_iterations(value, name: str = "max_iterations") -> int:
    """Return ``value`` if it is a usable iteration cap: an ``int`` >= 1.

    A cap below 1 would skip the loop and report an infinite dual bound with
    no primal; a float or string fails only mid-run.  ``bool`` is rejected
    too, although it is an ``int`` subclass.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchedulingError(f"{name} must be an int >= 1, got {value!r}")
    return value


def solve_lagrangian(
    problem: MMKPProblem,
    max_iterations: int = 100,
    initial_step: float = 1.0,
) -> LagrangianResult:
    """Run the subgradient method on the Lagrangian dual of ``problem``.

    Parameters
    ----------
    problem:
        The MMKP instance (values are maximised).
    max_iterations:
        Maximum number of subgradient iterations, an ``int`` >= 1 (the
        paper uses 100).
    initial_step:
        Initial step size; the step decays as ``initial_step / sqrt(k)``.

    Examples
    --------
    >>> from repro.knapsack import MMKPItem, MMKPProblem
    >>> problem = MMKPProblem([2.0], [[MMKPItem(5.0, (2.0,)), MMKPItem(2.0, (1.0,))],
    ...                                [MMKPItem(4.0, (2.0,)), MMKPItem(1.0, (1.0,))]])
    >>> result = solve_lagrangian(problem)
    >>> result.solution.feasible
    True
    """
    check_max_iterations(max_iterations)
    return _solve_lagrangian_pure(problem, max_iterations, initial_step)


def solve_lagrangian_many(
    problems: Sequence[MMKPProblem],
    max_iterations: int = 100,
    initial_step: float = 1.0,
) -> list[LagrangianResult]:
    """Solve many MMKP instances, batching same-shape relaxations.

    With the dense backend enabled, problems whose padded
    ``(groups, max_items, dims)`` shapes match are stacked into one 3-D
    tensor and their subgradient loops run lock-step — a sweep's admission
    solves amortise into a handful of array operations per iteration instead
    of one Python loop nest per problem.  Without it (or without numpy) each
    problem runs through the pure subgradient loop.  Either way the results
    are bit-identical to calling :func:`solve_lagrangian` per problem, in
    input order.
    """
    check_max_iterations(max_iterations)
    problems = list(problems)
    if not problems:
        return []
    if _dense.solver_numpy_enabled():
        raw = _dense.solve_many(problems, max_iterations, initial_step)
        return [_wrap_dense_result(entry) for entry in raw]
    return [
        _solve_lagrangian_pure(problem, max_iterations, initial_step)
        for problem in problems
    ]


def _wrap_dense_result(raw) -> LagrangianResult:
    """Build the public result types from the dense backend's plain tuples."""
    multipliers, dual_bound, (feasible, value, selection), iterations = raw
    solution = MMKPSolution(selection, value, feasible, iterations)
    return LagrangianResult(
        multipliers=multipliers,
        dual_bound=dual_bound,
        solution=solution,
        iterations=iterations,
    )


def _solve_lagrangian_pure(
    problem: MMKPProblem,
    max_iterations: int = 100,
    initial_step: float = 1.0,
) -> LagrangianResult:
    """The pure-Python subgradient loop behind every single solve.

    Each iteration takes the relaxed selection, the dual value and the
    multiplier step.  What depends only on the selection — load, value,
    subgradient with its convergence test, and the greedy repair — is
    derived once per distinct selection and kept in ``derived``: a replayed
    selection reproduces those floats exactly, and an equal primal value
    never passes the strict ``>`` best-primal update, so the result is
    bit-identical to re-deriving them every iteration.
    """
    capacities = problem.capacities
    multipliers = [0.0] * problem.num_dimensions
    best_dual = float("inf")
    best_multipliers = list(multipliers)
    best_primal = MMKPSolution(None, float("-inf"), False)
    derived: dict[tuple[int, ...], tuple] = {}
    iteration = 0

    for iteration in range(1, max_iterations + 1):
        selection = tuple(_relaxed_selection(problem, multipliers))
        entry = derived.get(selection)
        if entry is None:
            used = problem.weights_of(selection)
            # Subgradient: capacity violation per dimension.
            subgradient = [
                weight - capacity for weight, capacity in zip(used, capacities)
            ]
            entry = derived[selection] = (
                used,
                problem.value_of(selection),
                subgradient,
                all(abs(g) < 1e-12 for g in subgradient),
                _repair(problem, selection),
            )
        used, value, subgradient, converged, primal = entry
        relaxed_value = value + sum(
            multiplier * (capacity - weight)
            for multiplier, capacity, weight in zip(multipliers, capacities, used)
        )
        if relaxed_value < best_dual:
            best_dual = relaxed_value
            best_multipliers = list(multipliers)

        if primal.feasible and primal.value > best_primal.value:
            best_primal = primal

        if converged:
            break
        step = initial_step / (iteration**0.5)
        multipliers = [
            max(0.0, multiplier + step * gradient)
            for multiplier, gradient in zip(multipliers, subgradient)
        ]

    best_primal = MMKPSolution(
        best_primal.selection, best_primal.value, best_primal.feasible, iteration
    )
    return LagrangianResult(
        multipliers=tuple(best_multipliers),
        dual_bound=best_dual,
        solution=best_primal,
        iterations=iteration,
    )
