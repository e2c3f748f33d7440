"""Tests for the greedy, Lagrangian and exact MMKP solvers."""

import random

import pytest

from repro.exceptions import SchedulingError
from repro.knapsack import (
    MMKPItem,
    MMKPProblem,
    solve_exact,
    solve_greedy,
    solve_lagrangian,
    solve_lagrangian_many,
)

#: Iteration caps the solvers must reject: below 1, fractional, a string,
#: and ``True`` (an ``int`` subclass).
BAD_CAPS = [0, -3, 2.5, "10", True]


def tight_problem():
    """Two groups, one shared scalar resource, optimum value 6 at (0, 1)."""
    return MMKPProblem(
        [3.0],
        [
            [MMKPItem(5.0, (3.0,)), MMKPItem(1.0, (1.0,))],
            [MMKPItem(4.0, (2.0,)), MMKPItem(2.0, (1.0,))],
        ],
    )


def random_problem(seed: int, groups: int = 4, items: int = 4, dims: int = 2):
    rng = random.Random(seed)
    capacity = [items * 1.5] * dims
    built = []
    for _ in range(groups):
        built.append(
            [
                MMKPItem(
                    value=rng.uniform(1.0, 10.0),
                    weights=tuple(rng.uniform(0.1, 2.0) for _ in range(dims)),
                )
                for _ in range(items)
            ]
        )
    return MMKPProblem(capacity, built)


class TestExactSolver:
    def test_finds_the_known_optimum(self):
        # Best feasible selection within capacity 3 is (group0 -> item1,
        # group1 -> item0): value 1 + 4 = 5 with weight 1 + 2 = 3.
        solution = solve_exact(tight_problem())
        assert solution.feasible
        assert solution.value == pytest.approx(5.0)
        assert solution.selection == (1, 0)

    def test_reports_infeasible_instances(self):
        problem = MMKPProblem([1.0], [[MMKPItem(1.0, (2.0,))]])
        solution = solve_exact(problem)
        assert not solution.feasible
        assert solution.selection is None

    def test_brute_force_agreement_on_random_instances(self):
        import itertools

        for seed in range(5):
            problem = random_problem(seed, groups=3, items=3)
            best = float("-inf")
            for selection in itertools.product(*(range(3) for _ in range(3))):
                if problem.is_feasible(selection):
                    best = max(best, problem.value_of(selection))
            solution = solve_exact(problem)
            if best == float("-inf"):
                assert not solution.feasible
            else:
                assert solution.value == pytest.approx(best)


class TestGreedySolver:
    def test_solution_is_feasible(self):
        solution = solve_greedy(tight_problem())
        assert solution.feasible
        assert tight_problem().is_feasible(solution.selection)

    def test_infeasible_instance_detected(self):
        problem = MMKPProblem([1.0], [[MMKPItem(1.0, (2.0,))]])
        assert not solve_greedy(problem)

    def test_reaches_optimum_when_upgrades_are_free(self):
        # Higher-value items use no extra resources -> greedy must take them.
        problem = MMKPProblem(
            [2.0],
            [
                [MMKPItem(1.0, (1.0,)), MMKPItem(3.0, (1.0,))],
                [MMKPItem(2.0, (1.0,)), MMKPItem(5.0, (1.0,))],
            ],
        )
        assert solve_greedy(problem).value == pytest.approx(8.0)

    def test_never_exceeds_exact_optimum(self):
        for seed in range(8):
            problem = random_problem(seed)
            greedy = solve_greedy(problem)
            exact = solve_exact(problem)
            if greedy.feasible and exact.feasible:
                assert greedy.value <= exact.value + 1e-9


class TestLagrangianSolver:
    def test_dual_bound_is_above_primal(self):
        problem = tight_problem()
        result = solve_lagrangian(problem)
        assert result.solution.feasible
        assert result.dual_bound >= result.solution.value - 1e-9

    def test_dual_bound_is_above_exact_optimum(self):
        for seed in range(8):
            problem = random_problem(seed)
            exact = solve_exact(problem)
            result = solve_lagrangian(problem)
            if exact.feasible:
                assert result.dual_bound >= exact.value - 1e-6

    def test_multipliers_are_non_negative(self):
        result = solve_lagrangian(tight_problem())
        assert all(m >= 0 for m in result.multipliers)

    def test_iteration_limit_respected(self):
        result = solve_lagrangian(tight_problem(), max_iterations=5)
        assert result.iterations <= 5

    @pytest.mark.parametrize("cap", BAD_CAPS)
    def test_unusable_iteration_cap_is_rejected(self, cap):
        with pytest.raises(SchedulingError, match="max_iterations"):
            solve_lagrangian(tight_problem(), max_iterations=cap)
        with pytest.raises(SchedulingError, match="max_iterations"):
            solve_lagrangian_many([tight_problem()], max_iterations=cap)

    @pytest.mark.parametrize("cap", [1, 100])
    def test_integer_iteration_caps_are_accepted(self, cap):
        (batched,) = solve_lagrangian_many([tight_problem()], max_iterations=cap)
        single = solve_lagrangian(tight_problem(), max_iterations=cap)
        assert 1 <= single.iterations <= cap
        assert batched == single

    def test_unconstrained_problem_converges_immediately(self):
        # Capacities so large the relaxed selection is already feasible.
        problem = MMKPProblem(
            [100.0],
            [[MMKPItem(5.0, (1.0,)), MMKPItem(1.0, (1.0,))]],
        )
        result = solve_lagrangian(problem)
        assert result.solution.value == pytest.approx(5.0)
