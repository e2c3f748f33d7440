"""Multiple-choice multi-dimensional knapsack (MMKP) problems and solvers.

The runtime-manager formulation of the paper is an MMKP: every job is a
*group*, every operating point of the job is an *item* with a value (negated
energy) and a weight vector (processing time per resource type), and the
knapsack capacities are the available processing times per resource type.
This package provides the problem container plus three solvers:

* :func:`solve_greedy` — the classic single-aggregate-resource greedy of
  Ykman-Couvreur et al. (used by several prior RM works).
* :func:`solve_lagrangian` — subgradient-based Lagrangian relaxation in the
  style of Wildermann et al.; the multipliers it produces also drive the
  MMKP-LR scheduler baseline.
* :func:`solve_exact` — exact dynamic-programming/branch-and-bound solver for
  small instances, used to validate the heuristics in the test-suite.
"""

from repro.knapsack.mmkp import MMKPItem, MMKPProblem, MMKPSolution
from repro.knapsack.greedy import solve_greedy
from repro.knapsack.lagrangian import (
    LagrangianResult,
    solve_lagrangian,
    solve_lagrangian_many,
)
from repro.knapsack.exact import solve_exact
from repro.knapsack._dense import solver_numpy_enabled, solver_numpy_override
from repro._lazy import HAVE_NUMPY

__all__ = [
    "MMKPItem",
    "MMKPProblem",
    "MMKPSolution",
    "solve_greedy",
    "solve_lagrangian",
    "solve_lagrangian_many",
    "LagrangianResult",
    "solve_exact",
    "HAVE_NUMPY",
    "solver_numpy_enabled",
    "solver_numpy_override",
]
