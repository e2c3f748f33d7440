"""``repro.optable`` — the columnar operating-point kernel.

The paper's runtime manager is repeated selection over per-application
operating-point tables; this package is the shared, precomputed
representation of those tables that every decision layer (schedulers,
knapsack solvers, DSE, energy accounting, runtime manager) consumes instead
of re-materialising ad-hoc point lists per activation:

* :class:`OpTable` — parallel columns (makespan, energy, power, frequency
  scale, per-cluster demand) with canonical construction, content
  fingerprints and process-wide interning, plus precomputed aggregates
  (stable sort orders, first-minimum indices, per-cluster max demand, the
  dominance-filtered index set).
* :class:`ParetoFrontier` / :func:`pareto_select` — the incremental Pareto
  engine replacing the seed's O(n²) pairwise scan (numpy-vectorised for
  large inputs, auto-detected at import).
* :class:`ProblemView` — per-activation slices (capacity-feasible indices,
  MMKP weight rows) shared across segments — and :class:`SolveCache`, the
  thread-safe LRU memo (keyed by table fingerprints) each MMKP-LR scheduler
  instance owns for its Lagrangian segment relaxations.

Boundary rule: every public API keeps accepting ``list[OperatingPoint]`` /
``ConfigTable``; :func:`as_optable` (and the lazy ``ConfigTable.optable``
property) is the only conversion point.
"""

from repro.optable._backend import HAVE_NUMPY
from repro.optable.adapters import (
    iter_point_rows,
    optables_for,
    segment_busy_counts,
    to_config_table,
)
from repro.optable.frontier import ParetoFrontier, pareto_select
from repro.optable.table import (
    OpTable,
    as_optable,
    bind_intern_store,
    clear_intern_pool,
    fingerprint_points,
    intern_info,
)
from repro.optable.view import ProblemView, SolveCache

__all__ = [
    "HAVE_NUMPY",
    "OpTable",
    "ParetoFrontier",
    "ProblemView",
    "SolveCache",
    "as_optable",
    "bind_intern_store",
    "clear_intern_pool",
    "fingerprint_points",
    "intern_info",
    "iter_point_rows",
    "optables_for",
    "pareto_select",
    "segment_busy_counts",
    "to_config_table",
]
