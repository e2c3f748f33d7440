"""repro.cluster — the one fan-out for batch and sweep work.

A :class:`ShardCoordinator` splits a list of items into contiguous work
units, runs them in the calling thread, on coordinator threads or in a
process pool, with work stealing for skewed item costs and bounded retry of
dead shards, and merges results deterministically by absolute item index —
so fingerprints are independent of worker count, steal order and retry
history.  :class:`~repro.service.pool.SimulationService` batches and
:func:`~repro.dse.sweep.run_sweep` both run through it, naming their
executor from :data:`EXECUTORS`.  Combined with a shared :mod:`repro.store`
content-addressed store, shards warm each other across processes and runs.
"""

from repro.cluster.coordinator import (
    EXECUTORS,
    MODES,
    CoordinatorStats,
    ShardCoordinator,
    WorkUnit,
    executor_mode,
    split_units,
)

__all__ = [
    "EXECUTORS",
    "MODES",
    "CoordinatorStats",
    "ShardCoordinator",
    "WorkUnit",
    "executor_mode",
    "split_units",
]
