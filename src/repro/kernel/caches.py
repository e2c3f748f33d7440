"""Content-keyed warm-start caches shared across runs, jobs and sweeps.

A single :class:`KernelCaches` instance may back any number of runtime
managers — one manager's consecutive runs, every job of a
:class:`~repro.service.pool.SimulationService` batch, or every sweep point
of a DSE exploration.  Safety across heterogeneous jobs comes from content
keying: every sub-cache is keyed by operating-point-table fingerprints (and
the platform capacity where it matters), so two jobs share an entry only
when they pose the *same* mathematical sub-problem — which is exactly when
reuse is bit-identical.

Each sub-cache is a bounded, thread-safe :class:`~repro.store.memo.Memo`,
so one instance may serve the service's thread executor.  All of them stay
in process: a warm rerun against a
:class:`~repro.store.content.ContentStore` reads every activation back from
the service's activation memo before these are asked (the DSE sweep binds
its own schedulers' solve memos).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.optable.view import SharedSlices
from repro.store.memo import Memo

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.config import ConfigTable


def tables_key(tables: Mapping[str, "ConfigTable"]) -> tuple:
    """Content identity of a table set (names + interned fingerprints)."""
    return tuple(
        sorted((name, table.optable.fingerprint) for name, table in tables.items())
    )


class KernelCaches:
    """Warm-start state the incremental kernel carries across runs.

    * :meth:`shared_slices` — one :class:`~repro.optable.view.SharedSlices`
      per ``(capacity, table set)`` in the :attr:`slices` memo:
      capacity-fitting index sets and MMKP weight rows survive across
      activations and across batch jobs.
    * :attr:`solve_cache` — the ``solve`` memo of MMKP-LR's segment
      relaxations, shared deliberately so repeated relaxations across a
      batch hit (keys embed table fingerprints, capacities and exact
      ratios, so a hit replays the identical deterministic solve).
    * :attr:`exmem` — EX-MEM's per-application candidate columns, keyed by
      ``(table fingerprint, truncation)``.

    The bounds keep a long-lived service that sees many distinct table sets
    from growing without limit: slice sets hold full per-app weight rows and
    are few per homogeneous batch; EX-MEM columns are small and per table.
    """

    def __init__(self):
        self.slices = Memo("slices", 64)
        self.solve_cache = Memo("solve", 4096)
        self.exmem = Memo("exmem", 1024)

    def shared_slices(
        self, capacity, tables: Mapping[str, "ConfigTable"]
    ) -> SharedSlices:
        """The shared table slices for one (capacity, table set) pair."""
        key = (tuple(capacity), tables_key(tables))
        slices = self.slices.get(key)
        if slices is None:
            slices = SharedSlices()
            self.slices.put(key, slices)
        return slices

    def info(self) -> dict[str, int]:
        """Cache population counters (diagnostics)."""
        return {
            "slice_sets": len(self.slices),
            "exmem_tables": len(self.exmem),
            **{
                f"solve_cache_{key}": value
                for key, value in self.solve_cache.info().items()
            },
        }
