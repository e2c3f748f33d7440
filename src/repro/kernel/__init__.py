"""``repro.kernel`` — the incremental scheduling engine.

The paper's runtime manager re-solves the full hybrid-mapping MMKP on every
job arrival and departure; this package turns that decision path into a
delta-based admission pipeline:

* :class:`AdmissionPipeline` / :class:`KernelRun` — the composable
  ``snapshot → candidates → solve → commit`` stages the runtime manager
  drives on every activation.
* :class:`ScheduleState` / :class:`LoadLedger` — the explicit, incrementally
  maintained companion of the committed schedule: O(1) committed completion
  times, the ghost-prune gate and shared per-segment busy-core rows for the
  governor, the budget admission check and the energy accounting.
* :class:`PackMemo` — the activation's committed EDF trajectory: an
  Algorithm 1 configuration probe resumes it at the trial job's rank,
  keeps the placements before that rank and replays only the committed
  suffix.
* :class:`KernelCaches` — content-keyed warm starts (table slices, MMKP-LR
  relaxations, EX-MEM candidate columns) shared across runs, batch jobs and
  DSE sweep points.

Everything the kernel does is an *exact* transformation: resumed packer
prefixes replay the identical float operations from the identical state,
ledger reads return the identical integers a segment rescan would sum, and
cache keys embed table fingerprints plus exact ratios — so schedules, batch
fingerprints and energy totals are bit-identical to the seed's full
re-solves, kept as the reference oracle under ``tests/reference``;
``tests/kernel/test_kernel_equivalence.py`` asserts it for all four
schedulers.
"""

from repro.kernel.caches import KernelCaches, tables_key
from repro.kernel.packmemo import PackMemo
from repro.kernel.pipeline import AdmissionPipeline, KernelRun
from repro.kernel.state import LoadLedger, ScheduleState

__all__ = [
    "AdmissionPipeline",
    "KernelCaches",
    "KernelRun",
    "LoadLedger",
    "PackMemo",
    "ScheduleState",
    "tables_key",
]
