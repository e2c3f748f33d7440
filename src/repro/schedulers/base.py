"""Common scheduler interface and result type."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.problem import SchedulingProblem
from repro.core.segment import Schedule
from repro.obs import tracer as obs


@dataclass(frozen=True)
class SchedulingResult:
    """Outcome of one scheduler activation.

    Attributes
    ----------
    schedule:
        The generated schedule, or ``None`` if the request set was rejected
        (no feasible schedule found).
    assignment:
        For schedulers that assign one configuration index per job (MMKP-MDF
        and MMKP-LR), the mapping job name → configuration index of the last
        accepted assignment.  EX-MEM may remap jobs between segments, in which
        case the dictionary holds the configuration used in the job's first
        segment.
    energy:
        Total energy (objective 2a) of the schedule; ``inf`` when rejected.
    search_time:
        Wall-clock seconds spent inside the scheduler.
    statistics:
        Scheduler-specific counters (packer invocations, explored states,
        subgradient iterations, ...) for the overhead analysis.
    """

    schedule: Schedule | None
    assignment: Mapping[str, int] = field(default_factory=dict)
    energy: float = float("inf")
    search_time: float = 0.0
    statistics: Mapping[str, float] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        """``True`` iff a schedule was found (the request set is admitted)."""
        return self.schedule is not None

    def __bool__(self) -> bool:
        return self.feasible


class Scheduler(abc.ABC):
    """Abstract base class of all runtime-manager scheduling algorithms."""

    #: Short machine-readable identifier used in reports and benchmarks.
    name: str = "scheduler"

    @abc.abstractmethod
    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        """Compute a schedule for ``problem`` (implemented by subclasses)."""

    # ------------------------------------------------------------------ #
    # Incremental-kernel hooks
    # ------------------------------------------------------------------ #
    def begin_run(self, kernel) -> None:
        """Hook: a runtime-manager run is starting under the incremental kernel.

        ``kernel`` is the run's :class:`~repro.kernel.pipeline.KernelRun`;
        its :attr:`~repro.kernel.pipeline.KernelRun.caches` carry
        content-keyed warm starts (table slices, MMKP-LR relaxations,
        EX-MEM candidate columns) that survive across runs and batch jobs.
        Schedulers adopt what helps them — any reuse must be keyed so a hit
        is bit-identical to a fresh computation (fingerprints + exact
        ratios, like :func:`~repro.optable.view.SolveCache`).  The default
        is a no-op.
        """

    def end_run(self, kernel) -> None:
        """Hook: the run that :meth:`begin_run` opened has finished.

        Called from a ``finally`` block, so per-run state adopted in
        :meth:`begin_run` can be released even when the run raises.  The
        default is a no-op.
        """

    def schedule(self, problem: SchedulingProblem) -> SchedulingResult:
        """Solve ``problem`` and attach the wall-clock search time.

        This is the public entry point; it wraps :meth:`_solve` with timing so
        every scheduler reports its overhead the same way (Fig. 4 of the
        paper).  When a :mod:`repro.obs` tracer is active the solve runs
        inside a ``solve`` span annotated with the scheduler's statistics
        (subgradient iterations, packer calls, cache hits, ...).
        """
        with obs.span("solve", category="scheduler", scheduler=self.name) as span:
            start = time.perf_counter()
            result = self._solve(problem)
            elapsed = time.perf_counter() - start
            span.annotate(
                feasible=result.feasible,
                jobs=len(problem.jobs),
                **{
                    key: value
                    for key, value in result.statistics.items()
                    if isinstance(value, (int, float))
                },
            )
        return SchedulingResult(
            schedule=result.schedule,
            assignment=result.assignment,
            energy=result.energy,
            search_time=elapsed,
            statistics=result.statistics,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
