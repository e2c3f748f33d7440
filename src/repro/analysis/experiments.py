"""Run schedulers over an evaluation suite and derive the paper's metrics.

One call to :func:`evaluate_suite` executes every scheduler on every test case
once and stores the raw outcomes.  All figures and tables of the paper's
evaluation section are pure post-processing of those outcomes:

* Fig. 2 — :meth:`SuiteResults.scheduling_rate`
* Table IV — :meth:`SuiteResults.relative_energy_table`
* Fig. 3 — :meth:`SuiteResults.relative_energy_curve`
* Fig. 4 — :meth:`SuiteResults.search_time_stats`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.stats import BoxplotStats, geometric_mean, s_curve
from repro.core.config import ConfigTable
from repro.exceptions import SchedulingError
from repro.platforms.platform import Platform
from repro.platforms.resources import ResourceVector
from repro.schedulers.base import Scheduler
from repro.workload.suite import EvaluationSuite
from repro.workload.testgen import DeadlineLevel, TestCase


@dataclass(frozen=True)
class SchedulerRun:
    """Outcome of one scheduler on one test case.

    Attributes
    ----------
    case_name:
        Name of the test case.
    num_jobs:
        Number of jobs in the test case.
    deadline_level:
        Deadline tightness of the test case.  ``None`` for runs derived from
        online traces (see
        :meth:`repro.service.pool.BatchResults.to_scheduler_runs`), which
        have no generator deadline level.
    scheduler:
        Name of the scheduler.
    feasible:
        Whether the scheduler found a schedule.
    energy:
        Energy of the schedule (``inf`` if rejected).
    search_time:
        Wall-clock scheduling overhead in seconds.
    """

    case_name: str
    num_jobs: int
    deadline_level: DeadlineLevel | None
    scheduler: str
    feasible: bool
    energy: float
    search_time: float


class SuiteResults:
    """Raw scheduler runs plus the derived paper metrics."""

    def __init__(self, runs: Iterable[SchedulerRun]):
        self._runs = tuple(runs)
        self._by_scheduler: dict[str, dict[str, SchedulerRun]] = {}
        for run in self._runs:
            self._by_scheduler.setdefault(run.scheduler, {})[run.case_name] = run

    # ------------------------------------------------------------------ #
    # Raw access
    # ------------------------------------------------------------------ #
    @property
    def runs(self) -> tuple[SchedulerRun, ...]:
        """All recorded runs."""
        return self._runs

    @property
    def schedulers(self) -> list[str]:
        """Names of the schedulers that were evaluated."""
        return sorted(self._by_scheduler)

    def runs_of(self, scheduler: str) -> list[SchedulerRun]:
        """All runs of one scheduler."""
        if scheduler not in self._by_scheduler:
            raise SchedulingError(
                f"no runs recorded for scheduler {scheduler!r}; "
                f"known: {self.schedulers}"
            )
        return list(self._by_scheduler[scheduler].values())

    def job_counts(self) -> list[int]:
        """The distinct job counts appearing in the suite."""
        return sorted({run.num_jobs for run in self._runs})

    # ------------------------------------------------------------------ #
    # Fig. 2 — scheduling success rate
    # ------------------------------------------------------------------ #
    def scheduling_rate(
        self,
        scheduler: str,
        deadline_level: DeadlineLevel | None = DeadlineLevel.TIGHT,
    ) -> dict[int, float]:
        """Percentage of feasible test cases per job count (Fig. 2).

        The paper's figure is restricted to tight deadlines (weak deadlines
        are trivially schedulable by every algorithm); pass ``None`` to
        aggregate over both levels.
        """
        per_jobs: dict[int, list[SchedulerRun]] = {}
        for run in self.runs_of(scheduler):
            if deadline_level is not None and run.deadline_level is not deadline_level:
                continue
            per_jobs.setdefault(run.num_jobs, []).append(run)
        return {
            num_jobs: 100.0 * sum(r.feasible for r in runs) / len(runs)
            for num_jobs, runs in sorted(per_jobs.items())
        }

    # ------------------------------------------------------------------ #
    # Table IV / Fig. 3 — relative energy w.r.t. a reference scheduler
    # ------------------------------------------------------------------ #
    def relative_energies(
        self, scheduler: str, reference: str
    ) -> list[tuple[SchedulerRun, float]]:
        """Per-test energy ratios scheduler/reference.

        Only test cases where both the scheduler and the reference found a
        schedule contribute (this is how the paper computes Table IV).
        """
        reference_runs = self._by_scheduler.get(reference, {})
        if not reference_runs:
            raise SchedulingError(f"no runs recorded for reference {reference!r}")
        ratios = []
        for run in self.runs_of(scheduler):
            ref = reference_runs.get(run.case_name)
            if ref is None or not ref.feasible or not run.feasible:
                continue
            if ref.energy <= 0:
                continue
            ratios.append((run, run.energy / ref.energy))
        return ratios

    def relative_energy_table(
        self, schedulers: Sequence[str], reference: str
    ) -> dict[str, dict[tuple[DeadlineLevel, int], float]]:
        """Geometric-mean relative energy per (deadline level, job count) bucket.

        This is the body of Table IV.  Two synthetic buckets are added per
        scheduler: ``(level, 0)`` aggregates over all job counts of a level
        ("Overall" row) and the key ``(None, 0)`` aggregates over everything
        ("all levels" row).
        """
        table: dict[str, dict[tuple[DeadlineLevel, int], float]] = {}
        for scheduler in schedulers:
            ratios = self.relative_energies(scheduler, reference)
            buckets: dict[tuple[DeadlineLevel, int], list[float]] = {}
            for run, ratio in ratios:
                buckets.setdefault((run.deadline_level, run.num_jobs), []).append(ratio)
                buckets.setdefault((run.deadline_level, 0), []).append(ratio)
                buckets.setdefault((None, 0), []).append(ratio)
            table[scheduler] = {
                key: geometric_mean(values) for key, values in buckets.items()
            }
        return table

    def relative_energy_curve(self, scheduler: str, reference: str) -> list[float]:
        """Sorted per-test relative energies — one S-curve of Fig. 3."""
        return s_curve(ratio for _, ratio in self.relative_energies(scheduler, reference))

    def optimal_share(self, scheduler: str, reference: str, tolerance: float = 1e-6) -> float:
        """Fraction of scheduled tests where the scheduler matches the reference energy."""
        ratios = [ratio for _, ratio in self.relative_energies(scheduler, reference)]
        if not ratios:
            return float("nan")
        return sum(1 for r in ratios if r <= 1.0 + tolerance) / len(ratios)

    # ------------------------------------------------------------------ #
    # Fig. 4 — search time
    # ------------------------------------------------------------------ #
    def search_time_stats(self, scheduler: str) -> dict[int, BoxplotStats]:
        """Box-plot statistics of the scheduling overhead per job count."""
        per_jobs: dict[int, list[float]] = {}
        for run in self.runs_of(scheduler):
            per_jobs.setdefault(run.num_jobs, []).append(run.search_time)
        return {
            num_jobs: BoxplotStats.from_samples(samples)
            for num_jobs, samples in sorted(per_jobs.items())
        }


def evaluate_suite(
    suite: EvaluationSuite,
    capacity: ResourceVector | Platform,
    tables: Mapping[str, ConfigTable],
    schedulers: Sequence[Scheduler],
) -> SuiteResults:
    """Run every scheduler on every test case of the suite.

    Parameters
    ----------
    suite:
        The evaluation suite (test cases).
    capacity:
        Platform (or capacity vector) the jobs are mapped onto.
    tables:
        Application configuration tables; every application referenced by the
        suite must be present.
    schedulers:
        The scheduling algorithms to compare.

    Returns
    -------
    SuiteResults
        The raw runs, ready for the Table IV / Fig. 2-4 post-processing.
    """
    cases = list(suite)
    problems = [case.problem(capacity, tables) for case in cases]
    runs: list[SchedulerRun] = []
    for scheduler in schedulers:
        for case, problem in zip(cases, problems):
            result = scheduler.schedule(problem)
            runs.append(
                SchedulerRun(
                    case_name=case.name,
                    num_jobs=case.num_jobs,
                    deadline_level=case.deadline_level,
                    scheduler=scheduler.name,
                    feasible=result.feasible,
                    energy=result.energy,
                    search_time=result.search_time,
                )
            )
    return SuiteResults(runs)
