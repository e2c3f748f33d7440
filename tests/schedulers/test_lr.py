"""Tests for the MMKP-LR baseline scheduler."""

import pytest

from repro.core.config import ConfigTable, OperatingPoint
from repro.exceptions import SchedulingError
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.platforms.resources import ResourceVector
from repro.schedulers import ExMemScheduler, MMKPLRScheduler, MMKPMDFScheduler


class TestMotivationalExample:
    def test_scenario_s1_is_feasible_but_not_optimal(self, mot_problem_s1):
        result = MMKPLRScheduler().schedule(mot_problem_s1)
        assert result.feasible
        report = mot_problem_s1.validate(result.schedule)
        assert report.feasible, report.violations
        optimal = ExMemScheduler().schedule(mot_problem_s1)
        # The single-segment scope costs energy compared with the global scope.
        assert result.energy >= optimal.energy - 1e-9

    def test_single_job_is_solved_optimally(self):
        from repro.workload.motivational import motivational_tables

        problem = SchedulingProblem(
            ResourceVector([2, 2]),
            motivational_tables(),
            [Job("solo", "lambda1", arrival=0.0, deadline=9.0)],
        )
        result = MMKPLRScheduler().schedule(problem)
        assert result.feasible
        # With a single job the greedy per-segment choice is the global optimum.
        assert result.energy == pytest.approx(8.9)


class TestStructure:
    def test_segments_are_rebuilt_per_completion(self, mot_problem_s1):
        result = MMKPLRScheduler().schedule(mot_problem_s1)
        # The scope is one segment at a time: a new segment starts when the
        # first job of the previous one completes.
        assert len(result.schedule) >= 2
        assert result.schedule.is_contiguous()

    def test_statistics_report_subgradient_iterations(self, mot_problem_s1):
        result = MMKPLRScheduler().schedule(mot_problem_s1)
        assert result.statistics["subgradient_iterations"] > 0
        assert result.statistics["segments"] == len(result.schedule)

    def test_iteration_limit_is_configurable(self, mot_problem_s1):
        limited = MMKPLRScheduler(max_subgradient_iterations=3)
        result = limited.schedule(mot_problem_s1)
        assert result.feasible
        assert (
            result.statistics["subgradient_iterations"]
            <= 3 * result.statistics["segments"]
        )

    @pytest.mark.parametrize("cap", [0, -3, 2.5, "10", True])
    def test_unusable_iteration_limit_is_rejected(self, cap):
        with pytest.raises(SchedulingError, match="max_subgradient_iterations"):
            MMKPLRScheduler(max_subgradient_iterations=cap)


class TestRejection:
    def test_impossible_deadline_is_rejected(self):
        table = ConfigTable("a", [OperatingPoint(ResourceVector([1]), 10.0, 1.0)])
        problem = SchedulingProblem(
            ResourceVector([1]), {"a": table}, [Job("late", "a", 0.0, 5.0)]
        )
        assert not MMKPLRScheduler().schedule(problem).feasible

    def test_overloaded_platform_is_rejected(self):
        table = ConfigTable("a", [OperatingPoint(ResourceVector([2]), 10.0, 1.0)])
        jobs = [Job(f"j{i}", "a", 0.0, 11.0) for i in range(3)]
        problem = SchedulingProblem(ResourceVector([2]), {"a": table}, jobs)
        assert not MMKPLRScheduler().schedule(problem).feasible


class TestAgainstRandomWorkload:
    def test_accepted_schedules_are_valid(self, random_problems):
        scheduler = MMKPLRScheduler()
        accepted = 0
        for problem in random_problems:
            result = scheduler.schedule(problem)
            if not result.feasible:
                continue
            accepted += 1
            report = problem.validate(result.schedule)
            assert report.feasible, report.violations
        assert accepted > 0

    def test_energy_is_never_better_than_exmem(self, random_problems):
        for problem in random_problems:
            lr = MMKPLRScheduler().schedule(problem)
            if not lr.feasible:
                continue
            reference = ExMemScheduler().schedule(problem)
            assert reference.feasible
            assert lr.energy >= reference.energy - 1e-6

    def test_is_slower_than_mdf_on_multi_job_cases(self, random_problems):
        # Aggregate over the random workload: LR spends at least as much time
        # as MDF (it runs up to 100 subgradient iterations per segment).
        lr_total, mdf_total = 0.0, 0.0
        for problem in random_problems:
            if len(problem.jobs) < 2:
                continue
            lr_total += MMKPLRScheduler().schedule(problem).search_time
            mdf_total += MMKPMDFScheduler().schedule(problem).search_time
        assert lr_total > mdf_total
