"""Tests for the activation cache and the caching scheduler wrapper."""

import pytest

from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.schedulers import MMKPMDFScheduler
from repro.service.cache import (
    ActivationCache,
    CachingScheduler,
    canonical_jobs,
    problem_signature,
    table_fingerprint,
)
from repro.workload.motivational import motivational_platform, motivational_tables


@pytest.fixture()
def tables():
    return motivational_tables()


@pytest.fixture()
def platform():
    return motivational_platform()


def make_problem(platform, tables, now=0.0, names=("a", "b"), remaining=(1.0, 1.0)):
    jobs = [
        Job(names[0], "lambda1", arrival=now, deadline=now + 9.0, remaining_ratio=remaining[0]),
        Job(names[1], "lambda2", arrival=now, deadline=now + 4.0, remaining_ratio=remaining[1]),
    ]
    return SchedulingProblem(platform, tables, jobs, now=now)


class TestSignature:
    def test_invariant_under_time_shift_and_renaming(self, platform, tables):
        base = make_problem(platform, tables, now=0.0, names=("a", "b"))
        shifted = make_problem(platform, tables, now=7.5, names=("x", "y"))
        assert problem_signature(base) == problem_signature(shifted)

    def test_invariant_under_job_order(self, platform, tables):
        jobs = [
            Job("a", "lambda1", 0.0, 9.0),
            Job("b", "lambda2", 0.0, 4.0),
        ]
        forward = SchedulingProblem(platform, tables, jobs, now=0.0)
        backward = SchedulingProblem(platform, tables, list(reversed(jobs)), now=0.0)
        assert problem_signature(forward) == problem_signature(backward)

    def test_distinguishes_namespace(self, platform, tables):
        problem = make_problem(platform, tables)
        assert problem_signature(problem, "mmkp-mdf") != problem_signature(problem, "fixed")

    def test_distinguishes_residuals_and_deadlines(self, platform, tables):
        full = make_problem(platform, tables, remaining=(1.0, 1.0))
        partial = make_problem(platform, tables, remaining=(0.5, 1.0))
        assert problem_signature(full) != problem_signature(partial)
        longer = SchedulingProblem(
            platform, tables, [Job("a", "lambda1", 0.0, 12.0)], now=0.0
        )
        shorter = SchedulingProblem(
            platform, tables, [Job("a", "lambda1", 0.0, 9.0)], now=0.0
        )
        assert problem_signature(longer) != problem_signature(shorter)

    def test_table_content_enters_the_key(self, platform, tables):
        problem = make_problem(platform, tables)
        # A rebuilt (equal-content) table set collides — content, not identity.
        rebuilt = make_problem(platform, motivational_tables())
        assert problem_signature(problem) == problem_signature(rebuilt)
        assert table_fingerprint(tables["lambda1"]) != table_fingerprint(tables["lambda2"])

    def test_canonical_jobs_are_sorted_relative_slots(self, platform, tables):
        problem = make_problem(platform, tables, now=5.0, names=("zz", "aa"))
        slots = canonical_jobs(problem)
        assert [job.name for job in slots] == ["j0", "j1"]
        assert all(job.arrival == 0.0 for job in slots)
        assert {job.application for job in slots} == {"lambda1", "lambda2"}
        assert slots[0].deadline in (9.0, 4.0)


class TestCachingScheduler:
    def test_hit_after_time_shift_and_renaming(self, platform, tables):
        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        first = cached.schedule(make_problem(platform, tables, now=0.0, names=("a", "b")))
        shifted_problem = make_problem(platform, tables, now=6.0, names=("x", "y"))
        second = cached.schedule(shifted_problem)
        assert cached.cache.hits == 1 and cached.cache.misses == 1
        assert first.feasible and second.feasible
        # The rehydrated schedule is valid for the *shifted* problem.
        report = shifted_problem.validate(second.schedule)
        assert report.feasible, report.violations
        assert second.energy == pytest.approx(first.energy)
        assert second.schedule.start >= 6.0 - 1e-9
        assert second.statistics["cache_hit"] == 1.0

    def test_hit_path_is_bit_identical_to_miss_path(self, platform, tables):
        """Canonicalisation on both paths ⇒ the result is a pure function."""
        problem = make_problem(platform, tables, now=3.0)
        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        miss = cached.schedule(problem)
        hit = cached.schedule(problem)
        assert hit.schedule == miss.schedule
        assert dict(hit.assignment) == dict(miss.assignment)
        assert hit.energy == miss.energy

    def test_cached_schedules_validate_on_random_problems(self, platform, tables):
        import random

        rng = random.Random(42)
        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        plain = MMKPMDFScheduler()
        for trial in range(25):
            now = rng.uniform(0.0, 10.0)
            jobs = []
            for index in range(rng.randint(1, 3)):
                application = rng.choice(["lambda1", "lambda2"])
                jobs.append(
                    Job(
                        f"job{index}",
                        application,
                        arrival=now,
                        deadline=now + rng.uniform(3.0, 25.0),
                        remaining_ratio=rng.choice([1.0, 0.75, 0.5]),
                    )
                )
            problem = SchedulingProblem(platform, tables, jobs, now=now)
            cached_result = cached.schedule(problem)
            plain_result = plain.schedule(problem)
            assert cached_result.feasible == plain_result.feasible
            if cached_result.feasible:
                report = problem.validate(cached_result.schedule)
                assert report.feasible, report.violations

    def test_transparent_name_and_infeasible_caching(self, platform, tables):
        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        assert cached.name == "mmkp-mdf"
        impossible = SchedulingProblem(
            platform, tables, [Job("a", "lambda2", 0.0, 0.5)], now=0.0
        )
        first = cached.schedule(impossible)
        second = cached.schedule(impossible)
        assert not first.feasible and not second.feasible
        assert cached.cache.hits == 1
