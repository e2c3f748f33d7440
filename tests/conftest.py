"""Shared fixtures for the test-suite.

Expensive artefacts (the DSE-generated operating-point tables, the small
evaluation suite) are session-scoped so the whole suite builds them once.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Tests import the reference oracle as ``tests.reference``; the repository
# root must be importable however pytest was started.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.problem import SchedulingProblem
from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import big_little, odroid_xu4
from repro.workload import EvaluationSuite
from repro.workload.motivational import (
    motivational_platform,
    motivational_problem,
    motivational_tables,
)
from repro.workload.suite import scaled_census
from repro.workload.testgen import TestCaseGenerator


@pytest.fixture(scope="session")
def odroid():
    """The Odroid XU4 platform model."""
    return odroid_xu4()


@pytest.fixture(scope="session")
def small_platform():
    """The 2-little/2-big platform of the motivational example."""
    return motivational_platform()


@pytest.fixture(scope="session")
def paper_tables(odroid):
    """Full DSE-generated tables for all application/input-size variants."""
    return paper_operating_points(odroid)


@pytest.fixture(scope="session")
def small_tables(paper_tables):
    """Tables capped at 6 points per application (keeps EX-MEM affordable)."""
    return reduced_tables(paper_tables, max_points=6)


@pytest.fixture(scope="session")
def mot_tables():
    """The Table II configuration tables of the motivational example."""
    return motivational_tables()


@pytest.fixture()
def mot_problem_s1():
    """The scheduling problem at t=1 of motivational scenario S1."""
    return motivational_problem("S1")


@pytest.fixture()
def mot_problem_s2():
    """The scheduling problem at t=1 of motivational scenario S2 (tight)."""
    return motivational_problem("S2")


@pytest.fixture(scope="session")
def tiny_suite(small_tables):
    """A down-scaled evaluation suite (1% census, >= 1 case per bucket)."""
    return EvaluationSuite.generate(small_tables, scaled_census(0.01), seed=11)


@pytest.fixture(scope="session")
def random_problems(small_tables, odroid):
    """A batch of random scheduling problems used by cross-scheduler tests."""
    generator = TestCaseGenerator(small_tables, seed=97)
    problems: list[SchedulingProblem] = []
    from repro.workload.testgen import DeadlineLevel

    for num_jobs in (1, 2, 3):
        for level in (DeadlineLevel.WEAK, DeadlineLevel.TIGHT):
            for _ in range(4):
                case = generator.generate_case(num_jobs, level)
                problems.append(case.problem(odroid, small_tables))
    return problems
