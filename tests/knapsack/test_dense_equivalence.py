"""Bit-identity of the dense numpy MMKP-LR backend against the pure solver.

Acceptance contract of ``repro.knapsack._dense``: schedules, assignments,
energies and statistics must be *identical* — not merely close — with
``solver_numpy_override(True)`` and ``(False)``, for every scheduler, on
both the motivational workload and the (scaled) Table III census.  The
dense backend is a faster evaluation order of the same arithmetic, never a
different algorithm, so every float must come out bit-for-bit equal.

This file mirrors ``tests/optable/test_equivalence.py`` for the solver
toggle; the solver-level property tests live in
``test_dense_properties.py``.
"""

import pytest

from repro.dse import paper_operating_points, reduced_tables
from repro.knapsack import HAVE_NUMPY, solver_numpy_override
from repro.platforms import odroid_xu4
from repro.schedulers import (
    ExMemScheduler,
    FixedMinEnergyScheduler,
    MMKPLRScheduler,
    MMKPMDFScheduler,
)
from repro.workload import EvaluationSuite
from repro.workload.motivational import motivational_problem
from repro.workload.suite import scaled_census

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="dense backend needs numpy"
)

SCHEDULERS = [
    MMKPMDFScheduler,
    MMKPLRScheduler,
    ExMemScheduler,
    FixedMinEnergyScheduler,
]


@pytest.fixture(scope="module")
def census_problems():
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    suite = EvaluationSuite.generate(tables, scaled_census(0.03), seed=2020)
    return [case.problem(platform, tables) for case in suite.cases]


def assert_results_identical(dense, pure):
    assert (dense.schedule is None) == (pure.schedule is None)
    if dense.schedule is not None:
        assert dense.schedule == pure.schedule
        for fast_segment, pure_segment in zip(dense.schedule, pure.schedule):
            # Schedule equality is tolerance-based; the backend promises the
            # exact same floats, so compare boundaries bit-for-bit too.
            assert fast_segment.start == pure_segment.start
            assert fast_segment.end == pure_segment.end
        assert dense.energy == pure.energy
    assert dense.assignment == pure.assignment
    assert dict(dense.statistics) == dict(pure.statistics)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_scenarios(self, scheduler_cls, scenario):
        with solver_numpy_override(True):
            dense = scheduler_cls().schedule(motivational_problem(scenario))
        with solver_numpy_override(False):
            pure = scheduler_cls().schedule(motivational_problem(scenario))
        assert_results_identical(dense, pure)

    @pytest.mark.parametrize(
        "scheduler_cls",
        [MMKPMDFScheduler, MMKPLRScheduler, FixedMinEnergyScheduler],
    )
    def test_census_workload(self, scheduler_cls, census_problems):
        with solver_numpy_override(True):
            dense = [scheduler_cls().schedule(p) for p in census_problems]
        with solver_numpy_override(False):
            pure = [scheduler_cls().schedule(p) for p in census_problems]
        for fast, slow in zip(dense, pure):
            assert_results_identical(fast, slow)

    def test_census_workload_exmem_sample(self, census_problems):
        # EX-MEM is exponential; a sample keeps the equivalence suite fast.
        # (EX-MEM never calls solve_lagrangian, so this pins that the solver
        # toggle has no side effects on unrelated schedulers.)
        for problem in census_problems[:10]:
            with solver_numpy_override(True):
                dense = ExMemScheduler(max_configs_per_job=4).schedule(problem)
            with solver_numpy_override(False):
                pure = ExMemScheduler(max_configs_per_job=4).schedule(problem)
            assert_results_identical(dense, pure)


class TestBatchedAdmissionEquivalence:
    def test_schedule_many_matches_pure_sequential(self, census_problems):
        """The stacked lock-step path against the pure one-at-a-time path."""
        problems = [
            motivational_problem("S1"),
            motivational_problem("S2"),
            *census_problems,
        ]
        with solver_numpy_override(True):
            batched = MMKPLRScheduler().schedule_many(problems)
        with solver_numpy_override(False):
            pure = [MMKPLRScheduler().schedule(p) for p in problems]
        assert len(batched) == len(pure)
        for fast, slow in zip(batched, pure):
            assert_results_identical(fast, slow)

    def test_schedule_many_matches_own_sequential(self, census_problems):
        """Batching is a reordering, not a resolve: one scheduler, two ways."""
        problems = census_problems[:8]
        with solver_numpy_override(True):
            batched = MMKPLRScheduler().schedule_many(problems)
            sequential = [MMKPLRScheduler().schedule(p) for p in problems]
        for fast, slow in zip(batched, sequential):
            assert_results_identical(fast, slow)
