"""ProblemView slicing and the memoised solve cache."""

import pytest

from repro.optable import SolveCache
from repro.schedulers import MMKPLRScheduler
from repro.workload.motivational import motivational_problem
from tests.reference.oracle import ReferenceLR


class TestProblemView:
    def test_view_is_cached_per_problem(self):
        problem = motivational_problem("S1")
        assert problem.view() is problem.view()

    def test_optable_accessor_matches_tables(self):
        problem = motivational_problem("S1")
        view = problem.view()
        for job in problem.jobs:
            assert view.optable(job.application) is problem.optable_for(job)

    def test_unknown_application_raises_scheduling_error(self):
        from repro.exceptions import SchedulingError

        view = motivational_problem("S1").view()
        with pytest.raises(SchedulingError):
            view.optable("nope")

    def test_fitting_indices_and_weight_rows_are_consistent(self):
        problem = motivational_problem("S1")
        view = problem.view()
        application = problem.jobs[0].application
        fitting = view.fitting_indices(application)
        rows = view.mmkp_weight_rows(application)
        assert len(fitting) == len(rows)
        table = view.optable(application)
        capacity = view.capacity
        for index, row in zip(fitting, rows):
            assert row == tuple(float(c) for c in table.resources[index])
            assert all(r <= c for r, c in zip(table.resources[index], capacity))

    def test_signature_is_content_based(self):
        a = motivational_problem("S1")
        b = motivational_problem("S1")
        assert a.view().signature() == b.view().signature()
        c = motivational_problem("S2")
        assert a.view().signature() != c.view().signature()


class TestLagrangianMemo:
    def test_repeated_activations_hit_the_cache(self):
        scheduler = MMKPLRScheduler()
        first = scheduler.schedule(motivational_problem("S1"))
        misses_after_first = scheduler.solve_cache.misses
        assert misses_after_first > 0
        second = scheduler.schedule(motivational_problem("S1"))
        assert scheduler.solve_cache.hits > 0
        assert scheduler.solve_cache.misses == misses_after_first
        # Cached relaxations replay bit-identically.
        assert first.schedule == second.schedule
        assert first.energy == second.energy
        assert dict(first.statistics) == dict(second.statistics)

    def test_cache_is_per_scheduler_instance(self):
        # Independent schedulers must not contaminate each other's wall-time
        # (the seed tier-1 suite compares LR vs MDF timings).
        warm = MMKPLRScheduler()
        warm.schedule(motivational_problem("S1"))
        fresh = MMKPLRScheduler()
        info = fresh.solve_cache.info()
        assert (info["entries"], info["hits"], info["misses"]) == (0, 0, 0)

    def test_shared_cache_can_be_injected(self):
        shared = SolveCache()
        MMKPLRScheduler(solve_cache=shared).schedule(motivational_problem("S1"))
        populated = len(shared)
        assert populated > 0
        second = MMKPLRScheduler(solve_cache=shared)
        second.schedule(motivational_problem("S1"))
        assert shared.hits > 0

    def test_cached_path_matches_seed_path(self):
        problem = motivational_problem("S2")
        scheduler = MMKPLRScheduler()
        columnar = scheduler.schedule(problem)
        cached = scheduler.schedule(motivational_problem("S2"))
        seed = ReferenceLR().schedule(motivational_problem("S2"))
        for result in (columnar, cached):
            assert result.schedule == seed.schedule
            assert result.energy == seed.energy
            assert dict(result.statistics) == dict(seed.statistics)
            assert result.assignment == seed.assignment
