"""Bit-identity of the columnar kernel against the seed list paths.

Acceptance contract of the ``repro.optable`` refactor: schedules, batch
fingerprints and energy accounting must be *identical* — not merely close —
between the columnar fast paths and the seed ``list[OperatingPoint]`` paths
of the reference oracle, on both the motivational workload and the (scaled)
Table III census.
"""

import pytest

from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.schedulers import ExMemScheduler, MMKPLRScheduler, MMKPMDFScheduler
from repro.workload import EvaluationSuite
from repro.workload.motivational import (
    motivational_platform,
    motivational_problem,
    motivational_tables,
    motivational_trace,
)
from repro.workload.suite import scaled_census
from tests.reference.oracle import (
    ReferenceRuntime,
    reference_twin,
    registered_twins,
    result_key,
)

SCHEDULERS = [MMKPMDFScheduler, MMKPLRScheduler, ExMemScheduler]


@pytest.fixture(scope="module")
def census_problems():
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    suite = EvaluationSuite.generate(tables, scaled_census(0.03), seed=2020)
    return [case.problem(platform, tables) for case in suite.cases]


def assert_results_identical(columnar, seed):
    assert (columnar.schedule is None) == (seed.schedule is None)
    if columnar.schedule is not None:
        assert columnar.schedule == seed.schedule
        segments = list(zip(columnar.schedule, seed.schedule))
        for fast_segment, seed_segment in segments:
            # Schedule equality is tolerance-based; the refactor promises the
            # exact same floats, so compare boundaries bit-for-bit too.
            assert fast_segment.start == seed_segment.start
            assert fast_segment.end == seed_segment.end
        assert columnar.energy == seed.energy
    assert columnar.assignment == seed.assignment
    assert dict(columnar.statistics) == dict(seed.statistics)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_scenarios(self, scheduler_cls, scenario):
        columnar = scheduler_cls().schedule(motivational_problem(scenario))
        seed = reference_twin(scheduler_cls()).schedule(motivational_problem(scenario))
        assert_results_identical(columnar, seed)

    @pytest.mark.parametrize("scheduler_cls", [MMKPMDFScheduler, MMKPLRScheduler])
    def test_census_workload(self, scheduler_cls, census_problems):
        scheduler = scheduler_cls()
        columnar = [scheduler.schedule(p) for p in census_problems]
        oracle = reference_twin(scheduler)
        seed = [oracle.schedule(p) for p in census_problems]
        for fast, slow in zip(columnar, seed):
            assert_results_identical(fast, slow)

    def test_census_workload_exmem_sample(self, census_problems):
        # EX-MEM is exponential; a sample keeps the equivalence suite fast.
        # EX-MEM has no seed twin (the oracle runs it as is), so this asserts
        # that a repeated activation is deterministic — its behaviour vs the
        # seed is pinned by tests/schedulers/test_exmem.py and the
        # cross-scheduler suite.
        scheduler = ExMemScheduler(max_configs_per_job=4)
        for problem in census_problems[:10]:
            columnar = scheduler.schedule(problem)
            seed = reference_twin(scheduler).schedule(problem)
            assert_results_identical(columnar, seed)


class TestRuntimeManagerEquivalence:
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_runs(self, scenario):
        columnar = RuntimeManager.from_components(
            motivational_platform(), motivational_tables(), MMKPMDFScheduler()
        ).run(motivational_trace(scenario))
        seed = ReferenceRuntime(
            motivational_platform(),
            motivational_tables(),
            reference_twin(MMKPMDFScheduler()),
        ).run(motivational_trace(scenario))
        assert columnar.total_energy == seed.total_energy
        assert len(columnar.timeline) == len(seed.timeline)
        for fast, slow in zip(columnar.timeline, seed.timeline):
            assert fast.start == slow.start
            assert fast.end == slow.end
            assert fast.energy == slow.energy
            assert fast.job_configs == slow.job_configs
        assert columnar.job_energy == seed.job_energy
        assert columnar.cluster_energy == seed.cluster_energy
        assert [o.accepted for o in columnar.outcomes] == [
            o.accepted for o in seed.outcomes
        ]
        assert [o.completion_time for o in columnar.outcomes] == [
            o.completion_time for o in seed.outcomes
        ]


class TestBatchFingerprintEquivalence:
    def test_service_batch_results_match(self):
        from repro.service import SimulationJob, SimulationService, TraceSpec

        def results(names):
            jobs = [
                SimulationJob(
                    f"job-{i}",
                    scheduler=names.get(scheduler, scheduler),
                    trace_spec=TraceSpec(arrival_rate=0.25, num_requests=6, seed=40 + i),
                )
                for i, scheduler in enumerate(["mmkp-mdf", "mmkp-lr", "mmkp-mdf"])
            ]
            batch = SimulationService().run_batch(jobs)
            assert not batch.failures
            return [result_key(result) for result in batch.results]

        with registered_twins("optable-oracle") as names:
            assert results({}) == results(names)
