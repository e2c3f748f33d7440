"""Bit-identity of the incremental kernel against the seed full re-solves.

Acceptance contract of the ``repro.kernel`` refactor: schedules, batch
fingerprints and energy totals must be *identical* — not merely close —
between the delta-based admission pipeline and the seed full-re-solve path
of the reference oracle, on the motivational workload and the (scaled)
census, for all four schedulers (MMKP-MDF, MMKP-LR, EX-MEM and the
EDF-packer-backed fixed mapper).
"""

import pytest

from repro.dse import paper_operating_points, reduced_tables
from repro.energy import EnergyBudget, ScheduleAwareGovernor
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.runtime.trace import poisson_trace
from repro.schedulers import (
    ExMemScheduler,
    FixedMinEnergyScheduler,
    MMKPLRScheduler,
    MMKPMDFScheduler,
)
from repro.workload.motivational import (
    motivational_platform,
    motivational_problem,
    motivational_tables,
    motivational_trace,
)
from tests.reference.oracle import (
    ReferenceRuntime,
    log_key,
    reference_twin,
    registered_twins,
    result_key,
)

#: scheduler factory → is it census-tractable (EX-MEM is exponential).
SCHEDULERS = [
    ("mmkp-mdf", MMKPMDFScheduler, True),
    ("mmkp-lr", MMKPLRScheduler, True),
    ("ex-mem", lambda: ExMemScheduler(max_configs_per_job=3), False),
    ("fixed", FixedMinEnergyScheduler, False),
]


def runs(platform, tables, factory, trace, **options):
    """``log_key`` of the production run and of the oracle run.

    ``options`` (governor, budget, remap) are shared by both runs; governors
    and budgets keep no per-run state.
    """
    fast = RuntimeManager.from_components(platform, tables, factory(), **options)
    seed = ReferenceRuntime(platform, tables, reference_twin(factory()), **options)
    return log_key(fast.run(trace)), log_key(seed.run(trace))


@pytest.fixture(scope="module")
def census_setup():
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    trace = poisson_trace(tables, arrival_rate=0.8, num_requests=30, seed=2020)
    return platform, tables, trace


class TestSchedulerActivationEquivalence:
    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_activation(self, name, factory, _, scenario):
        fast = factory().schedule(motivational_problem(scenario))
        seed = reference_twin(factory()).schedule(motivational_problem(scenario))
        assert (fast.schedule is None) == (seed.schedule is None)
        if fast.schedule is not None:
            assert fast.schedule == seed.schedule
            for a, b in zip(fast.schedule, seed.schedule):
                assert a.start == b.start and a.end == b.end
            assert fast.energy == seed.energy
        assert fast.assignment == seed.assignment
        assert dict(fast.statistics) == dict(seed.statistics)


class TestRuntimeManagerEquivalence:
    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_runs(self, name, factory, _, scenario):
        fast, seed = runs(
            motivational_platform(),
            motivational_tables(),
            factory,
            motivational_trace(scenario),
        )
        assert fast == seed

    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_governed_motivational_runs(self, name, factory, _, scenario):
        fast, seed = runs(
            motivational_platform(),
            motivational_tables(),
            factory,
            motivational_trace(scenario),
            governor=ScheduleAwareGovernor(),
        )
        assert fast == seed

    @pytest.mark.parametrize(
        "name,factory",
        [(n, f) for n, f, tractable in SCHEDULERS if tractable],
    )
    def test_census_runs(self, name, factory, census_setup):
        platform, tables, trace = census_setup
        fast, seed = runs(platform, tables, factory, trace)
        assert fast == seed

    def test_census_run_exmem_sample(self, census_setup):
        platform, tables, _ = census_setup
        trace = poisson_trace(tables, arrival_rate=0.25, num_requests=8, seed=11)
        fast, seed = runs(
            platform, tables, lambda: ExMemScheduler(max_configs_per_job=3), trace
        )
        assert fast == seed

    @pytest.mark.parametrize("governor", ["schedule-aware", "ondemand", "powersave"])
    def test_governor_energy_totals(self, governor, census_setup):
        from repro.api.registry import governors

        platform, tables, trace = census_setup
        fast, seed = runs(
            platform, tables, MMKPMDFScheduler, trace, governor=governors.build(governor)
        )
        assert fast == seed

    @pytest.mark.parametrize(
        "budget",
        [
            EnergyBudget(power_cap_watts=6.0),
            EnergyBudget(energy_budget_joules=150.0),
            EnergyBudget(power_cap_watts=7.5, energy_budget_joules=400.0),
        ],
    )
    def test_budget_admission_equivalence(self, budget, census_setup):
        platform, tables, trace = census_setup
        fast, seed = runs(platform, tables, MMKPMDFScheduler, trace, budget=budget)
        assert fast == seed  # budget_rejections included

    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    def test_remap_on_finish_equivalence(self, name, factory, _):
        fast, seed = runs(
            motivational_platform(),
            motivational_tables(),
            factory,
            motivational_trace("S2"),
            remap_on_finish=True,
        )
        assert fast == seed


class TestBatchFingerprintEquivalence:
    def test_service_batch_results_match(self):
        """Production schedulers vs their oracle twins, per batch result.

        The service always runs the production manager, so this pins the
        schedulers; the runtime manager itself is pinned by the run tests.
        """
        from repro.service import SimulationJob, SimulationService, TraceSpec

        def results(names):
            jobs = [
                SimulationJob(
                    f"job-{i}",
                    scheduler=names.get(scheduler, scheduler),
                    trace_spec=TraceSpec(arrival_rate=0.3, num_requests=8, seed=50 + i),
                    governor="schedule-aware" if i == 1 else None,
                    power_cap_watts=8.0 if i == 2 else None,
                )
                for i, scheduler in enumerate(["mmkp-mdf", "mmkp-lr", "mmkp-mdf"])
            ]
            batch = SimulationService().run_batch(jobs)
            assert not batch.failures
            return [result_key(result) for result in batch.results]

        with registered_twins("kernel-oracle") as names:
            assert results({}) == results(names)

    def test_worker_count_is_immaterial_under_the_kernel(self):
        from repro.service import BatchSpec, SimulationService

        spec = BatchSpec.sweep(
            arrival_rates=[0.2, 0.4], traces_per_point=2, num_requests=6
        )
        serial = SimulationService(workers=1).run_batch(spec).fingerprint()
        threaded = (
            SimulationService(workers=4, executor="thread").run_batch(spec).fingerprint()
        )
        assert serial == threaded
