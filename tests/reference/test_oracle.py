"""The oracle against the paper, and the production manager against the oracle.

The oracle is pinned to the paper on its own: it reproduces the Fig. 1
energies and acceptance of the motivational example.  The random-trace
property then runs small Poisson traces on the motivational tables and on reduced paper
tables, for all four schedulers, with and without the schedule-aware
governor, a power cap or an energy budget, and remap on finish on and off.
A second property runs the same traces on a homogeneous (one core type) and
a three-type platform, where the packer and the MDF walk leave their
two-cluster paths.
The production :class:`~repro.runtime.manager.RuntimeManager` (event
engine, admission pipeline, incremental kernel) must produce the execution
log of :class:`~tests.reference.oracle.ReferenceRuntime` (arrivals in trace
order, full list-based re-solves) field by field, every float compared by
``repr``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dse import paper_operating_points, reduced_tables
from repro.energy import EnergyBudget, ScheduleAwareGovernor
from repro.platforms import generic_heterogeneous, homogeneous, odroid_xu4
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
    motivational_tables,
    motivational_trace,
)
from tests.reference.oracle import ReferenceRuntime, log_key, reference_twin

SCHEDULERS = {
    "mmkp-mdf": MMKPMDFScheduler,
    "mmkp-lr": MMKPLRScheduler,
    "ex-mem": lambda: ExMemScheduler(max_configs_per_job=3),
    "fixed": FixedMinEnergyScheduler,
}
#: EX-MEM is exponential in the active jobs; longer traces stay affordable
#: for the other schedulers.
MAX_REQUESTS = {"ex-mem": 4}


@pytest.mark.parametrize(
    "scenario,scheduler,remap,energy,acceptance",
    [
        # Fig. 1(a)-(c): fixed mapping at start, at start and finish, adaptive.
        ("S1", FixedMinEnergyScheduler, False, 16.96, 1.0),
        ("S1", FixedMinEnergyScheduler, True, 15.49, 1.0),
        ("S1", MMKPMDFScheduler, False, 14.63, 1.0),
        # S2: only the adaptive mapper admits both requests.
        ("S2", FixedMinEnergyScheduler, False, 8.90, 0.5),
        ("S2", FixedMinEnergyScheduler, True, 8.90, 0.5),
        ("S2", MMKPMDFScheduler, False, 14.63, 1.0),
    ],
)
def test_oracle_reproduces_the_motivational_example(
    scenario, scheduler, remap, energy, acceptance
):
    log = ReferenceRuntime(
        motivational_platform(),
        motivational_tables(),
        reference_twin(scheduler()),
        remap_on_finish=remap,
    ).run(motivational_trace(scenario))
    assert log.total_energy == pytest.approx(energy, abs=0.01)
    assert log.acceptance_rate == acceptance
    assert not log.deadline_misses


#: Platforms whose reduced paper tables the properties explore.
PLATFORMS = {
    "paper": odroid_xu4,
    "homogeneous": lambda: homogeneous(8),
    "three-type": lambda: generic_heterogeneous([2, 2, 4]),
}


@lru_cache(maxsize=None)
def _workload(name: str):
    """Platform, tables and the largest operating-point power."""
    if name == "motivational":
        platform, tables = motivational_platform(), motivational_tables()
    else:
        platform = PLATFORMS[name]()
        tables = reduced_tables(paper_operating_points(platform), max_points=4)
    peak = max(point.power for table in tables.values() for point in table)
    return platform, tables, peak


#: The scheduler, trace and energy envelope of one property example (the
#: trace length is drawn per property).
TRACE_CASES = dict(
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.sampled_from([0.2, 0.5, 1.5, 4.0]),
    tight=st.booleans(),
    governed=st.booleans(),
    envelope=st.sampled_from([None, "cap", "budget"]),
    scale=st.sampled_from([0.5, 1.0, 2.0]),
    remap=st.booleans(),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(["motivational", "paper"]),
    requests=st.integers(min_value=1, max_value=6),
    **TRACE_CASES,
)
def test_production_log_equals_the_oracle_log(workload, **case):
    _assert_logs_match(workload, **case)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(["homogeneous", "three-type"]),
    # Eight cores rarely fill with six requests; longer traces make the
    # capacity checks of the packer and the MDF walk bind.
    requests=st.integers(min_value=1, max_value=12),
    **TRACE_CASES,
)
def test_production_log_equals_the_oracle_log_off_two_clusters(workload, **case):
    _assert_logs_match(workload, **case)


def _assert_logs_match(
    workload, scheduler, seed, requests, rate, tight, governed, envelope, scale, remap
):
    platform, tables, peak = _workload(workload)
    requests = min(requests, MAX_REQUESTS.get(scheduler, requests))
    trace = poisson_trace(
        tables,
        arrival_rate=rate,
        num_requests=requests,
        # Tight deadlines make infeasible rejections common.
        deadline_factor_range=(1.05, 1.6) if tight else (1.5, 4.0),
        seed=seed,
    )
    budget = None
    if envelope == "cap":
        budget = EnergyBudget(power_cap_watts=scale * peak)
    elif envelope == "budget":
        budget = EnergyBudget(energy_budget_joules=scale * requests * peak)
    governor = ScheduleAwareGovernor() if governed else None
    options = dict(remap_on_finish=remap, governor=governor, budget=budget)

    production = RuntimeManager.from_components(
        platform, tables, SCHEDULERS[scheduler](), **options
    ).run(trace)
    oracle = ReferenceRuntime(
        platform, tables, reference_twin(SCHEDULERS[scheduler]()), **options
    ).run(trace)
    assert log_key(production) == log_key(oracle)
