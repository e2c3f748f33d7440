"""Equivalence tests for the incremental energy meter.

The meter must (a) reproduce the post-hoc timeline scan exactly, (b) agree
with the design-time :mod:`repro.mapping.simulate` energy estimate when a
job runs one operating point to completion, and (c) report identical energy
on the event engine and on the reference oracle.
"""

import pytest

from repro.dataflow import audio_filter
from repro.dse import DesignSpaceExplorer
from repro.energy import EnergyMeter, PerformanceGovernor, ScheduleAwareGovernor
from repro.platforms import odroid_xu4
from repro.runtime import RequestEvent, RequestTrace, RuntimeManager
from repro.schedulers import FixedMinEnergyScheduler, MMKPMDFScheduler
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_trace,
)
from tests.reference.oracle import ReferenceMDF, ReferenceRuntime


def _motivational_trace():
    return motivational_trace("S1")


class TestMeterMatchesPostHocScan:
    """Incremental accounting == a post-hoc scan over the executed timeline."""

    @pytest.mark.parametrize(
        "build,scheduler",
        [
            (RuntimeManager.from_components, MMKPMDFScheduler),
            (ReferenceRuntime, ReferenceMDF),
        ],
        ids=["events", "oracle"],
    )
    def test_totals_and_job_energy(self, build, scheduler):
        manager = build(motivational_platform(), motivational_tables(), scheduler())
        log = manager.run(_motivational_trace())
        # Post-hoc: scan the timeline the way the seed would have.
        scanned = sum(interval.energy for interval in log.timeline)
        assert log.total_energy == scanned  # exact float equality
        assert sum(log.job_energy.values()) == pytest.approx(scanned, rel=1e-12)
        cluster_total = sum(e["total"] for e in log.cluster_energy.values())
        assert cluster_total == pytest.approx(scanned, rel=1e-12)
        # Table mode is bit-identical to the seed's accounting; the meter
        # only attributes, so outcomes carry per-request energies too.
        for outcome in log.outcomes:
            if outcome.accepted:
                assert outcome.energy == pytest.approx(
                    log.job_energy[outcome.name], rel=1e-12
                )

    def test_accounting_can_be_disabled(self):
        manager = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            MMKPMDFScheduler(),
            account_energy=False,
        )
        log = manager.run(_motivational_trace())
        assert log.total_energy > 0  # the scalar total is free and stays
        assert log.cluster_energy == {}
        assert log.job_energy == {}


class TestMeterMatchesMappingSimulator:
    """One job running one operating point end-to-end costs exactly what the
    design-time trace-driven simulator estimated for that mapping."""

    def test_single_job_energy_equals_simulate_estimate(self):
        platform = odroid_xu4()
        graph = audio_filter().graph
        explorer = DesignSpaceExplorer(platform)
        table = explorer.explore(graph, application_name="audio")
        # Rebuild the most efficient point's allocation to recover the raw
        # simulate.py estimate it was generated from.
        best = table.most_efficient()
        result = explorer.evaluate_allocation(graph, best.resources)
        assert result.operating_point.energy == best.energy

        trace = RequestTrace(
            [RequestEvent(0.0, "audio", best.execution_time * 10, "job")]
        )
        manager = RuntimeManager.from_components(
            platform, {"audio": table}, FixedMinEnergyScheduler()
        )
        log = manager.run(trace)
        assert log.acceptance_rate == 1.0
        assert log.total_energy == pytest.approx(result.simulation.energy, rel=1e-9)
        assert log.job_energy["job"] == pytest.approx(result.simulation.energy, rel=1e-9)


class TestEnginesAgreeOnEnergy:
    @pytest.mark.parametrize(
        "governor_factory", [None, PerformanceGovernor, ScheduleAwareGovernor]
    )
    def test_oracle_and_events_identical(self, governor_factory):
        def run(build, scheduler):
            manager = build(
                motivational_platform(),
                motivational_tables(),
                scheduler,
                governor=governor_factory() if governor_factory else None,
            )
            return manager.run(_motivational_trace())

        events = run(RuntimeManager.from_components, MMKPMDFScheduler())
        oracle = run(ReferenceRuntime, ReferenceMDF())
        assert events.total_energy == oracle.total_energy
        assert events.cluster_energy == oracle.cluster_energy
        assert events.job_energy == oracle.job_energy
        assert len(events.timeline) == len(oracle.timeline)


class TestMeterUnit:
    def test_bare_capacity_platform_tracks_jobs_only(self):
        meter = EnergyMeter(None)
        assert meter.cluster_breakdown() == {}

    def test_analytical_requires_platform(self):
        meter = EnergyMeter(None)
        with pytest.raises(ValueError):
            meter.record_analytical(1.0, [], None)
