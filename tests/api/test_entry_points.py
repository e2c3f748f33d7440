"""The canonical entry points: warning-free, equivalent, and the only ones.

``RuntimeManager.from_components`` / ``RuntimeManager.from_spec`` and the
registries are the ways to build a manager and its components.  None of the
paths a caller takes (components, spec, Session, batch service) may emit a
``DeprecationWarning``, the spec path must run bit-identically to the
components it names, and the retired pre-``repro.api`` constructors stay
gone.
"""

import warnings

import pytest

from repro.runtime.manager import RuntimeManager
from repro.schedulers import MMKPMDFScheduler
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_trace,
)


def _log_key(log):
    return (
        [(o.name, o.accepted, repr(o.completion_time), repr(o.energy))
         for o in log.outcomes],
        [(repr(i.start), repr(i.end), i.job_configs, repr(i.energy))
         for i in log.timeline],
        repr(log.total_energy),
        log.activations,
    )


class TestRuntimeManagerConstruction:
    def test_from_components_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RuntimeManager.from_components(
                motivational_platform(), motivational_tables(), MMKPMDFScheduler()
            )

    def test_from_spec_matches_from_components(self):
        from repro.api import EnergySpec, ExperimentSpec, SchedulerSpec, WorkloadSpec

        spec = ExperimentSpec(
            name="entry",
            workload=WorkloadSpec.scenario("S2"),
            scheduler=SchedulerSpec(name="mmkp-mdf", remap_on_finish=True),
            energy=EnergySpec(governor="schedule-aware"),
        )
        from_spec = RuntimeManager.from_spec(spec)
        from_components = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            MMKPMDFScheduler(),
            remap_on_finish=True,
            governor=spec.energy.build_governor(),
        )
        trace = motivational_trace("S2")
        assert _log_key(from_spec.run(trace)) == _log_key(from_components.run(trace))

    def test_direct_construction_is_gone(self):
        with pytest.raises(TypeError):
            RuntimeManager(
                motivational_platform(), motivational_tables(), MMKPMDFScheduler()
            )


class TestNoDeprecatedPaths:
    def test_builder_shims_are_gone(self):
        import repro.service
        import repro.service.jobs

        for module in (repro.service, repro.service.jobs):
            assert not hasattr(module, "build_scheduler")
            assert not hasattr(module, "build_platform")

    def test_batch_service_path_does_not_warn(self):
        from repro.service import BatchSpec, SimulationService

        spec = BatchSpec.sweep(
            arrival_rates=[0.2], traces_per_point=2, num_requests=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = SimulationService(workers=1).run_batch(spec)
        assert results.failures == []

    def test_session_path_does_not_warn(self):
        """Spec resolution, registries, the admission pipeline and commits."""
        from repro.api import ExperimentSpec, Session, WorkloadSpec

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = ExperimentSpec(
                name="clean", workload=WorkloadSpec.scenario("S1")
            )
            log = Session.from_spec(spec).run()
        assert log.acceptance_rate == 1.0
