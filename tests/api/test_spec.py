"""Tests for the typed :class:`ExperimentSpec` tree of :mod:`repro.api.spec`."""

import pytest

from repro.api.spec import (
    ENGINES,
    DSESpec,
    EnergySpec,
    ExperimentSpec,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
)
from repro.exceptions import SerializationError, WorkloadError
from repro.platforms import Platform, odroid_xu4


def _rich_spec() -> ExperimentSpec:
    """A spec exercising every section with non-default values."""
    return ExperimentSpec(
        name="rich",
        platform=PlatformSpec(name="odroid-xu4"),
        workload=WorkloadSpec.poisson(
            arrival_rate=0.4, num_requests=6, deadline_factor_range=(2.0, 5.0), seed=9
        ),
        scheduler=SchedulerSpec(name="mmkp-lr", remap_on_finish=True),
        energy=EnergySpec(
            governor="schedule-aware", power_cap_watts=9.5, energy_budget_joules=400.0
        ),
        tables="motivational",
        engine="events",
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _rich_spec()
        path = tmp_path / "experiment.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_dse_and_inline_tables_round_trip(self):
        spec = ExperimentSpec(
            name="dse",
            dse=DSESpec(input_sizes=("medium",), sweep_opps=True, max_points=4),
            tables=None,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_tuples_canonicalise_to_lists(self):
        # JSON hands back lists where callers passed tuples; specs normalise
        # at construction so equality survives the round trip.
        a = WorkloadSpec(source="poisson", options={"arrival_rate": 0.2,
                                                    "num_requests": 3,
                                                    "deadline_factor_range": (1.5, 4.0)})
        b = WorkloadSpec(source="poisson", options={"arrival_rate": 0.2,
                                                    "num_requests": 3,
                                                    "deadline_factor_range": [1.5, 4.0]})
        assert a == b

    def test_inline_platform_round_trips_and_builds(self):
        spec = PlatformSpec.from_platform(odroid_xu4())
        again = PlatformSpec.from_dict(spec.to_dict())
        assert again == spec
        platform = again.build()
        assert isinstance(platform, Platform)
        assert platform.name == "odroid-xu4"

    def test_bad_json_raises_serialization_error(self):
        with pytest.raises(SerializationError):
            ExperimentSpec.from_json("{not json")
        with pytest.raises(SerializationError):
            ExperimentSpec.from_dict({"workload": "nope"})
        with pytest.raises(SerializationError):
            ExperimentSpec.load("/does/not/exist.json")


class TestValidation:
    def test_engine_validated(self):
        with pytest.raises(WorkloadError, match="engine"):
            ExperimentSpec(engine="quantum")
        # The seed "linear" engine lives on only as the test-side oracle.
        with pytest.raises(WorkloadError, match="engine"):
            ExperimentSpec(engine="linear")

    def test_engines_match_the_runtime_manager(self):
        from repro.runtime.manager import ENGINES as MANAGER_ENGINES

        assert ENGINES == MANAGER_ENGINES

    def test_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            ExperimentSpec(name="")

    def test_platform_requires_exactly_one_source(self):
        with pytest.raises(WorkloadError):
            PlatformSpec(name=None, inline=None)
        with pytest.raises(WorkloadError):
            PlatformSpec(name="motivational", inline={"name": "x"})

    def test_tables_sources_are_mutually_exclusive(self):
        with pytest.raises(WorkloadError):
            ExperimentSpec(tables="motivational", tables_inline={"t": {}})
        with pytest.raises(WorkloadError):
            ExperimentSpec(tables=None, tables_inline=None, dse=None)

    def test_dse_with_named_tables_is_rejected_not_ignored(self):
        # The silent-footgun shape: the defaulted tables="motivational" next
        # to a dse section would shadow the exploration entirely.
        with pytest.raises(WorkloadError, match="dse"):
            ExperimentSpec(name="oops", dse=DSESpec(sweep_opps=True))
        with pytest.raises(WorkloadError, match="dse"):
            ExperimentSpec(
                name="oops", dse=DSESpec(), tables=None, tables_inline={"t": {}}
            )

    def test_energy_envelope_must_be_positive(self):
        with pytest.raises(WorkloadError):
            EnergySpec(power_cap_watts=-1.0)
        with pytest.raises(WorkloadError):
            EnergySpec(energy_budget_joules=0.0)

    def test_dse_max_points_must_be_positive(self):
        with pytest.raises(WorkloadError):
            DSESpec(max_points=0)

    def test_unseeded_workload_cannot_reseed(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec.scenario("S1").with_seed(3)
        reseeded = WorkloadSpec.poisson(0.2, 4, seed=1).with_seed(7)
        assert reseeded.options["seed"] == 7

    def test_reseed_works_without_an_explicit_seed_key(self):
        # poisson's factory defaults the seed, so a spec that omits the key
        # is still seedable (trials fan-out must not reject it).
        spec = WorkloadSpec(
            source="poisson", options={"arrival_rate": 0.3, "num_requests": 4}
        )
        assert spec.with_seed(9).options["seed"] == 9
        job = ExperimentSpec(name="ns", workload=spec).to_job(seed=9)
        assert job.trace_spec.seed == 9

    def test_bad_scheduler_options_raise_workload_error(self):
        with pytest.raises(WorkloadError, match="bogus"):
            SchedulerSpec(name="mmkp-mdf", options={"bogus": 1}).build()


class TestBuilders:
    def test_sections_build_live_objects(self):
        spec = _rich_spec()
        assert spec.platform.build().name == "odroid-xu4"
        assert spec.scheduler.build().name == "mmkp-lr"
        assert spec.energy.build_governor().name == "schedule-aware"
        budget = spec.energy.build_budget()
        assert budget.power_cap_watts == 9.5
        tables = spec.resolve_tables()
        assert set(tables) == {"lambda1", "lambda2"}

    def test_default_energy_builds_nothing(self):
        energy = EnergySpec()
        assert energy.build_governor() is None
        assert energy.build_budget() is None

    def test_workload_build_uses_the_registered_source(self):
        from repro.workload.motivational import motivational_tables

        trace = WorkloadSpec.scenario("S2").build(motivational_tables())
        assert len(trace) > 0

    def test_bad_workload_options_raise_workload_error_not_type_error(self):
        from repro.workload.motivational import motivational_tables

        tables = motivational_tables()
        missing = WorkloadSpec(source="poisson", options={"num_requests": 4})
        with pytest.raises(WorkloadError, match="poisson"):
            missing.build(tables)
        typo = WorkloadSpec(
            source="poisson",
            options={"arival_rate": 0.2, "num_requests": 4},
        )
        with pytest.raises(WorkloadError, match="arival_rate"):
            typo.build(tables)

    def test_from_trace_embeds_events(self):
        from repro.runtime.trace import RequestEvent, RequestTrace

        trace = RequestTrace([RequestEvent(0.0, "lambda1", 9.0, "r0")])
        spec = WorkloadSpec.from_trace(trace)
        assert spec.source == "explicit"
        from repro.workload.motivational import motivational_tables

        rebuilt = spec.build(motivational_tables())
        assert [e.name for e in rebuilt] == ["r0"]

    def test_scheduler_options_forwarded_to_factory(self):
        from repro.api.registry import schedulers

        captured = {}

        class _Configurable:
            name = "test-configurable"

            def __init__(self, knob=0):
                captured["knob"] = knob

            def schedule(self, problem):  # pragma: no cover — never called
                raise NotImplementedError

        schedulers.register("test-configurable", _Configurable)
        try:
            SchedulerSpec(name="test-configurable", options={"knob": 5}).build()
            assert captured["knob"] == 5
        finally:
            schedulers.unregister("test-configurable")


class TestJobBridge:
    def test_to_job_and_back(self):
        spec = _rich_spec()
        job = spec.to_job()
        assert job.name == "rich"
        assert job.scheduler == "mmkp-lr"
        assert job.platform == "odroid-xu4"
        assert job.governor == "schedule-aware"
        assert job.power_cap_watts == 9.5
        assert job.trace_spec.arrival_rate == 0.4
        assert ExperimentSpec.from_job(job) == spec

    def test_to_job_reseeds_poisson_workloads(self):
        job = _rich_spec().to_job(name="trial-3", seed=42)
        assert job.name == "trial-3"
        assert job.trace_spec.seed == 42

    def test_to_job_materialises_non_poisson_sources(self):
        spec = ExperimentSpec(name="s1", workload=WorkloadSpec.scenario("S1"))
        job = spec.to_job()
        assert job.trace is not None and job.trace_spec is None
        with pytest.raises(WorkloadError):
            spec.to_job(seed=1)

    def test_to_job_validates_options_like_the_run_path(self):
        # Batch and single-run must agree: a typo'd or missing option key is
        # an error in both, never silently-run defaults.
        missing = ExperimentSpec(
            name="m",
            workload=WorkloadSpec(source="poisson", options={"num_requests": 4}),
        )
        with pytest.raises(WorkloadError, match="poisson"):
            missing.to_job()
        typo = ExperimentSpec(
            name="t",
            workload=WorkloadSpec(
                source="poisson",
                options={"arrival_rate": 0.2, "num_requests": 4, "burst": 3},
            ),
        )
        with pytest.raises(WorkloadError, match="burst"):
            typo.to_job()

    def test_third_party_seeded_sources_are_batchable(self):
        from repro.api.registry import register_trace_source, trace_sources
        from repro.runtime.trace import RequestEvent, RequestTrace

        @register_trace_source("test-seeded")
        def _seeded(tables, *, seed):
            return RequestTrace(
                [RequestEvent(float(seed), "lambda1", 30.0, f"r{seed}")]
            )

        try:
            spec = ExperimentSpec(
                name="seeded",
                workload=WorkloadSpec(source="test-seeded", options={"seed": 0}),
            )
            job = spec.to_job(name="trial", seed=4)
            assert [e.name for e in job.trace] == ["r4"]
        finally:
            trace_sources.unregister("test-seeded")

    def test_to_job_rejects_scheduler_options(self):
        spec = ExperimentSpec(
            name="opt", scheduler=SchedulerSpec(name="mmkp-mdf", options={"x": 1})
        )
        with pytest.raises(WorkloadError):
            spec.to_job()

    def test_to_job_accepts_materialised_tables(self):
        from repro.workload.motivational import motivational_tables

        tables = motivational_tables()
        job = ExperimentSpec(name="inline-tables").to_job(tables=tables)
        assert not isinstance(job.tables, str)
        assert set(job.tables) == {"lambda1", "lambda2"}
