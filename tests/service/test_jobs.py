"""Tests for batch specs: a batch is a tuple of ExperimentSpecs."""

import pytest

from repro.api.spec import (
    EnergySpec,
    ExperimentSpec,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
)
from repro.exceptions import SerializationError, WorkloadError
from repro.io import platform_to_dict, request_trace_to_dict, tables_to_dict
from repro.platforms import Platform, odroid_xu4
from repro.runtime.trace import RequestEvent, RequestTrace
from repro.service.jobs import PLATFORMS, SCHEDULERS, BatchSpec
from repro.workload.motivational import motivational_tables


def _legacy_job(**fields) -> dict:
    """One entry of the older ``"jobs"`` batch form."""
    entry = {
        "name": "j",
        "trace_spec": {"arrival_rate": 0.2, "num_requests": 5, "seed": 1},
    }
    entry.update(fields)
    return entry


def _load_legacy(*jobs) -> BatchSpec:
    return BatchSpec.from_dict({"name": "legacy", "jobs": list(jobs)})


class TestRegistries:
    def test_all_registered_schedulers_build_fresh_instances(self):
        for name in SCHEDULERS:
            first = SCHEDULERS.build(name)
            second = SCHEDULERS.build(name)
            assert first is not second
            assert first.name == name

    def test_all_registered_platforms_build(self):
        for name in PLATFORMS:
            assert isinstance(PLATFORMS.build(name), Platform)

    def test_unknown_names_raise(self):
        with pytest.raises(WorkloadError):
            SCHEDULERS.build("nope")
        with pytest.raises(WorkloadError):
            PLATFORMS.build("nope")


class TestLegacyJobs:
    """The older ``"jobs"`` form loads through one converter."""

    def test_trace_spec_job_becomes_a_poisson_experiment(self):
        (spec,) = _load_legacy(
            _legacy_job(
                name="spec-job",
                scheduler="mmkp-lr",
                platform="odroid-xu4",
                tables="motivational",
                remap_on_finish=True,
                engine="events",
                trace_spec={
                    "arrival_rate": 0.2,
                    "num_requests": 6,
                    "deadline_factor_range": [2.0, 5.0],
                    "seed": 5,
                },
            )
        )
        assert spec == ExperimentSpec(
            name="spec-job",
            platform=PlatformSpec(name="odroid-xu4"),
            workload=WorkloadSpec.poisson(0.2, 6, (2.0, 5.0), seed=5),
            scheduler=SchedulerSpec(name="mmkp-lr", remap_on_finish=True),
            tables="motivational",
        )

    def test_explicit_trace_inline_tables_and_inline_platform(self):
        trace = RequestTrace(
            [
                RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
                RequestEvent(1.0, "lambda2", 4.0, "sigma2"),
            ]
        )
        (spec,) = _load_legacy(
            {
                "name": "inline",
                "trace": request_trace_to_dict(trace),
                "tables": tables_to_dict(motivational_tables()),
                "platform": platform_to_dict(odroid_xu4()),
            }
        )
        assert spec.workload == WorkloadSpec.from_trace(trace)
        assert spec.tables is None
        assert spec.tables_inline == tables_to_dict(motivational_tables())
        assert spec.platform == PlatformSpec.from_platform(odroid_xu4())
        tables = spec.resolve_tables()
        assert [e.name for e in spec.workload.build(tables)] == ["sigma1", "sigma2"]

    def test_energy_fields_carry_over(self):
        (spec,) = _load_legacy(
            _legacy_job(
                governor="schedule-aware",
                power_cap_watts=5,
                energy_budget_joules=100.0,
            )
        )
        assert spec.energy == EnergySpec(
            governor="schedule-aware", power_cap_watts=5.0, energy_budget_joules=100.0
        )

    def test_requires_exactly_one_trace_source(self):
        with pytest.raises(WorkloadError, match="exactly one of trace and trace_spec"):
            _load_legacy({"name": "bad"})
        both = _legacy_job(
            trace=request_trace_to_dict(
                RequestTrace([RequestEvent(0.0, "lambda1", 5.0, "r0")])
            )
        )
        with pytest.raises(WorkloadError, match="exactly one of trace and trace_spec"):
            _load_legacy(both)

    def test_unknown_engine_fails_at_load(self):
        with pytest.raises(WorkloadError, match="job 'j': unknown engine 'linear'"):
            _load_legacy(_legacy_job(engine="linear"))

    def test_unknown_table_set_fails_at_load(self):
        valid = r"\['motivational', 'paper', 'paper-reduced'\]"
        with pytest.raises(WorkloadError, match=f"unknown table set 'papr'.*{valid}"):
            _load_legacy(_legacy_job(tables="papr"))

    def test_unknown_governor_fails_at_load(self):
        with pytest.raises(WorkloadError, match="job 'j': unknown governor 'turbo'"):
            _load_legacy(_legacy_job(governor="turbo"))

    def test_missing_name_raises(self):
        with pytest.raises(SerializationError, match="missing required field 'name'"):
            _load_legacy({"trace_spec": {"arrival_rate": 1, "num_requests": 1}})

    def test_invalid_trace_spec_raises(self):
        with pytest.raises(SerializationError, match="invalid trace spec"):
            _load_legacy(_legacy_job(trace_spec={"num_requests": 5}))

    def test_old_form_resaves_in_the_new_form(self, tmp_path):
        legacy = _load_legacy(_legacy_job(name="a"), _legacy_job(name="b"))
        path = tmp_path / "batch.json"
        legacy.save(path)
        text = path.read_text()
        assert '"experiments"' in text and '"jobs"' not in text
        assert BatchSpec.load(path) == legacy


class TestBatchSpec:
    def test_sweep_shape_and_seeding(self):
        spec = BatchSpec.sweep(
            arrival_rates=[0.1, 0.2],
            schedulers=["mmkp-mdf", "fixed"],
            traces_per_point=3,
            num_requests=4,
            repeats=2,
            base_seed=100,
        )
        assert len(spec) == 2 * 2 * 3 * 2
        # The same trace seeds recur across schedulers and repeats (paired
        # comparison / repeated-sweep shape), distinct across rate × trial.
        seeds = {experiment.workload.options["seed"] for experiment in spec}
        assert seeds == {100, 101, 102, 103, 104, 105}
        assert spec.experiments[0].name == "mmkp-mdf-rate0.1-t000-rep0"

    def test_sweep_embeds_a_live_platform_and_tables_inline(self):
        spec = BatchSpec.sweep(
            arrival_rates=[0.2],
            traces_per_point=2,
            num_requests=3,
            platform=odroid_xu4(),
            tables=motivational_tables(),
        )
        for experiment in spec:
            assert experiment.platform == PlatformSpec.from_platform(odroid_xu4())
            assert experiment.tables is None
            assert experiment.tables_inline == tables_to_dict(motivational_tables())

    def test_duplicate_names_rejected(self):
        experiment = ExperimentSpec(name="dup")
        with pytest.raises(WorkloadError):
            BatchSpec("batch", (experiment, experiment))

    def test_shard_partitions_the_batch(self):
        spec = BatchSpec.sweep(arrival_rates=[0.1], traces_per_point=7, num_requests=2)
        shards = [spec.shard(i, 3) for i in range(3)]
        names = [e.name for shard in shards for e in shard]
        assert sorted(names) == sorted(e.name for e in spec)
        with pytest.raises(WorkloadError):
            spec.shard(3, 3)

    def test_save_and_load_roundtrip(self, tmp_path):
        spec = BatchSpec.sweep(
            arrival_rates=[0.15], traces_per_point=2, num_requests=3, name="disk"
        )
        path = tmp_path / "batch.json"
        spec.save(path)
        restored = BatchSpec.load(path)
        assert restored.name == "disk"
        assert restored.experiments == spec.experiments

    def test_from_dict_requires_experiments(self):
        with pytest.raises(SerializationError):
            BatchSpec.from_dict({"name": "empty"})

    def test_from_dict_rejects_a_retired_engine(self):
        # A batch file written with ``--engine linear`` fails at load, naming
        # the engine, instead of failing every job inside run_batch.
        data = BatchSpec.sweep(arrival_rates=[0.2], traces_per_point=1).to_dict()
        data["experiments"][0]["engine"] = "linear"
        with pytest.raises(WorkloadError, match="unknown engine 'linear'"):
            BatchSpec.from_dict(data)

    def test_unknown_governor_fails_at_load_in_the_new_form_too(self):
        data = BatchSpec.sweep(arrival_rates=[0.2], traces_per_point=1).to_dict()
        data["experiments"][0]["energy"] = {"governor": "turbo"}
        with pytest.raises(WorkloadError, match="unknown governor 'turbo'"):
            BatchSpec.from_dict(data)

    def test_with_energy_policy_overrides_only_the_fields_passed(self):
        base = BatchSpec(
            "policy",
            (
                ExperimentSpec(
                    name="e",
                    energy=EnergySpec(power_cap_watts=4.0, account_energy=False),
                ),
            ),
        )
        (replayed,) = base.with_energy_policy(governor="powersave")
        assert replayed.energy == EnergySpec(
            governor="powersave", power_cap_watts=4.0, account_energy=False
        )
        (cleared,) = base.with_energy_policy(power_cap_watts=None)
        assert cleared.energy == EnergySpec(account_energy=False)
        with pytest.raises(WorkloadError, match="unknown governor"):
            base.with_energy_policy(governor="turbo")

    def test_energy_fields_break_equality(self):
        def batch(**energy):
            experiment = ExperimentSpec(name="e", energy=EnergySpec(**energy))
            return BatchSpec("b", (experiment,))

        assert batch() == batch()
        assert batch() != batch(governor="powersave")
        assert batch() != batch(power_cap_watts=5.0)
        assert batch() != batch(energy_budget_joules=100.0)
        assert batch() != batch(account_energy=False)
