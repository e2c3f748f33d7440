"""Tests for declarative simulation jobs and batch specs."""

import pytest

from repro.exceptions import SerializationError, WorkloadError
from repro.platforms import Platform
from repro.runtime.trace import RequestEvent, RequestTrace
from repro.service.jobs import (
    PLATFORMS,
    SCHEDULERS,
    BatchSpec,
    SimulationJob,
    TraceSpec,
)
from repro.workload.motivational import motivational_tables


class TestTraceSpec:
    def test_roundtrip(self):
        spec = TraceSpec(0.3, 12, (2.0, 5.0), seed=11)
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    def test_materialise_is_deterministic(self):
        tables = motivational_tables()
        spec = TraceSpec(0.25, 8, seed=3)
        first = spec.materialise(tables)
        second = spec.materialise(tables)
        assert [(e.time, e.application, e.name) for e in first] == [
            (e.time, e.application, e.name) for e in second
        ]
        assert len(first) == 8

    def test_invalid_dict_raises(self):
        with pytest.raises(SerializationError):
            TraceSpec.from_dict({"num_requests": 5})


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


class TestSimulationJob:
    def test_requires_exactly_one_trace_source(self):
        with pytest.raises(WorkloadError):
            SimulationJob("bad")
        with pytest.raises(WorkloadError):
            SimulationJob(
                "bad",
                trace=RequestTrace([RequestEvent(0.0, "lambda1", 5.0, "r0")]),
                trace_spec=TraceSpec(0.1, 3),
            )
        with pytest.raises(WorkloadError):
            SimulationJob("", trace_spec=TraceSpec(0.1, 3))

    def test_roundtrip_with_spec(self):
        job = SimulationJob(
            "spec-job",
            scheduler="mmkp-lr",
            platform="odroid-xu4",
            tables="motivational",
            remap_on_finish=True,
            engine="events",
            trace_spec=TraceSpec(0.2, 6, seed=5),
        )
        assert SimulationJob.from_dict(job.to_dict()) == job

    def test_roundtrip_with_explicit_trace_and_inline_tables(self):
        trace = RequestTrace(
            [
                RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
                RequestEvent(1.0, "lambda2", 4.0, "sigma2"),
            ]
        )
        job = SimulationJob("inline", trace=trace, tables=motivational_tables())
        restored = SimulationJob.from_dict(job.to_dict())
        assert restored == job
        assert len(restored.resolve_tables()) == 2
        assert [e.name for e in restored.resolve_trace(restored.resolve_tables())] == [
            "sigma1",
            "sigma2",
        ]

    def test_with_seed(self):
        job = SimulationJob("seeded", trace_spec=TraceSpec(0.2, 4, seed=1))
        assert job.with_seed(9).trace_spec.seed == 9
        explicit = SimulationJob(
            "explicit", trace=RequestTrace([RequestEvent(0.0, "lambda1", 5.0, "r0")])
        )
        with pytest.raises(WorkloadError):
            explicit.with_seed(9)

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(WorkloadError, match="engine"):
            SimulationJob("bogus", engine="bogus", trace_spec=TraceSpec(0.2, 4))

    def test_unknown_table_set_is_rejected_at_construction(self):
        valid = r"\['motivational', 'paper', 'paper-reduced'\]"
        with pytest.raises(WorkloadError, match=f"unknown table set 'papr'.*{valid}"):
            SimulationJob("typo", tables="papr", trace_spec=TraceSpec(0.2, 3))

    def test_missing_name_raises(self):
        with pytest.raises(SerializationError):
            SimulationJob.from_dict({"trace_spec": {"arrival_rate": 1, "num_requests": 1}})


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
        seeds = {job.trace_spec.seed for job in spec}
        assert seeds == {100, 101, 102, 103, 104, 105}

    def test_duplicate_names_rejected(self):
        job = SimulationJob("dup", trace_spec=TraceSpec(0.1, 2))
        with pytest.raises(WorkloadError):
            BatchSpec("batch", (job, job))

    def test_shard_partitions_the_batch(self):
        spec = BatchSpec.sweep(arrival_rates=[0.1], traces_per_point=7, num_requests=2)
        shards = [spec.shard(i, 3) for i in range(3)]
        names = [job.name for shard in shards for job in shard.jobs]
        assert sorted(names) == sorted(job.name for job in spec.jobs)
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
        assert restored.jobs == spec.jobs

    def test_from_dict_requires_jobs(self):
        with pytest.raises(SerializationError):
            BatchSpec.from_dict({"name": "empty"})

    def test_from_dict_rejects_a_retired_engine(self):
        # A batch file written with ``--engine linear`` fails at load, naming
        # the engine, instead of failing every job inside run_batch.
        data = BatchSpec.sweep(arrival_rates=[0.2], traces_per_point=1).to_dict()
        data["jobs"][0]["engine"] = "linear"
        with pytest.raises(WorkloadError, match="unknown engine 'linear'"):
            BatchSpec.from_dict(data)


class TestJobIdentity:
    """Equality/hash must cover the energy-policy fields added with DVFS."""

    def _job(self, **overrides):
        fields = dict(name="j", trace_spec=TraceSpec(0.2, 5, seed=1))
        fields.update(overrides)
        return SimulationJob(**fields)

    def test_energy_fields_break_equality(self):
        base = self._job()
        assert base == self._job()
        assert base != self._job(governor="powersave")
        assert base != self._job(power_cap_watts=5.0)
        assert base != self._job(energy_budget_joules=100.0)

    def test_energy_fields_break_the_hash(self):
        base = self._job()
        assert hash(base) == hash(self._job())
        assert hash(base) != hash(self._job(governor="powersave"))
        assert hash(base) != hash(self._job(power_cap_watts=5.0))
        assert hash(base) != hash(self._job(energy_budget_joules=100.0))
        assert hash(self._job(governor="powersave")) != hash(
            self._job(governor="ondemand")
        )

    def test_sweep_dedup_keeps_distinct_energy_configs(self):
        jobs = {
            self._job(),
            self._job(),  # true duplicate — must collapse
            self._job(governor="powersave"),
            self._job(governor="powersave", power_cap_watts=4.0),
            self._job(energy_budget_joules=50.0),
        }
        assert len(jobs) == 4

    def test_cache_keys_cannot_collide_across_energy_configs(self):
        cache = {self._job(): "pinned", self._job(governor="powersave"): "dvfs"}
        assert cache[self._job()] == "pinned"
        assert cache[self._job(governor="powersave")] == "dvfs"

    def test_inline_table_jobs_stay_usable_in_sets(self):
        # Inline (unhashable) platforms/tables stay out of the hash but
        # participate in equality.
        job = self._job(tables={"lambda1": motivational_tables()["lambda1"]})
        assert len({job, self._job()}) == 2

    def test_list_deadline_factor_range_stays_hashable(self):
        # Sweeps and hand-built specs may pass lists; the spec canonicalises
        # so job hashing (sweep dedup, cache keys) never raises.
        job = self._job(
            trace_spec=TraceSpec(0.2, 5, deadline_factor_range=[1.5, 4.0], seed=1)
        )
        assert hash(job) == hash(self._job())
        assert job == self._job()
        spec = BatchSpec.sweep(
            arrival_rates=[0.2],
            traces_per_point=1,
            num_requests=2,
            deadline_factor_range=[1.5, 4.0],
        )
        assert len({*spec.jobs}) == 1
