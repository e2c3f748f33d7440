"""Tests for the concurrent batch-simulation service."""

import pytest

from repro.analysis.experiments import SuiteResults
from repro.api.spec import ExperimentSpec, SchedulerSpec, WorkloadSpec
from repro.runtime.trace import RequestEvent, RequestTrace
from repro.service.jobs import BatchSpec
from repro.service.pool import BatchResults, SimulationResult, SimulationService


def small_sweep(traces=6, num_requests=4, repeats=1, name="sweep"):
    return BatchSpec.sweep(
        arrival_rates=[0.2],
        schedulers=["mmkp-mdf"],
        traces_per_point=traces,
        num_requests=num_requests,
        repeats=repeats,
        name=name,
    )


class TestRunBatch:
    def test_results_are_in_job_order_and_complete(self):
        spec = small_sweep()
        results = SimulationService(workers=1).run_batch(spec)
        assert len(results) == len(spec)
        assert [r.job_name for r in results] == [job.name for job in spec.experiments]
        assert results.failures == []
        for result in results:
            assert result.requests == 4
            assert 0 <= result.accepted <= 4
            assert result.outcomes and result.total_energy > 0

    def test_empty_batch(self):
        results = SimulationService().run_batch([])
        assert len(results) == 0
        assert results.aggregate()["traces"] == 0

    def test_progress_callback_sees_every_job(self):
        spec = small_sweep(traces=4)
        seen = []
        SimulationService(workers=2).run_batch(
            spec, progress=lambda index, result: seen.append(index)
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_failure_isolation(self):
        ghost_trace = RequestTrace([RequestEvent(0.0, "ghost-app", 5.0, "r0")])
        jobs = [
            ExperimentSpec("good-1", workload=WorkloadSpec.poisson(0.2, 3, seed=1)),
            ExperimentSpec("bad", workload=WorkloadSpec.from_trace(ghost_trace)),
            ExperimentSpec("good-2", workload=WorkloadSpec.poisson(0.2, 3, seed=2)),
        ]
        results = SimulationService(workers=1).run_batch(jobs)
        assert [r.ok for r in results] == [True, False, True]
        assert "AdmissionError" in results.result("bad").error
        assert results.aggregate()["failed"] == 1

    def test_unknown_scheduler_is_isolated_too(self):
        jobs = [
            ExperimentSpec(
                "bad-sched",
                scheduler=SchedulerSpec(name="nope"),
                workload=WorkloadSpec.poisson(0.2, 2),
            )
        ]
        results = SimulationService().run_batch(jobs)
        assert not results[0].ok and "WorkloadError" in results[0].error


class TestDeterminism:
    def test_workers_1_and_4_are_bit_identical_over_200_traces(self):
        """The headline guarantee: fan-out never changes the results."""
        spec = BatchSpec.sweep(
            arrival_rates=[0.15, 0.35],
            schedulers=["mmkp-mdf"],
            traces_per_point=100,
            num_requests=3,
            name="determinism",
        )
        assert len(spec) == 200
        serial = SimulationService(workers=1, executor="serial").run_batch(spec)
        threaded = SimulationService(workers=4, executor="thread").run_batch(spec)
        assert serial.failures == [] and threaded.failures == []
        assert serial.fingerprint() == threaded.fingerprint()
        # Aggregates derived from the fingerprinted fields match exactly.
        for key in ("requests", "accepted", "total_energy", "activations"):
            assert serial.aggregate()[key] == threaded.aggregate()[key]

    def test_repeated_runs_of_one_service_are_stable(self):
        spec = small_sweep(traces=5, repeats=2)
        service = SimulationService(workers=2)
        first = service.run_batch(spec)
        second = service.run_batch(spec)  # now served mostly from cache
        assert first.fingerprint() == second.fingerprint()

    def test_process_executor_matches_serial(self):
        spec = small_sweep(traces=4, num_requests=3)
        serial = SimulationService(workers=1, executor="serial").run_batch(spec)
        try:
            processed = SimulationService(workers=2, executor="process").run_batch(spec)
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable in this sandbox: {error}")
        assert processed.fingerprint() == serial.fingerprint()


class TestCachingBehaviour:
    def test_repeats_hit_the_cache(self):
        spec = small_sweep(traces=3, repeats=4)
        service = SimulationService(workers=1)
        results = service.run_batch(spec)
        info = service.cache.info()
        assert info["hits"] > 0
        assert info["hit_rate"] > 0.5
        # Every activation asked the memo once.
        assert info["hits"] + info["misses"] == results.aggregate()["activations"]

    def test_cache_off_runs_clean(self):
        spec = small_sweep(traces=3)
        service = SimulationService(workers=1, cache_size=0)
        results = service.run_batch(spec)
        assert results.failures == []
        assert service.cache is None
        assert results.aggregate()["activations"] > 0

    def test_cache_size_zero_is_cache_off_on_every_executor(self):
        """A zero-size cache means no cache on every executor, and the same
        fingerprint as a cached run."""
        spec = BatchSpec.sweep(
            arrival_rates=[1.5],
            schedulers=["mmkp-mdf"],
            traces_per_point=4,
            num_requests=6,
        )
        cached = SimulationService().run_batch(spec).fingerprint()
        for executor in ("serial", "thread", "process", "cluster"):
            service = SimulationService(workers=2, executor=executor, cache_size=0)
            assert service.cache is None
            assert service.run_batch(spec).fingerprint() == cached, executor

    def test_cached_and_uncached_agree_on_admissions(self):
        spec = small_sweep(traces=6, num_requests=5)
        cached = SimulationService(workers=1).run_batch(spec)
        uncached = SimulationService(workers=1, cache_size=0).run_batch(spec)
        assert cached.failures == []
        assert cached.fingerprint() == uncached.fingerprint()


class TestAggregation:
    def test_aggregate_and_result_lookup(self):
        spec = small_sweep(traces=4)
        results = SimulationService().run_batch(spec)
        aggregate = results.aggregate()
        assert aggregate["traces"] == 4
        assert aggregate["requests"] == 16
        assert aggregate["acceptance_rate"] == pytest.approx(
            aggregate["accepted"] / aggregate["requests"]
        )
        first = spec.experiments[0].name
        assert results.result(first).job_name == first
        stats = results.search_time_stats()
        assert stats.minimum >= 0

    def test_bridges_into_suite_results(self):
        spec = small_sweep(traces=5)
        results = SimulationService().run_batch(spec)
        suite = results.to_suite_results()
        assert isinstance(suite, SuiteResults)
        runs = suite.runs_of("mmkp-mdf")
        assert len(runs) == 5
        assert all(run.deadline_level is None for run in runs)
        # Aggregating over all (None) deadline levels works; the job-count
        # axis is the per-trace request count (4 in this sweep).
        rate = suite.scheduling_rate("mmkp-mdf", deadline_level=None)
        assert set(rate) == {4}

    def test_to_dict_is_json_ready(self):
        import json

        spec = small_sweep(traces=2)
        results = SimulationService().run_batch(spec)
        payload = results.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["aggregate"]["traces"] == 2
        assert len(payload["results"]) == 2
        assert payload["fingerprint"] == results.fingerprint()


class TestValidation:
    def test_bad_constructor_arguments(self):
        with pytest.raises(Exception):
            SimulationService(workers=0)
        with pytest.raises(Exception):
            SimulationService(executor="carrier-pigeon")
