"""Tests for the online runtime manager."""

import threading

import pytest

from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule
from repro.exceptions import AdmissionError
from repro.runtime import RequestEvent, RequestTrace, RuntimeManager, poisson_trace
from repro.schedulers import FixedMinEnergyScheduler, MMKPMDFScheduler
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.workload.motivational import motivational_platform, motivational_tables
from tests.reference.oracle import ReferenceRuntime, reference_twin


def assert_logs_equivalent(first, second):
    """Two logs describe the same simulation (modulo wall-clock timings)."""
    deterministic = lambda o: (  # noqa: E731
        o.name, o.application, o.arrival, o.deadline, o.accepted, o.completion_time
    )
    assert [deterministic(o) for o in first.outcomes] == [
        deterministic(o) for o in second.outcomes
    ]
    assert first.timeline == second.timeline
    assert first.total_energy == second.total_energy
    assert first.activations == second.activations


@pytest.fixture()
def manager():
    return RuntimeManager.from_components(
        motivational_platform(), motivational_tables(), MMKPMDFScheduler()
    )


def two_request_trace(second_deadline: float = 4.0) -> RequestTrace:
    return RequestTrace(
        [
            RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
            RequestEvent(1.0, "lambda2", second_deadline, "sigma2"),
        ]
    )


class TestAdmission:
    def test_both_requests_admitted_and_completed(self, manager):
        log = manager.run(two_request_trace())
        assert log.acceptance_rate == 1.0
        assert not log.deadline_misses
        assert log.completion_of("sigma1") is not None
        assert log.completion_of("sigma2") is not None
        assert log.activations == 2

    def test_infeasible_request_is_rejected_without_harming_admitted_jobs(self, manager):
        # A deadline of 1 s cannot be met by any lambda2 configuration.
        log = manager.run(two_request_trace(second_deadline=1.0))
        outcomes = {o.name: o for o in log.outcomes}
        assert outcomes["sigma1"].accepted
        assert not outcomes["sigma2"].accepted
        # The previously admitted job still completes before its deadline.
        assert outcomes["sigma1"].met_deadline

    def test_unknown_application_raises(self, manager):
        trace = RequestTrace([RequestEvent(0.0, "ghost", 5.0, "r0")])
        with pytest.raises(AdmissionError):
            manager.run(trace)


class TestAccounting:
    def test_energy_matches_the_committed_schedules(self, manager):
        log = manager.run(two_request_trace())
        # Fig. 1(c): the adaptive mapper consumes 14.63 J in total.
        assert log.total_energy == pytest.approx(14.63, abs=0.01)
        assert log.makespan == pytest.approx(8.3, abs=1e-6)

    def test_timeline_is_ordered_and_gap_free(self, manager):
        log = manager.run(two_request_trace())
        intervals = log.timeline
        assert all(a.end <= b.start + 1e-9 for a, b in zip(intervals, intervals[1:]))
        assert log.total_energy == pytest.approx(
            sum(interval.energy for interval in intervals)
        )

    def test_completion_times_respect_deadlines(self, manager):
        log = manager.run(two_request_trace())
        for outcome in log.accepted:
            assert outcome.met_deadline

    def test_remap_on_finish_reduces_fixed_mapper_energy(self):
        fixed = RuntimeManager.from_components(
            motivational_platform(), motivational_tables(), FixedMinEnergyScheduler()
        )
        refined = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            FixedMinEnergyScheduler(),
            remap_on_finish=True,
        )
        trace = RequestTrace(
            [
                RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
                RequestEvent(1.0, "lambda2", 4.0, "sigma2"),
            ]
        )
        assert refined.run(trace).total_energy < fixed.run(trace).total_energy
        assert refined.run(trace).activations > fixed.run(trace).activations


class TestRejectionPath:
    def overloaded_trace(self, count=6):
        """Many simultaneous tight requests — the platform cannot serve all."""
        return RequestTrace(
            [
                RequestEvent(0.1 * index, "lambda2", 4.0, f"req{index}")
                for index in range(count)
            ]
        )

    def test_overload_rejects_but_admitted_jobs_meet_deadlines(self, manager):
        log = manager.run(self.overloaded_trace())
        assert log.rejected, "expected at least one rejection under overload"
        assert log.accepted, "expected at least one admission"
        for outcome in log.accepted:
            assert outcome.completion_time is not None
            assert outcome.met_deadline
        for outcome in log.rejected:
            assert outcome.completion_time is None

    def test_rejection_leaves_prior_schedule_in_force(self):
        """An infeasible arrival must not perturb the committed schedule."""
        tables = motivational_tables()
        base = RequestTrace([RequestEvent(0.0, "lambda1", 9.0, "sigma1")])
        with_rejection = RequestTrace(
            [
                RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
                # 1 s is below every lambda2 execution time: always rejected.
                RequestEvent(1.0, "lambda2", 1.0, "sigma2"),
            ]
        )
        manager = RuntimeManager.from_components(
            motivational_platform(), tables, MMKPMDFScheduler()
        )
        alone = manager.run(base)
        disturbed = manager.run(with_rejection)
        assert not disturbed.completion_of("sigma2")
        assert disturbed.completion_of("sigma1") == alone.completion_of("sigma1")
        assert disturbed.total_energy == pytest.approx(alone.total_energy)

    def test_rejection_path_with_remap_on_finish(self):
        """remap_on_finish must coexist with rejections (Fig. 1(b) mapper)."""
        manager = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            FixedMinEnergyScheduler(),
            remap_on_finish=True,
        )
        log = manager.run(self.overloaded_trace())
        assert log.rejected
        for outcome in log.accepted:
            assert outcome.met_deadline
        # Finish-triggered activations happened on top of the per-arrival ones.
        assert log.activations > len(log.outcomes) - len(log.rejected)


class _OvercoveringScheduler(Scheduler):
    """Returns a schedule with a ghost segment after the job completes.

    The single lambda2 job finishes exactly at t=10 (configuration 0 takes
    10 s), yet the schedule keeps mapping it during [10, 12).  The runtime
    manager must prune that ghost segment instead of logging an empty
    executed interval for it.
    """

    name = "overcovering-stub"

    def _solve(self, problem):
        job = problem.jobs[0]
        segments = [
            MappingSegment(0.0, 10.0, [JobMapping(job, 0)]),
            MappingSegment(10.0, 12.0, [JobMapping(job, 0)]),
        ]
        schedule = Schedule(segments)
        return SchedulingResult(schedule=schedule, assignment={job.name: 0})


class TestGhostEntryPruning:
    @pytest.mark.parametrize(
        "build", [RuntimeManager.from_components, ReferenceRuntime], ids=["events", "oracle"]
    )
    def test_ghost_segments_never_reach_the_timeline(self, build):
        manager = build(
            motivational_platform(), motivational_tables(), _OvercoveringScheduler()
        )
        trace = RequestTrace([RequestEvent(0.0, "lambda2", 100.0, "sigma1")])
        log = manager.run(trace)
        assert log.completion_of("sigma1") == pytest.approx(10.0)
        # Exactly one executed interval, and no empty ghost entries.
        assert len(log.timeline) == 1
        assert all(interval.job_configs for interval in log.timeline)
        assert log.makespan == pytest.approx(10.0)


class TestEngineEquivalence:
    """The event engine must reproduce the seed oracle's execution exactly."""

    def test_motivational_workload(self):
        for scheduler_factory, remap in [
            (MMKPMDFScheduler, False),
            (FixedMinEnergyScheduler, False),
            (FixedMinEnergyScheduler, True),
        ]:
            for second_deadline in (4.0, 1.0):
                trace = two_request_trace(second_deadline)
                seed = ReferenceRuntime(
                    motivational_platform(),
                    motivational_tables(),
                    reference_twin(scheduler_factory()),
                    remap_on_finish=remap,
                ).run(trace)
                events = RuntimeManager.from_components(
                    motivational_platform(),
                    motivational_tables(),
                    scheduler_factory(),
                    remap_on_finish=remap,
                ).run(trace)
                assert_logs_equivalent(events, seed)

    def test_random_traces(self):
        tables = motivational_tables()
        for seed in range(4):
            trace = poisson_trace(tables, 0.3, 12, seed=seed)
            manager = RuntimeManager.from_components(
                motivational_platform(), tables, MMKPMDFScheduler()
            )
            oracle = ReferenceRuntime(
                motivational_platform(), tables, reference_twin(MMKPMDFScheduler())
            )
            assert_logs_equivalent(manager.run(trace), oracle.run(trace))


class TestReentrancy:
    def test_shared_manager_across_threads(self):
        """Run state lives in a per-run context, so one instance is shareable."""
        tables = motivational_tables()
        manager = RuntimeManager.from_components(
            motivational_platform(), tables, MMKPMDFScheduler()
        )
        trace = poisson_trace(tables, 0.25, 10, seed=7)
        reference = manager.run(trace)
        logs = [None] * 4
        errors = []

        def worker(slot):
            try:
                logs[slot] = manager.run(trace)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for log in logs:
            assert_logs_equivalent(log, reference)


class TestRandomOnlineWorkload:
    def test_long_trace_executes_without_violations(self):
        tables = motivational_tables()
        manager = RuntimeManager.from_components(motivational_platform(), tables, MMKPMDFScheduler())
        trace = poisson_trace(
            tables, arrival_rate=0.1, num_requests=15, deadline_factor_range=(2.0, 4.0), seed=5
        )
        log = manager.run(trace)
        assert len(log.outcomes) == 15
        # Every admitted request must have completed and met its deadline:
        # the manager only admits requests with a feasible schedule.
        for outcome in log.accepted:
            assert outcome.completion_time is not None
            assert outcome.met_deadline
        assert log.total_energy > 0
