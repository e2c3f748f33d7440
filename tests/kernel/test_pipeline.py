"""Pipeline behaviour: stages, prune gating, kernel events, warm starts."""

import pytest

from repro.api import ExperimentSpec, RunEventKind, Session, WorkloadSpec
from repro.runtime.manager import RuntimeManager
from repro.schedulers import MMKPLRScheduler, MMKPMDFScheduler
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_trace,
)

from tests.reference import oracle
from tests.reference.oracle import log_key


def _manager(scheduler=None, **kwargs):
    return RuntimeManager.from_components(
        motivational_platform(),
        motivational_tables(),
        scheduler if scheduler is not None else MMKPMDFScheduler(),
        **kwargs,
    )


class TestKernelEvent:
    def test_stream_carries_one_kernel_summary(self):
        spec = ExperimentSpec(name="k", workload=WorkloadSpec.scenario("S1"))
        events = list(Session.from_spec(spec).stream())
        kinds = [event.kind for event in events]
        assert kinds.count(RunEventKind.KERNEL) == 1
        assert kinds[-2] is RunEventKind.KERNEL
        assert kinds[-1] is RunEventKind.END
        summary = events[-2].data
        for key in (
            "activations",
            "packs",
            "resumed_steps",
            "replayed_steps",
            "prunes_skipped",
            "prune_scans",
            "commits",
            "delta_share",
        ):
            assert key in summary
        assert summary["activations"] == 2
        assert summary["commits"] >= 2


class TestDoublePruneBoundary:
    """Regression: a segment finishing exactly at a reschedule timestamp.

    The seed (the reference oracle) prunes twice at that instant — once
    when the job finishes, against the committed schedule, and once more
    when planning the freshly solved one, where the scan is the identity by
    construction (every mapped job is active).  The kernel skips both
    redundant scans via the ledger gate and by not pruning fresh schedules;
    behaviour at the exact boundary time must be bit-identical either way.
    """

    def test_boundary_prune_runs_once_under_the_kernel(self, monkeypatch):
        def counting(prune, calls):
            def wrapper(schedule, active, now):
                calls.append(now)
                return prune(schedule, active, now)

            return wrapper

        manager = _manager(remap_on_finish=True)
        kernel_calls = []
        manager._without_finished = counting(manager._without_finished, kernel_calls)
        kernel_log = manager.run(motivational_trace("S2"))

        seed_calls = []
        monkeypatch.setattr(
            oracle, "_without_finished", counting(oracle._without_finished, seed_calls)
        )
        seed_log = oracle.ReferenceRuntime(
            motivational_platform(),
            motivational_tables(),
            oracle.reference_twin(MMKPMDFScheduler()),
            remap_on_finish=True,
        ).run(motivational_trace("S2"))

        # S2 has finishes that trigger remap-on-finish reschedules exactly
        # at committed segment ends; the seed rescans per arrival plan and
        # per reschedule plan on top of the finish prunes.
        assert len(seed_calls) > len(kernel_calls)
        # The kernel only ever scans when the scan will change the schedule
        # (ghost segments present); the identity scans are gated out.
        finish_times = {o.completion_time for o in kernel_log.outcomes}
        assert all(any(abs(c - t) < 1e-9 for t in finish_times) for c in kernel_calls)
        # And the boundary-time behaviour is unchanged, bit for bit.
        assert log_key(kernel_log) == log_key(seed_log)

    def test_segment_ending_exactly_at_prune_time_is_kept_as_history(self):
        from repro.core.request import Job
        from repro.core.segment import JobMapping, MappingSegment, Schedule

        manager = _manager()
        ghost = Job(name="ghost", application="lambda1", arrival=0.0, deadline=99.0)
        live = Job(name="live", application="lambda1", arrival=0.0, deadline=99.0)
        active = {"live": live}
        boundary = MappingSegment(0.0, 2.0, [JobMapping(ghost, 0), JobMapping(live, 0)])
        future = MappingSegment(2.0, 3.0, [JobMapping(ghost, 0), JobMapping(live, 0)])
        schedule = Schedule([boundary, future])

        # Prune exactly at the segment boundary: the segment ending at the
        # reschedule timestamp is history (kept verbatim, ghost included);
        # only the strictly-future segment loses the ghost mapping.
        once = manager._without_finished(schedule, active, 2.0)
        assert once[0] is boundary
        assert [m.job_name for m in once[1]] == ["live"]
        assert once[1].start == 2.0 and once[1].end == 3.0

        # Applying the prune a second time at the same timestamp must be the
        # identity — double-pruning may not drop or rewrite anything.
        twice = manager._without_finished(once, active, 2.0)
        assert twice is once

        # Epsilon boundary: a ghost sliver ending within the time tolerance
        # of the prune timestamp counts as history and is kept; the same
        # sliver seen from a timestamp more than epsilon earlier is future
        # and is stripped.
        sliver = MappingSegment(2.0, 2.0 + 2e-9, [JobMapping(ghost, 0)])
        kept = manager._without_finished(Schedule([boundary, sliver]), active, 2.0 + 2e-9)
        assert kept[1] is sliver
        stripped = manager._without_finished(Schedule([boundary, sliver]), active, 2.0)
        assert list(stripped) == [boundary]


class TestWarmStarts:
    def test_service_batch_shares_lr_relaxations(self):
        from repro.api.spec import SchedulerSpec
        from repro.service import SimulationService

        jobs = [
            ExperimentSpec(
                name=f"warm-{i}",
                scheduler=SchedulerSpec(name="mmkp-lr"),
                workload=WorkloadSpec.poisson(arrival_rate=0.4, num_requests=6, seed=9),
            )
            for i in range(3)
        ]
        service = SimulationService(cache_size=0)
        results = service.run_batch(jobs)
        assert results.failures == []
        info = service.kernel_caches.solve_cache.info()
        # Identical jobs pose identical relaxations: jobs 2 and 3 replay
        # job 1's solves from the shared warm-start cache.
        assert info["hits"] > 0

    def test_session_managers_share_one_cache_store(self):
        spec = ExperimentSpec(name="warm", workload=WorkloadSpec.scenario("S1"))
        session = Session.from_spec(spec)
        first = session.run()
        second = session.run()
        assert log_key(first) == log_key(second)
        assert session.kernel_caches.info()["slice_sets"] == 1

    def test_lr_keeps_an_injected_cache(self):
        from repro.kernel import KernelCaches
        from repro.optable import SolveCache

        injected = SolveCache()
        scheduler = MMKPLRScheduler(solve_cache=injected)
        manager = _manager(scheduler)
        manager.run(motivational_trace("S1"))
        assert scheduler.solve_cache is injected

        adopted = MMKPLRScheduler()
        own = adopted.solve_cache
        manager = _manager(adopted)
        manager.run(motivational_trace("S1"))
        # The shared store was adopted for the run (it holds the run's
        # relaxations) and released afterwards, so a later activation
        # outside a run on the same instance uses its own cache again.
        assert adopted.solve_cache is own
        assert len(manager._kernel_caches.solve_cache) > 0


class TestPruneGateStatistics:
    def test_no_ghosts_means_no_scans(self):
        events = []
        _manager().run(motivational_trace("S1"), observer=events.append)
        summary = next(e for e in events if e.kind is RunEventKind.KERNEL).data
        assert summary["prune_scans"] == 0
