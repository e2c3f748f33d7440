"""Tests for frequency governors and schedule stretching."""

import pytest

from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule
from repro.energy import (
    GOVERNORS,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    ScheduleAwareGovernor,
    available_scales,
    build_governor,
    ensure_opps,
    required_scale,
    stretch_schedule,
)
from repro.exceptions import EnergyError
from repro.runtime import RequestEvent, RequestTrace, RuntimeManager
from repro.schedulers import MMKPMDFScheduler
from repro.workload.motivational import (
    CONFIG_2L1B,
    motivational_platform,
    motivational_tables,
    motivational_trace,
)


def _schedule(jobs):
    """A single-segment schedule [1, 6.3) running both jobs in 2L1B."""
    mappings = [JobMapping(job, CONFIG_2L1B) for job in jobs]
    return Schedule([MappingSegment(1.0, 6.3, mappings)])


class TestStretchSchedule:
    def test_future_segments_stretch_past_segments_stay(self):
        job = Job("j", "lambda1", arrival=0.0, deadline=20.0)
        schedule = Schedule(
            [
                MappingSegment(0.0, 1.0, [JobMapping(job, 0)]),
                MappingSegment(2.0, 4.0, [JobMapping(job, 1)]),
            ]
        )
        stretched = stretch_schedule(schedule, now=1.0, scale=0.5)
        first, second = stretched.segments
        assert (first.start, first.end) == (0.0, 1.0)
        assert second.start == pytest.approx(1.0 + (2.0 - 1.0) / 0.5)
        assert second.end == pytest.approx(1.0 + (4.0 - 1.0) / 0.5)

    def test_straddling_segment_stretches_only_the_future_part(self):
        job = Job("j", "lambda1", arrival=0.0, deadline=20.0)
        schedule = Schedule([MappingSegment(0.0, 4.0, [JobMapping(job, 0)])])
        stretched = stretch_schedule(schedule, now=2.0, scale=0.5)
        (segment,) = stretched.segments
        assert segment.start == 0.0
        assert segment.end == pytest.approx(2.0 + (4.0 - 2.0) / 0.5)

    def test_identity_at_nominal_scale(self):
        job = Job("j", "lambda1", arrival=0.0, deadline=20.0)
        schedule = Schedule([MappingSegment(0.0, 4.0, [JobMapping(job, 0)])])
        assert stretch_schedule(schedule, 0.0, 1.0) is schedule
        with pytest.raises(EnergyError):
            stretch_schedule(schedule, 0.0, 0.0)


class TestRequiredScale:
    def test_slack_determines_floor(self):
        jobs = {
            "sigma1": Job("sigma1", "lambda1", arrival=0.0, deadline=9.0),
            "sigma2": Job("sigma2", "lambda2", arrival=1.0, deadline=11.6),
        }
        schedule = _schedule(list(jobs.values()))
        # Completion 6.3 at now=1: sigma1 needs (6.3-1)/(9-1) = 0.6625.
        floor = required_scale(schedule, jobs, now=1.0)
        assert floor == pytest.approx((6.3 - 1.0) / 8.0)

    def test_no_future_completions_means_any_speed(self):
        jobs = {"j": Job("j", "lambda1", arrival=0.0, deadline=9.0)}
        assert required_scale(Schedule(), jobs, now=1.0) == 0.0

    def test_zero_slack_pins_nominal(self):
        jobs = {"j": Job("j", "lambda1", arrival=0.0, deadline=5.3)}
        schedule = _schedule(list(jobs.values()))
        # The deadline window is empty while the completion is still ahead.
        assert required_scale(schedule, jobs, now=5.3) == 1.0


class TestGovernors:
    def setup_method(self):
        self.platform = ensure_opps(motivational_platform())
        self.tables = motivational_tables()

    def test_registry_and_builder(self):
        assert set(GOVERNORS) == {
            "performance", "powersave", "ondemand", "schedule-aware"
        }
        assert build_governor("performance").name == "performance"
        with pytest.raises(EnergyError):
            build_governor("turbo")

    def test_performance_always_nominal(self):
        governor = PerformanceGovernor()
        assert governor.select_scale(Schedule(), {}, 0.0, self.platform, self.tables) == 1.0

    def test_powersave_always_slowest(self):
        governor = PowersaveGovernor()
        scale = governor.select_scale(Schedule(), {}, 0.0, self.platform, self.tables)
        assert scale == available_scales(self.platform)[0]

    def test_ondemand_tracks_utilisation(self):
        governor = OndemandGovernor(up_threshold=0.8)
        jobs = {
            "sigma1": Job("sigma1", "lambda1", arrival=0.0, deadline=30.0),
            "sigma2": Job("sigma2", "lambda2", arrival=1.0, deadline=30.0),
        }
        # 2L1B + 2L1B does not fit; use a single job on 2L1B: 3 of 4 cores.
        schedule = _schedule([jobs["sigma1"]])
        scale = governor.select_scale(schedule, jobs, 1.0, self.platform, self.tables)
        # Utilisation 0.75 / threshold 0.8 = 0.9375 -> next available scale.
        assert scale >= 0.9375 - 1e-9
        assert scale < 1.0 + 1e-9
        # Empty upcoming schedule idles at the slowest point.
        idle_scale = governor.select_scale(Schedule(), jobs, 10.0, self.platform, self.tables)
        assert idle_scale == available_scales(self.platform)[0]
        with pytest.raises(EnergyError):
            OndemandGovernor(up_threshold=0.0)

    def test_schedule_aware_meets_deadlines(self):
        governor = ScheduleAwareGovernor()
        jobs = {
            "sigma1": Job("sigma1", "lambda1", arrival=0.0, deadline=9.0),
            "sigma2": Job("sigma2", "lambda2", arrival=1.0, deadline=11.6),
        }
        schedule = _schedule(list(jobs.values()))
        scale = governor.select_scale(schedule, jobs, 1.0, self.platform, self.tables)
        assert scale >= required_scale(schedule, jobs, 1.0) - 1e-9
        assert scale < 1.0  # there is slack, so the governor slows down
        stretched = stretch_schedule(schedule, 1.0, scale)
        for name, job in jobs.items():
            assert stretched.completion_time(name) <= job.deadline + 1e-6


class TestGovernorRuns:
    """End-to-end governor behaviour through the runtime manager."""

    def _run(self, governor):
        manager = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            MMKPMDFScheduler(),
            governor=governor,
        )
        return manager.run(motivational_trace("S1"))

    def test_schedule_aware_saves_energy_without_misses(self):
        fixed = self._run(PerformanceGovernor())
        aware = self._run(ScheduleAwareGovernor())
        assert not fixed.deadline_misses
        assert not aware.deadline_misses
        assert aware.acceptance_rate == fixed.acceptance_rate
        assert aware.total_energy < fixed.total_energy

    def test_powersave_misses_deadlines_but_saves_energy(self):
        fixed = self._run(PerformanceGovernor())
        powersave = self._run(PowersaveGovernor())
        assert powersave.total_energy < fixed.total_energy
        assert powersave.deadline_misses

    def test_overdue_job_does_not_doom_new_arrivals(self):
        # Under powersave, sigma1 (deadline exactly its nominal 2L1B time)
        # is still running, overdue, when sigma2 arrives with ample slack
        # and free capacity.  The overdue job's deadline is relaxed to its
        # committed completion, so sigma2 must still be admitted.
        trace = RequestTrace(
            [
                RequestEvent(0.0, "lambda2", 3.0, "sigma1"),
                RequestEvent(4.0, "lambda2", 16.0, "sigma2"),
            ]
        )
        manager = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            MMKPMDFScheduler(),
            governor=PowersaveGovernor(),
        )
        log = manager.run(trace)
        assert log.acceptance_rate == 1.0
        assert log.completion_of("sigma1") is not None
        assert log.completion_of("sigma2") is not None
        # sigma1 misses (powersave semantics); sigma2 had slack to spare.
        assert any(o.name == "sigma1" for o in log.deadline_misses)

    def test_governor_requires_full_platform(self):
        with pytest.raises(Exception):
            RuntimeManager.from_components(
                motivational_platform().capacity,
                motivational_tables(),
                MMKPMDFScheduler(),
                governor=PerformanceGovernor(),
            )
