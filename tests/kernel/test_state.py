"""Units for the kernel's explicit state: ledger, schedule state, pack memo."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import TIME_EPSILON, JobMapping, MappingSegment, Schedule
from repro.energy.governor import required_scale
from repro.exceptions import SchedulingError
from repro.kernel import KernelCaches, LoadLedger, PackMemo, ScheduleState
from repro.optable.adapters import optables_for, segment_busy_counts
from repro.platforms.resources import ResourceVector
from repro.schedulers.edf_packer import pack_jobs_edf
from repro.workload.motivational import motivational_problem, motivational_tables
from tests.reference import oracle


def _schedule_and_tables():
    problem = motivational_problem("S1")
    from repro.schedulers import MMKPMDFScheduler

    schedule = MMKPMDFScheduler().schedule(problem).schedule
    return schedule, problem.tables


class TestLoadLedger:
    def test_rows_match_the_segment_rescan(self):
        schedule, tables = _schedule_and_tables()
        optables = optables_for(tables)
        dimension = 2
        ledger = LoadLedger(optables, dimension)
        for segment in schedule:
            assert ledger.busy_counts(segment) == segment_busy_counts(
                segment, tables, dimension
            )

    def test_rows_are_cached_per_segment_identity(self):
        schedule, tables = _schedule_and_tables()
        ledger = LoadLedger(optables_for(tables), 2)
        segment = schedule[0]
        assert ledger.busy_counts(segment) is ledger.busy_counts(segment)


class TestScheduleState:
    def test_completion_time_matches_schedule_scan(self):
        schedule, tables = _schedule_and_tables()
        state = ScheduleState()
        state.rebind(schedule)
        for name in schedule.job_names():
            assert state.completion_time(name) == schedule.completion_time(name)
        assert state.completion_time("nope") is None

    def test_needs_prune_mirrors_the_scan_boundary(self):
        job = Job(name="x", application="lambda1", arrival=0.0, deadline=100.0)
        other = Job(name="y", application="lambda1", arrival=0.0, deadline=100.0)
        schedule = Schedule(
            [
                MappingSegment(0.0, 2.0, [JobMapping(job, 0), JobMapping(other, 0)]),
                MappingSegment(2.0, 4.0, [JobMapping(job, 0)]),
            ]
        )
        state = ScheduleState()
        state.rebind(schedule)
        # x's last committed segment ends at 4.0: pruning at any earlier
        # timestamp would strip it, pruning at/after is a no-op — with the
        # same epsilon boundary the scan uses (end <= now + 1e-9 is history).
        assert state.needs_prune(["x"], 2.0)
        assert state.needs_prune(["x"], 4.0 - 1e-6)
        assert not state.needs_prune(["x"], 4.0)
        assert not state.needs_prune(["x"], 4.0 - 1e-10)  # within epsilon
        # y's last segment ends at 2.0.
        assert not state.needs_prune(["y"], 2.0)
        assert state.needs_prune(["y"], 1.0)
        assert not state.needs_prune(["gone"], 0.0)

    def test_dirty_set_tracks_and_clears(self):
        state = ScheduleState()
        state.dirty.update(["a", "b"])
        assert state.dirty == {"a", "b"}
        state.dirty.clear()
        assert not state.dirty


@st.composite
def pack_call_sequences(draw):
    """One problem on 1-3 resource types plus 1-20 successive assignments.

    Each step adds a job, changes one job's configuration, drops a job or
    replaces the whole assignment; about one step in ten gives its job an
    out-of-range configuration instead.
    """
    dimension = draw(st.integers(1, 3))
    capacity = [draw(st.integers(1, 4)) for _ in range(dimension)]
    tables = {}
    for application in ("alpha", "beta"):
        points = []
        for _ in range(draw(st.integers(1, 4))):
            counts = [draw(st.integers(0, limit)) for limit in capacity]
            if not any(counts):
                counts[0] = 1
            points.append(
                OperatingPoint(
                    ResourceVector(counts),
                    draw(st.floats(0.5, 6.0)),
                    draw(st.floats(0.1, 20.0)),
                )
            )
        tables[application] = ConfigTable(application, points)
    now = draw(st.sampled_from([0.0, 1.5]))
    jobs = [
        Job(
            f"job{index}",
            draw(st.sampled_from(sorted(tables))),
            arrival=0.0,
            # A small deadline set makes equal deadlines (name tie-break)
            # common.
            deadline=now + draw(st.sampled_from([2.0, 4.0, 7.5, 12.0, 30.0])),
            remaining_ratio=draw(st.sampled_from([1.0, 0.75, 0.3])),
        )
        for index in range(draw(st.integers(2, 6)))
    ]
    problem_args = (ResourceVector(capacity), tables, jobs, now)
    sizes = {job.name: len(tables[job.application]) for job in jobs}

    def config(job):
        size = sizes[job.name]
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from([-1, size, size + 2]))
        return draw(st.integers(0, size - 1))

    assignment = {}
    assignments = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["add", "change", "drop", "replace"]))
        present = [job for job in jobs if job.name in assignment]
        absent = [job for job in jobs if job.name not in assignment]
        step = dict(assignment)
        if kind == "add" and absent:
            job = draw(st.sampled_from(absent))
            step[job.name] = config(job)
        elif kind == "change" and present:
            job = draw(st.sampled_from(present))
            step[job.name] = config(job)
        elif kind == "drop" and present:
            del step[draw(st.sampled_from(present)).name]
        else:
            chosen = draw(st.lists(st.sampled_from(jobs), min_size=1, unique=True))
            step = {job.name: config(job) for job in chosen}
        assignments.append(step)
        # An out-of-range step raises, so the next step starts again from
        # the last valid assignment.
        if all(0 <= index < sizes[name] for name, index in step.items()):
            assignment = step
    return problem_args, assignments


def _segments_key(schedule):
    if schedule is None:
        return None
    return [
        (
            repr(segment.start),
            repr(segment.end),
            [(m.job_name, m.config_index) for m in segment.mappings],
        )
        for segment in schedule
    ]


def _completion_scale(schedule, jobs, now):
    """``required_scale`` written with one ``completion_time`` per job."""
    worst = 0.0
    for name, job in jobs.items():
        completion = schedule.completion_time(name)
        if completion is None or completion <= now + TIME_EPSILON:
            continue
        window = job.deadline - now
        if window <= TIME_EPSILON:
            return 1.0
        worst = max(worst, (completion - now) / window)
    return min(worst, 1.0)


class TestPackMemo:
    def test_prefix_resume_counts(self):
        from repro.schedulers.edf_packer import pack_jobs_edf

        problem = motivational_problem("S1")
        memo = problem.view().pack_memo()
        # EDF order of S1 is (sigma2: deadline 4, sigma1: deadline 9), so a
        # pack extending a sigma2-only assignment shares the sigma2 prefix.
        first = pack_jobs_edf(problem, {"sigma2": 6})
        assert first is not None
        assert memo.packs == 1 and memo.resumed_steps == 0
        assert memo.replayed_steps == 1

        second = pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 6})
        assert second is not None
        assert memo.packs == 2
        # sigma2's placement was resumed; only sigma1 was replayed.
        assert memo.resumed_steps == 1
        assert memo.replayed_steps == 2

    def test_resumed_pack_is_bit_identical_to_fresh(self):
        from repro.schedulers.edf_packer import pack_jobs_edf

        problem = motivational_problem("S2")
        assignments = [
            {"sigma1": 0},
            {"sigma1": 0, "sigma2": 3},
            {"sigma1": 1, "sigma2": 3},
            {"sigma1": 1, "sigma2": 3, "sigma3": 2},
        ]
        resumed = [pack_jobs_edf(problem, a) for a in assignments]
        for assignment, schedule in zip(assignments, resumed):
            fresh_problem = motivational_problem("S2")
            fresh = pack_jobs_edf(fresh_problem, assignment)
            assert (schedule is None) == (fresh is None)
            if schedule is not None:
                assert schedule == fresh
                for a, b in zip(schedule, fresh):
                    assert a.start == b.start and a.end == b.end
                    assert [
                        (m.job_name, m.config_index) for m in a.mappings
                    ] == [(m.job_name, m.config_index) for m in b.mappings]

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pack_call_sequences())
    def test_random_pack_sequences_match_the_oracle(self, case):
        (capacity, tables, jobs, now), assignments = case
        problem = SchedulingProblem(capacity, tables, jobs, now=now)
        memo = problem.view().pack_memo()
        by_name = {job.name: job for job in jobs}
        for calls, assignment in enumerate(assignments, start=1):
            # Every pack, a raising one included, resumes (and counts) the
            # longest prefix its EDF steps share with the recorded ones.
            ordered = sorted(
                (job for job in jobs if job.name in assignment),
                key=lambda job: (job.deadline, job.name),
            )
            recorded = list(memo.steps)
            shared = 0
            for job, step in zip(ordered, recorded):
                if step != (job.name, assignment[job.name]):
                    break
                shared += 1
            resumed_steps = memo.resumed_steps
            resumed_packs = memo.resumed_packs
            fresh = SchedulingProblem(capacity, tables, jobs, now=now)
            try:
                expected = oracle.pack_jobs_edf(fresh, assignment)
            except SchedulingError:
                expected = None
                with pytest.raises(SchedulingError):
                    pack_jobs_edf(problem, assignment)
                assert memo.steps == recorded[:shared]
            else:
                schedule = pack_jobs_edf(problem, assignment)
                assert _segments_key(schedule) == _segments_key(expected)
                assert memo.steps[:shared] == recorded[:shared]
            assert memo.packs == calls
            assert memo.resumed_steps - resumed_steps == shared
            assert memo.resumed_packs - resumed_packs == (shared > 0)
            if expected is None:
                continue
            assert repr(required_scale(schedule, by_name, now)) == repr(
                _completion_scale(schedule, by_name, now)
            )


class TestKernelCaches:
    def test_shared_slices_are_content_keyed(self):
        caches = KernelCaches()
        tables = motivational_tables()
        capacity = (2, 2)
        first = caches.shared_slices(capacity, tables)
        again = caches.shared_slices(capacity, dict(tables))
        assert first is again
        other_capacity = caches.shared_slices((4, 4), tables)
        assert other_capacity is not first
