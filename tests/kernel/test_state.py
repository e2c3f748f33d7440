"""Units for the kernel's explicit state: ledger, schedule state, pack memo."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import TIME_EPSILON, JobMapping, MappingSegment, Schedule
from repro.energy.governor import required_scale
from repro.exceptions import SchedulingError
from repro.kernel import KernelCaches, LoadLedger, ScheduleState
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
def pack_problems(draw):
    """``(capacity, tables, jobs, now)`` on 1-3 resource types, 2-6 jobs."""
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
    return ResourceVector(capacity), tables, jobs, now


def draw_config(draw, tables, job):
    """A configuration of ``job``; about one draw in ten is out of range."""
    size = len(tables[job.application])
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([-1, size, size + 2]))
    return draw(st.integers(0, size - 1))


@st.composite
def pack_call_sequences(draw):
    """One problem plus 1-20 successive assignments.

    Each step adds a job, changes one job's configuration, drops a job or
    replaces the whole assignment; about one step in ten gives its job an
    out-of-range configuration instead.
    """
    problem_args = draw(pack_problems())
    tables, jobs = problem_args[1], problem_args[2]
    sizes = {job.name: len(tables[job.application]) for job in jobs}
    assignment = {}
    assignments = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["add", "change", "drop", "replace"]))
        present = [job for job in jobs if job.name in assignment]
        absent = [job for job in jobs if job.name not in assignment]
        step = dict(assignment)
        if kind == "add" and absent:
            job = draw(st.sampled_from(absent))
            step[job.name] = draw_config(draw, tables, job)
        elif kind == "change" and present:
            job = draw(st.sampled_from(present))
            step[job.name] = draw_config(draw, tables, job)
        elif kind == "drop" and present:
            del step[draw(st.sampled_from(present)).name]
        else:
            chosen = draw(st.lists(st.sampled_from(jobs), min_size=1, unique=True))
            step = {job.name: draw_config(draw, tables, job) for job in chosen}
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


def _records_key(records):
    """:func:`_segments_key` of a trajectory snapshot's segment records."""
    return [
        (repr(start), repr(end), [(m.job_name, m.config_index) for m in mappings])
        for start, end, mappings in records
    ]


def _trajectory(memo):
    """The committed ``(job name, configuration)`` steps, in EDF order."""
    return [(step[1].job_name, step[1].config_index) for step in memo.steps]


def _edf_steps(jobs, assignment):
    ordered = sorted(
        (job for job in jobs if job.name in assignment),
        key=lambda job: (job.deadline, job.name),
    )
    return [(job.name, assignment[job.name]) for job in ordered]


def _oracle_pack(problem_args, assignment):
    """The oracle's pack of ``assignment`` on a fresh problem, or ``raise``."""
    capacity, tables, jobs, now = problem_args
    fresh = SchedulingProblem(capacity, tables, jobs, now=now)
    try:
        return oracle.pack_jobs_edf(fresh, assignment)
    except SchedulingError:
        return "raise"


def _assert_snapshots_match_the_oracle(memo, problem_args):
    """Every filled snapshot is the oracle's pack of that committed prefix."""
    capacity, tables, jobs, now = problem_args
    steps = _trajectory(memo)
    assert len(memo.snapshots) == len(steps) + 1
    assert memo.snapshots[0] is not None and memo.snapshots[-1] is not None
    for count, snapshot in enumerate(memo.snapshots):
        if snapshot is None:
            continue
        records, columns = snapshot[0], snapshot[1:]
        expected = _oracle_pack(problem_args, dict(steps[:count]))
        assert _records_key(records) == _segments_key(expected)
        for k, column in enumerate(columns):
            assert list(column) == [
                sum(
                    tables[m.application][m.config_index].resources[k]
                    for m in mappings
                )
                for _, _, mappings in records
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
    def test_trial_probes_resume_at_the_trial_rank(self):
        problem = motivational_problem("S1")
        memo = problem.view().pack_memo()
        # EDF order of S1 is (sigma2: deadline 4, sigma1: deadline 9).
        assert pack_jobs_edf(problem, {"sigma2": 6}, trial="sigma2") is memo
        assert memo.packs == 1 and memo.resumed_steps == 0
        assert memo.replayed_steps == 1
        assert _trajectory(memo) == [("sigma2", 6)]

        # sigma1 ranks after the committed sigma2: the probe resumes from
        # the committed final state and places sigma1 alone.
        assert pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 6}, trial="sigma1")
        assert memo.packs == 2
        assert memo.resumed_steps == 1 and memo.resumed_packs == 1
        assert memo.replayed_steps == 2
        assert _trajectory(memo) == [("sigma2", 6), ("sigma1", 6)]
        expected = pack_jobs_edf(
            motivational_problem("S1"), {"sigma1": 6, "sigma2": 6}
        )
        assert _segments_key(memo.schedule()) == _segments_key(expected)

    def test_a_trial_ahead_of_the_committed_jobs_replays_them(self):
        problem = motivational_problem("S1")
        memo = problem.view().pack_memo()
        assert pack_jobs_edf(problem, {"sigma1": 6}, trial="sigma1") is memo
        # sigma2 ranks first: nothing to resume, sigma2 is placed and the
        # committed sigma1 replayed behind it.
        assert pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 6}, trial="sigma2")
        assert memo.resumed_steps == 0 and memo.resumed_packs == 0
        assert memo.replayed_steps == 1 + 2
        assert _trajectory(memo) == [("sigma2", 6), ("sigma1", 6)]
        # Only the final state is kept; the one after sigma2 fills lazily,
        # when a probe resumes there.
        assert memo.snapshots[1] is None

    def test_failed_and_raising_probes_record_nothing(self):
        problem = motivational_problem("S1")
        memo = problem.view().pack_memo()
        assert pack_jobs_edf(problem, {"sigma2": 6}, trial="sigma2")
        steps, snapshots = list(memo.steps), list(memo.snapshots)
        with pytest.raises(SchedulingError, match="out of range"):
            pack_jobs_edf(problem, {"sigma2": 6, "sigma1": 99}, trial="sigma1")
        with pytest.raises(SchedulingError, match="not a job"):
            pack_jobs_edf(problem, {"sigma2": 6, "nobody": 0}, trial="nobody")
        assert memo.steps == steps and memo.snapshots == snapshots

    def test_a_probe_must_extend_the_committed_trajectory(self):
        problem = motivational_problem("S1")
        memo = problem.view().pack_memo()
        assert pack_jobs_edf(problem, {"sigma2": 6}, trial="sigma2")
        steps, snapshots = list(memo.steps), list(memo.snapshots)
        # A committed job cannot be probed again, with or without the rest
        # of the committed assignment.
        with pytest.raises(SchedulingError, match="does not extend"):
            pack_jobs_edf(problem, {"sigma2": 5}, trial="sigma2")
        with pytest.raises(SchedulingError, match="does not extend"):
            pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 5}, trial="sigma2")
        # A new walk's first probe on the old walk's trajectory.
        with pytest.raises(SchedulingError, match="does not extend"):
            pack_jobs_edf(problem, {"sigma1": 6}, trial="sigma1")
        assert memo.steps == steps and memo.snapshots == snapshots

        memo.restart()
        assert memo.steps == [] and memo.ranks == []
        assert memo.snapshots == snapshots[:1]
        assert pack_jobs_edf(problem, {"sigma1": 6}, trial="sigma1") is memo
        assert _trajectory(memo) == [("sigma1", 6)]

    def test_a_whole_pack_leaves_the_trajectory_alone(self):
        problem = motivational_problem("S1")
        memo = problem.view().pack_memo()
        assert pack_jobs_edf(problem, {"sigma2": 6}, trial="sigma2")
        steps, snapshots = list(memo.steps), list(memo.snapshots)
        schedule = pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 5})
        assert schedule is not None
        assert memo.steps == steps and memo.snapshots == snapshots
        assert pack_jobs_edf(problem, {"sigma1": 6, "sigma2": 6}, trial="sigma1")
        assert _trajectory(memo) == [("sigma2", 6), ("sigma1", 6)]

    def test_resumed_pack_is_bit_identical_to_fresh(self):
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
        problem_args, assignments = case
        capacity, tables, jobs, now = problem_args
        problem = SchedulingProblem(capacity, tables, jobs, now=now)
        memo = problem.view().pack_memo()
        by_name = {job.name: job for job in jobs}
        for calls, assignment in enumerate(assignments, start=1):
            # A whole-assignment pack resumes nothing: it packs from the
            # empty timeline and leaves the (empty) trajectory alone.
            resumed_steps = memo.resumed_steps
            resumed_packs = memo.resumed_packs
            expected = _oracle_pack(problem_args, assignment)
            if expected == "raise":
                with pytest.raises(SchedulingError):
                    pack_jobs_edf(problem, assignment)
                expected = None
            else:
                schedule = pack_jobs_edf(problem, assignment)
                assert _segments_key(schedule) == _segments_key(expected)
            assert _trajectory(memo) == []
            assert memo.packs == calls
            assert memo.resumed_steps == resumed_steps
            assert memo.resumed_packs == resumed_packs
            _assert_snapshots_match_the_oracle(memo, problem_args)
            if expected is None:
                continue
            assert repr(required_scale(schedule, by_name, now)) == repr(
                _completion_scale(schedule, by_name, now)
            )

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pack_problems(), st.data())
    def test_mdf_shaped_probe_sequences_match_the_oracle(self, problem_args, data):
        """Add a job, then change the newest job's configuration, as MDF does.

        MDF probes a job until one configuration packs and never probes it
        again, so only a failed (or raising) probe is followed by a change
        of the same job's configuration.
        """
        capacity, tables, jobs, now = problem_args
        problem = SchedulingProblem(capacity, tables, jobs, now=now)
        memo = problem.view().pack_memo()
        key = {job.name: (job.deadline, job.name) for job in jobs}
        committed: dict[str, int] = {}
        newest = None
        for calls in range(1, data.draw(st.integers(1, 20)) + 1):
            absent = [job for job in jobs if job.name not in committed]
            if not absent:
                break
            if newest is not None and data.draw(st.booleans()):
                trial = newest
            else:
                trial = data.draw(st.sampled_from(absent)).name
            newest = trial
            config = draw_config(data.draw, tables, problem.job(trial))
            assignment = dict(committed)
            assignment[trial] = config
            # The trial's rank among the committed steps, and the probe's
            # resume point: the nearest filled snapshot at or before it.
            position = sum(key[name] < key[trial] for name in committed)
            suffix = len(committed) - position
            resume = max(
                count
                for count in range(position + 1)
                if memo.snapshots[count] is not None
            )
            resumed_steps = memo.resumed_steps
            replayed_steps = memo.replayed_steps
            resumed_packs = memo.resumed_packs
            expected = _oracle_pack(problem_args, assignment)
            if expected == "raise":
                with pytest.raises(SchedulingError):
                    pack_jobs_edf(problem, assignment, trial=trial)
                assert memo.resumed_steps == resumed_steps
                assert memo.replayed_steps == replayed_steps
                assert memo.resumed_packs == resumed_packs
            else:
                result = pack_jobs_edf(problem, assignment, trial=trial)
                assert memo.resumed_steps - resumed_steps == resume
                assert memo.resumed_packs - resumed_packs == (resume > 0)
                replayed = memo.replayed_steps - replayed_steps
                # The committed steps between the resume point and the
                # trial's rank fill their snapshots on the way.
                assert all(
                    memo.snapshots[count] is not None
                    for count in range(resume, position + 1)
                )
                if expected is None:
                    assert result is None
                    assert position - resume + 1 <= replayed
                    assert replayed <= position - resume + 1 + suffix
                else:
                    assert result is memo
                    assert replayed == position - resume + 1 + suffix
                    assert _segments_key(memo.schedule()) == _segments_key(expected)
                    committed = assignment
                    newest = None
            assert memo.packs == calls
            assert _trajectory(memo) == _edf_steps(jobs, committed)
            _assert_snapshots_match_the_oracle(memo, problem_args)


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
