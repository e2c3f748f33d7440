"""The MMKP-MDF probe boundary: one ``pack_jobs_edf`` call per probe.

Tracing tools time MDF's configuration probes by wrapping the module-level
name ``repro.schedulers.mdf.pack_jobs_edf``.  This pins that every probe of
a high-load run goes through that name, that a probe returns ``None``
exactly when its trial assignment cannot be packed, and that wrapping the
name leaves the run unchanged.  The probes resume a trajectory kept on the
problem's view, so a problem solved (or packed) before must solve again as
a fresh copy does.
"""

import pytest

import repro.schedulers.mdf as mdf
from repro.core.problem import SchedulingProblem
from repro.dse import paper_operating_points, reduced_tables
from repro.energy import ScheduleAwareGovernor
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.runtime.trace import poisson_trace
from repro.schedulers import MMKPMDFScheduler
from repro.schedulers.edf_packer import pack_jobs_edf
from repro.schedulers.policies import ArrivalOrderPolicy, EarliestDeadlinePolicy
from repro.workload.testgen import DeadlineLevel, TestCaseGenerator
from tests.reference import oracle


def _fingerprint(platform, tables, trace) -> str:
    manager = RuntimeManager.from_components(
        platform, tables, MMKPMDFScheduler(), governor=ScheduleAwareGovernor()
    )
    return manager.run(trace).fingerprint()


def test_every_probe_calls_the_module_level_packer(monkeypatch):
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=8)
    # About one arrival per second more than the platform drains: most
    # probes fail, as in the paper's high-load runs.
    trace = poisson_trace(tables, arrival_rate=2.5, num_requests=60, seed=11)
    unwrapped = _fingerprint(platform, tables, trace)

    probes = []  # (oracle says infeasible, probe returned None)
    packer = mdf.pack_jobs_edf

    def counted(problem, assignment, *args, **kwargs):
        result = packer(problem, assignment, *args, **kwargs)
        fresh = SchedulingProblem(
            problem.capacity, problem.tables, problem.jobs, now=problem.now
        )
        expected = oracle.pack_jobs_edf(fresh, dict(assignment))
        probes.append((expected is None, result is None))
        return result

    packer_calls = []
    solve = MMKPMDFScheduler._solve

    def counted_solve(self, problem):
        result = solve(self, problem)
        packer_calls.append(result.statistics["packer_calls"])
        return result

    monkeypatch.setattr(mdf, "pack_jobs_edf", counted)
    monkeypatch.setattr(MMKPMDFScheduler, "_solve", counted_solve)
    assert _fingerprint(platform, tables, trace) == unwrapped

    assert len(probes) == sum(packer_calls) > 0
    assert all(infeasible == failed for infeasible, failed in probes)
    failures = sum(failed for _, failed in probes)
    assert 0 < failures < len(probes)
    assert failures > len(probes) / 2


def _copy(problem):
    return SchedulingProblem(
        problem.capacity, problem.tables, problem.jobs, now=problem.now
    )


def _result_key(result):
    """Decision and schedule of a result, floats compared by ``repr``."""
    segments = None
    if result.schedule is not None:
        segments = [
            (
                repr(segment.start),
                repr(segment.end),
                [(m.job_name, m.config_index) for m in segment.mappings],
            )
            for segment in result.schedule
        ]
    assignment = result.assignment if result.feasible else None
    return result.feasible, assignment, repr(result.energy), segments


@pytest.mark.parametrize("policy", [ArrivalOrderPolicy, EarliestDeadlinePolicy])
def test_a_solved_problem_solves_again_like_a_fresh_copy(policy):
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=8)
    generator = TestCaseGenerator(tables, seed=97)
    compared = 0
    for num_jobs in (4, 5, 6):
        for level in DeadlineLevel:
            for _ in range(4):
                problem = generator.generate_case(num_jobs, level).problem(
                    platform, tables
                )
                # The default walk, then a whole pack of its assignment,
                # leave their state on the problem's view.
                first = MMKPMDFScheduler().schedule(problem)
                if first.feasible:
                    assert pack_jobs_edf(problem, first.assignment) is not None
                again = MMKPMDFScheduler(policy=policy()).schedule(problem)
                fresh = MMKPMDFScheduler(policy=policy()).schedule(_copy(problem))
                seed = oracle.ReferenceMDF(policy=policy()).schedule(_copy(problem))
                assert _result_key(again) == _result_key(fresh)
                assert _result_key(again) == _result_key(seed)
                compared += again.feasible
    assert compared > 0
