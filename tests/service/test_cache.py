"""Tests for the activation cache and the caching scheduler wrapper."""

import pickle
import pickletools

import pytest

from repro.api import ExperimentSpec, register_scheduler
from repro.api.registry import schedulers as scheduler_registry
from repro.api.spec import PlatformSpec, SchedulerSpec, WorkloadSpec
from repro.core.config import ConfigTable, OperatingPoint
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.platforms.resources import ResourceVector
from repro.schedulers import (
    ExMemScheduler,
    FixedMinEnergyScheduler,
    MMKPLRScheduler,
    MMKPMDFScheduler,
)
from repro.service.cache import ActivationCache, CachingScheduler, problem_signature
from repro.service.pool import SimulationService
from repro.store import ContentStore
from repro.store.content import encode_key
from repro.workload.motivational import motivational_platform, motivational_tables


@pytest.fixture()
def tables():
    return motivational_tables()


@pytest.fixture()
def platform():
    return motivational_platform()


def make_problem(platform, tables, now=0.0, names=("a", "b"), remaining=(1.0, 1.0)):
    jobs = [
        Job(names[0], "lambda1", arrival=now, deadline=now + 9.0, remaining_ratio=remaining[0]),
        Job(names[1], "lambda2", arrival=now, deadline=now + 4.0, remaining_ratio=remaining[1]),
    ]
    return SchedulingProblem(platform, tables, jobs, now=now)


class TestSignature:
    def test_keys_the_problem_as_given(self, platform, tables):
        """A time shift, a renaming or a reordering is another problem: the
        scheduler's tie-breaks and float arithmetic may differ on it."""
        base = make_problem(platform, tables, now=0.0, names=("a", "b"))
        assert problem_signature(base) == problem_signature(
            make_problem(platform, tables, now=0.0, names=("a", "b"))
        )
        shifted = make_problem(platform, tables, now=7.5, names=("a", "b"))
        renamed = make_problem(platform, tables, now=0.0, names=("x", "y"))
        reordered = SchedulingProblem(platform, tables, reversed(base.jobs), now=0.0)
        later = SchedulingProblem(platform, tables, base.jobs, now=0.5)
        keys = [
            problem_signature(problem)
            for problem in (base, shifted, renamed, reordered, later)
        ]
        assert len(set(keys)) == len(keys)

    def test_distinguishes_namespace(self, platform, tables):
        problem = make_problem(platform, tables)
        assert problem_signature(problem, "mmkp-mdf") != problem_signature(problem, "fixed")

    def test_distinguishes_residuals_and_deadlines(self, platform, tables):
        full = make_problem(platform, tables, remaining=(1.0, 1.0))
        partial = make_problem(platform, tables, remaining=(0.5, 1.0))
        assert problem_signature(full) != problem_signature(partial)
        longer = SchedulingProblem(
            platform, tables, [Job("a", "lambda1", 0.0, 12.0)], now=0.0
        )
        shorter = SchedulingProblem(
            platform, tables, [Job("a", "lambda1", 0.0, 9.0)], now=0.0
        )
        assert problem_signature(longer) != problem_signature(shorter)

    def test_table_content_enters_the_key(self, platform, tables):
        problem = make_problem(platform, tables)
        # A rebuilt (equal-content) table set collides — content, not identity.
        rebuilt = make_problem(platform, motivational_tables())
        assert problem_signature(problem) == problem_signature(rebuilt)
        assert tables["lambda1"].optable.fingerprint != tables["lambda2"].optable.fingerprint

    def test_key_size_does_not_grow_with_the_tables(self, platform):
        def problem(points):
            table = ConfigTable(
                "app",
                [
                    OperatingPoint(ResourceVector([1 + i % 2, i % 3]), 4.0 + i, 9.0 - i / 10)
                    for i in range(points)
                ],
            )
            return SchedulingProblem(
                platform, {"app": table}, [Job("a", "app", 0.0, 50.0)], now=0.0
            )

        small, large = problem_signature(problem(8)), problem_signature(problem(80))
        assert small != large
        assert len(repr(small)) == len(repr(large))


def _exact(result) -> tuple:
    """Every field a scheduling result decides, floats compared by ``repr``."""
    schedule = None
    if result.schedule is not None:
        schedule = tuple(
            (
                repr(segment.start),
                repr(segment.end),
                tuple((m.job, m.config_index) for m in segment),
            )
            for segment in result.schedule
        )
    return (
        result.feasible,
        schedule,
        tuple(result.assignment.items()),
        repr(result.energy),
    )


class TestCachingScheduler:
    def test_hit_path_is_bit_identical_to_miss_path(self, platform, tables):
        """Both paths re-hydrate one record ⇒ the result is a pure function."""
        problem = make_problem(platform, tables, now=3.0)
        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        miss = cached.schedule(problem)
        hit = cached.schedule(problem)
        assert miss.feasible
        assert _exact(hit) == _exact(miss)

    @pytest.mark.parametrize(
        "factory",
        [MMKPMDFScheduler, MMKPLRScheduler, ExMemScheduler, FixedMinEnergyScheduler],
    )
    def test_cached_schedules_validate_on_random_problems(
        self, platform, tables, factory
    ):
        """A miss and a hit both return what the plain scheduler returns."""
        import random

        rng = random.Random(42)
        cached = CachingScheduler(factory(), ActivationCache())
        plain = factory()
        for trial in range(25):
            now = rng.uniform(0.0, 10.0)
            jobs = []
            for index in range(rng.randint(1, 3)):
                application = rng.choice(["lambda1", "lambda2"])
                jobs.append(
                    Job(
                        f"job{index}",
                        application,
                        arrival=now,
                        deadline=now + rng.uniform(3.0, 25.0),
                        remaining_ratio=rng.choice([1.0, 0.75, 0.5]),
                    )
                )
            problem = SchedulingProblem(platform, tables, jobs, now=now)
            plain_result = plain.schedule(problem)
            for _ in ("miss", "hit"):
                cached_result = cached.schedule(problem)
                assert _exact(cached_result) == _exact(plain_result)
                if cached_result.feasible:
                    report = problem.validate(cached_result.schedule)
                    assert report.feasible, report.violations
        assert cached.cache.hits == cached.cache.misses == 25

    def test_transparent_name_and_infeasible_caching(self, platform, tables):
        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        assert cached.name == "mmkp-mdf"
        impossible = SchedulingProblem(
            platform, tables, [Job("a", "lambda2", 0.0, 0.5)], now=0.0
        )
        first = cached.schedule(impossible)
        second = cached.schedule(impossible)
        assert not first.feasible and not second.feasible
        assert cached.cache.hits == 1


def _builtins_only(value) -> bool:
    """Whether ``value`` is built from tuples, dicts, numbers and strings."""
    if value is None or type(value) in (bool, int, float, str):
        return True
    if type(value) is tuple:
        return all(_builtins_only(item) for item in value)
    if type(value) is dict:
        return all(_builtins_only(k) and _builtins_only(v) for k, v in value.items())
    return False


#: Pickle opcodes that name a class or call a constructor.
_OBJECT_OPCODES = {
    "GLOBAL", "STACK_GLOBAL", "INST", "OBJ", "NEWOBJ", "NEWOBJ_EX", "REDUCE", "BUILD",
}


class TestStoredRecord:
    @pytest.mark.parametrize(
        "factory",
        [MMKPMDFScheduler, MMKPLRScheduler, ExMemScheduler, FixedMinEnergyScheduler],
    )
    def test_store_row_holds_builtins_only(self, platform, tables, factory):
        store = ContentStore.in_memory()
        cached = CachingScheduler(factory(), ActivationCache(store=store))
        admitted = make_problem(platform, tables, now=2.0)
        rejected = SchedulingProblem(
            platform, tables, [Job("a", "lambda2", 0.0, 0.5)], now=0.0
        )
        for problem in (admitted, rejected):
            result = cached.schedule(problem)
            key = problem_signature(problem, cached.inner.name)
            payload = store.backend.get(store.namespace("activation"), encode_key(key))
            assert payload is not None
            opcodes = {opcode.name for opcode, _, _ in pickletools.genops(payload)}
            assert not opcodes & _OBJECT_OPCODES
            record = pickle.loads(payload)
            assert _builtins_only(record)
            assert (record[0] is None) == (not result.feasible)
        assert cached.schedule(admitted).feasible


@pytest.fixture()
def two_iteration_lr():
    """``mmkp-lr-2it``: MMKP-LR registered with a 2-iteration subgradient loop."""
    name = "mmkp-lr-2it"
    register_scheduler(name, lambda: MMKPLRScheduler(max_subgradient_iterations=2))
    yield name
    scheduler_registry.unregister(name)


def _lr_job(scheduler: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=scheduler,
        scheduler=SchedulerSpec(name=scheduler),
        platform=PlatformSpec(name="odroid-xu4"),
        tables="paper-reduced",
        workload=WorkloadSpec.poisson(1.5, 30, seed=5),
    )


def _summary(result) -> tuple:
    assert result.ok, result.error
    return result.fingerprint_key(), result.total_energy


def _isolated(*names: str) -> dict:
    """Each job run alone on its own store-less serial service."""
    return {
        name: _summary(SimulationService(workers=1).run_batch([_lr_job(name)])[0])
        for name in names
    }


class TestRegistryNamespace:
    """Two registered configurations of one class never share activations."""

    @pytest.mark.parametrize("first_default", [True, False])
    def test_one_service_batch_matches_isolated_runs(
        self, two_iteration_lr, first_default
    ):
        order = ["mmkp-lr", two_iteration_lr]
        if not first_default:
            order.reverse()
        isolated = _isolated(*order)
        assert isolated["mmkp-lr"][1] != isolated[two_iteration_lr][1]
        batch = SimulationService(workers=1).run_batch([_lr_job(n) for n in order])
        assert [_summary(result) for result in batch] == [isolated[n] for n in order]

    def test_services_sharing_a_store_match_isolated_runs(self, two_iteration_lr):
        isolated = _isolated("mmkp-lr", two_iteration_lr)
        store = ContentStore.in_memory()
        for name in ("mmkp-lr", two_iteration_lr):
            service = SimulationService(workers=1, store=store)
            assert _summary(service.run_batch([_lr_job(name)])[0]) == isolated[name]

    def test_namespace_defaults_to_the_scheduler_name(self, platform, tables):
        cache = ActivationCache()
        problem = make_problem(platform, tables)
        CachingScheduler(MMKPMDFScheduler(), cache).schedule(problem)
        CachingScheduler(MMKPMDFScheduler(), cache, namespace="mdf-b").schedule(problem)
        assert (cache.hits, cache.misses) == (0, 2)
        CachingScheduler(MMKPMDFScheduler(), cache, namespace="mmkp-mdf").schedule(problem)
        assert cache.hits == 1
