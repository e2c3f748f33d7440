"""Determinism and equivalence tests for the DSE sweep engine.

The contract under test: a sweep's frontier fingerprint and every point
summary are a pure function of the spec — independent of the executor, the
worker count, the store temperature and the solver backend — and bit-equal
to what the serial explorer produces.
"""

import json

import pytest

from repro.api import DSESpec, ExperimentSpec, Session, WorkloadSpec
from repro.dse import paper_operating_points
from repro.dse.sweep import (
    EXECUTORS,
    SweepScenario,
    SweepSpec,
    frontier_fingerprint,
    plan_sweep,
    run_sweep,
)
from repro.exceptions import WorkloadError
from repro.io import sweep_result_from_dict, sweep_result_to_dict
from repro.knapsack import HAVE_NUMPY, solver_numpy_override
from repro.platforms import odroid_xu4
from repro.schedulers import MMKPLRScheduler
from repro.store import ContentStore

#: A small but non-trivial sweep: two scenarios with different seeds on one
#: platform, small variants only, MMKP-LR points (the batching scheduler).
SPEC = SweepSpec(
    platforms=("odroid-xu4",),
    input_sizes=("small",),
    schedulers=("mmkp-lr",),
    scenarios=(
        SweepScenario("a", fraction=0.005, seed=2020),
        SweepScenario("b", fraction=0.005, seed=2021),
    ),
)


@pytest.fixture(scope="module")
def reference():
    return run_sweep(SPEC, executor="serial")


class TestPlan:
    def test_points_redemand_deduped_explorations(self):
        plan = plan_sweep(SPEC)
        variants = plan.stats["variants"]
        assert plan.stats["points"] == 2
        assert plan.stats["explorations_demanded"] == 2 * variants
        assert plan.stats["explorations_unique"] == variants
        assert plan.stats["explorations_deduped"] == variants

    def test_identical_platforms_share_tasks(self):
        twin = SweepSpec(
            platforms=("odroid-xu4", "odroid-xu4"),
            input_sizes=("small",),
            scenarios=(),
        )
        plan = plan_sweep(twin)
        assert plan.stats["platforms"] == 2
        assert plan.stats["explorations_unique"] == plan.stats["variants"]

    def test_unknown_sizes_are_rejected(self):
        with pytest.raises(WorkloadError):
            plan_sweep(SweepSpec(input_sizes=("colossal",)))


class TestDeterminismMatrix:
    def test_fingerprint_matches_the_serial_explorer(self, reference):
        tables = paper_operating_points(odroid_xu4(), input_sizes=("small",))
        assert reference.frontier_fingerprint == frontier_fingerprint(
            {"odroid-xu4": tables}
        )

    def test_opp_sweep_tables_equal_the_serial_explorer(self):
        # Several scales per variant: 32+ points per front, so the numpy
        # dominance matrix filters them where numpy is installed.
        spec = SweepSpec(input_sizes=("medium",), sweep_opps=True, scenarios=())
        swept = run_sweep(spec, executor="serial").tables_for("odroid-xu4")
        tables = paper_operating_points(
            odroid_xu4(), input_sizes=("medium",), sweep_opps=True
        )
        assert {name: table.points for name, table in swept.items()} == {
            name: table.points for name, table in tables.items()
        }

    @pytest.mark.parametrize(
        "executor", [name for name in EXECUTORS if name != "serial"]
    )
    def test_every_executor_matches_serial(self, reference, executor):
        result = run_sweep(SPEC, executor=executor, workers=2)
        assert result.frontier_fingerprint == reference.frontier_fingerprint
        assert result.points == reference.points
        for run in (reference, result):  # every executor is a coordinator mode
            assert run.stats["coordinator"]["units"] > 0
            assert run.stats["coordinator"]["failed_units"] == 0

    def test_solver_backend_does_not_change_answers(self, reference):
        with solver_numpy_override(False):
            pure = run_sweep(SPEC, executor="serial")
        assert pure.frontier_fingerprint == reference.frontier_fingerprint
        assert pure.points == reference.points
        if HAVE_NUMPY:
            with solver_numpy_override(True):
                dense = run_sweep(SPEC, executor="serial")
            assert dense.frontier_fingerprint == reference.frontier_fingerprint
            assert dense.points == reference.points

    def test_cold_then_warm_store_is_invisible_in_the_answers(
        self, reference, tmp_path
    ):
        path = str(tmp_path / "sweep-store.db")
        cold = run_sweep(SPEC, executor="serial", store=path)
        warm = run_sweep(SPEC, executor="serial", store=path)
        assert cold.stats["store_hits"] == 0
        assert warm.stats["store_hits"] == warm.stats["explorations_unique"]
        assert warm.stats["solver"]["solved"] == 0  # solves served by store
        for result in (cold, warm):
            assert result.frontier_fingerprint == reference.frontier_fingerprint
            assert result.points == reference.points
        # Exploration tasks and policy-phase solves: what a rerun reads back.
        store = ContentStore.open(path)
        try:
            namespaces = set(store.stats()["namespaces"])
            assert namespaces == {store.namespace("dse"), store.namespace("solve")}
        finally:
            store.close()

    def test_warm_store_warms_other_executors(self, reference, tmp_path):
        path = str(tmp_path / "shared-store.db")
        run_sweep(SPEC, executor="serial", store=path)
        clustered = run_sweep(SPEC, executor="cluster", workers=2, store=path)
        assert clustered.stats["store_hits"] == clustered.stats[
            "explorations_unique"
        ]
        assert clustered.frontier_fingerprint == reference.frontier_fingerprint
        assert clustered.points == reference.points


#: Every variant, tables only: wider than SPEC's small variants.
WIDE = SweepSpec(platforms=("odroid-xu4",), input_sizes=None, scenarios=())


class TestCallerOwnedStore:
    """The calling process alone reads and writes the sweep's ``dse`` rows;
    worker processes only explore."""

    def test_warm_cluster_rerun_builds_no_process_pool(
        self, reference, tmp_path, monkeypatch
    ):
        import concurrent.futures

        path = str(tmp_path / "warm.db")
        cold = run_sweep(SPEC, executor="cluster", workers=2, store=path)
        assert cold.stats["store_misses"] == cold.stats["explorations_unique"]

        built = []

        def no_pool(*args, **kwargs):
            built.append(args)
            raise AssertionError("a fully stored sweep built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        fired = []
        warm = run_sweep(
            SPEC,
            executor="cluster",
            workers=2,
            store=path,
            progress=lambda index, outcome: fired.append(index),
        )
        assert built == []
        assert warm.stats["coordinator"]["units"] == 0
        assert warm.stats["store_hits"] == warm.stats["explorations_unique"]
        assert warm.frontier_fingerprint == reference.frontier_fingerprint
        assert warm.points == reference.points
        assert sorted(fired) == list(range(warm.stats["explorations_unique"]))

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_only_missing_and_corrupt_tasks_are_dispatched(self, tmp_path, executor):
        from repro.store.content import encode_key

        expected = run_sweep(WIDE, executor="serial")
        store = ContentStore.open(tmp_path / "narrow.db")
        try:
            narrow = SweepSpec(
                platforms=WIDE.platforms, input_sizes=("small",), scenarios=()
            )
            run_sweep(narrow, executor="serial", store=store)
            narrow_tasks = plan_sweep(narrow).tasks
            corrupt = narrow_tasks[1]
            store.backend.put(
                store.namespace("dse"), encode_key(corrupt.store_key), b"garbage"
            )
            stored = {task.store_key for task in narrow_tasks} - {corrupt.store_key}
            tasks = plan_sweep(WIDE).tasks
            missing = {i for i, task in enumerate(tasks) if task.store_key not in stored}

            outcomes = {}
            wide = run_sweep(
                WIDE,
                executor=executor,
                workers=3,
                unit_size=1,
                store=store,
                progress=outcomes.__setitem__,
            )
            explored = {i for i, outcome in outcomes.items() if not outcome["cached"]}
            assert explored == missing
            assert sorted(outcomes) == list(range(len(tasks)))
            assert wide.stats["store_misses"] == len(missing)
            assert wide.stats["coordinator"]["units"] == len(missing)
            assert wide.frontier_fingerprint == expected.frontier_fingerprint
            for index, task in enumerate(tasks):
                assert store.get("dse", task.store_key) == outcomes[index]["points"]
        finally:
            store.close()

    def test_an_in_memory_store_warms_process_sweeps(self):
        store = ContentStore.in_memory()
        cold = run_sweep(WIDE, executor="process", workers=2, store=store)
        warm = run_sweep(WIDE, executor="process", workers=2, store=store)
        assert cold.stats["store_misses"] == cold.stats["explorations_unique"]
        assert warm.stats["store_hits"] == warm.stats["explorations_unique"]
        assert warm.stats["coordinator"]["units"] == 0
        assert warm.frontier_fingerprint == cold.frontier_fingerprint

    @pytest.fixture
    def closed(self, monkeypatch):
        """Paths of the stores closed while the test runs, in order."""
        paths = []
        close = ContentStore.close

        def recording_close(store):
            paths.append(store.path)
            close(store)

        monkeypatch.setattr(ContentStore, "close", recording_close)
        return paths

    def test_a_store_opened_from_a_path_is_closed(self, tmp_path, closed):
        path = str(tmp_path / "owned.db")
        run_sweep(WIDE, executor="cluster", workers=2, store=path)
        assert closed == [path]

    @pytest.mark.parametrize("executor", ["thread", "cluster"])
    def test_every_connection_the_sweep_opened_is_closed(
        self, tmp_path, monkeypatch, executor
    ):
        import sqlite3

        class CountingConnection(sqlite3.Connection):
            closed = False

            def close(self):
                self.closed = True
                super().close()

        opened = []
        connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(connect(*args, factory=CountingConnection, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        run_sweep(WIDE, executor=executor, workers=2, store=str(tmp_path / "s.db"))
        # The caller's connection and one per coordinator thread that wrote.
        assert len(opened) > 1
        assert [conn.closed for conn in opened] == [True] * len(opened)

    def test_a_passed_store_stays_open(self, tmp_path, closed):
        store = ContentStore.open(tmp_path / "passed.db")
        try:
            result = run_sweep(WIDE, executor="cluster", workers=2, store=store)
            assert closed == []
            stored = store.stats()["namespaces"][store.namespace("dse")]
            assert stored["entries"] == result.stats["explorations_unique"]
        finally:
            store.close()


class TestCrossPointBatching:
    def test_sweep_shares_relaxations_across_points(self, reference):
        solver = reference.stats["solver"]
        assert solver["problems"] == sum(p["cases"] for p in reference.points)
        assert solver["cross_group_deduped"] > 0

    def test_schedule_many_validates_group_labels(self):
        with pytest.raises(ValueError):
            MMKPLRScheduler().schedule_many([], groups=["one-label-too-many"])


class TestSweepResultSerialization:
    def test_json_round_trip_is_exact(self, reference):
        wire = json.loads(json.dumps(sweep_result_to_dict(reference)))
        restored = sweep_result_from_dict(wire)
        assert restored.frontier_fingerprint == reference.frontier_fingerprint
        assert restored.points == reference.points
        assert restored.spec == reference.spec

    def test_tampered_archive_is_rejected(self, reference):
        wire = json.loads(json.dumps(sweep_result_to_dict(reference)))
        wire["frontier_fingerprint"] = "0" * 64
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError):
            sweep_result_from_dict(wire)

    def test_merge_unions_points_and_keeps_the_frontier(self, reference):
        halves = [
            run_sweep(
                SweepSpec(
                    platforms=SPEC.platforms,
                    input_sizes=SPEC.input_sizes,
                    schedulers=SPEC.schedulers,
                    scenarios=(scenario,),
                ),
                executor="serial",
            )
            for scenario in SPEC.scenarios
        ]
        merged = halves[0].merge(halves[1])
        assert merged.frontier_fingerprint == reference.frontier_fingerprint
        assert {p["point"] for p in merged.points} == {
            p["point"] for p in reference.points
        }


class TestSessionIntegration:
    def test_session_explore_executor_matches_the_serial_path(self):
        spec = ExperimentSpec(
            name="sweep-session",
            workload=WorkloadSpec.scenario("S1"),
            dse=DSESpec(input_sizes=("small",)),
            tables=None,
        )
        serial = Session.from_spec(spec).explore()
        swept = Session.from_spec(spec).explore(executor="serial")
        assert frontier_fingerprint({"p": swept}) == frontier_fingerprint(
            {"p": serial}
        )

    def test_session_explore_rejects_unknown_executor(self):
        spec = ExperimentSpec(
            name="sweep-session-bad",
            workload=WorkloadSpec.scenario("S1"),
            dse=DSESpec(input_sizes=("small",)),
            tables=None,
        )
        with pytest.raises(WorkloadError):
            Session.from_spec(spec).explore(executor="quantum")


class TestCoordinatorHooks:
    def test_failure_hook_replaces_default_simulation_error(self):
        from repro.cluster.coordinator import ShardCoordinator

        def boom(items):
            raise RuntimeError("shard exploded")

        coordinator = ShardCoordinator(1, mode="thread", max_retries=1)
        results = coordinator.run(
            ["j1", "j2"], boom, lambda index, error: ("failed", index, error)
        )
        assert [r[0] for r in results] == ["failed", "failed"]
        assert [r[1] for r in results] == [0, 1]
        assert all("shard exploded" in r[2] for r in results)
        assert coordinator.stats.failed_units == 2  # one-item units


class TestTaskFailures:
    def test_failing_task_raises_the_same_error_on_every_executor(self, monkeypatch):
        import repro.dse.sweep as sweep_module

        doomed = plan_sweep(SPEC).tasks[1]
        explore = sweep_module.run_exploration_task

        def flaky(task):
            if (task.variant, task.scale) == (doomed.variant, doomed.scale):
                raise RuntimeError("exploration exploded")
            return explore(task)

        monkeypatch.setattr(sweep_module, "run_exploration_task", flaky)
        messages = set()
        for executor in ("serial", "thread"):
            with pytest.raises(WorkloadError) as info:
                run_sweep(SPEC, executor=executor, workers=2, unit_size=1, max_retries=1)
            messages.add(str(info.value))
        assert messages == {
            "1 exploration task(s) failed; first: "
            f"{doomed.variant}@{doomed.scale}: RuntimeError: exploration exploded"
        }
