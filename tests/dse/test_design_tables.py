"""The per-process design-time tables memo (:func:`repro.dse.tables.design_tables`).

Named table sets and DSE specs resolve through one bounded memo, so every
session, batch job and gateway request on a known set shares one
exploration per process — and gets the same tables the un-memoised
:func:`~repro.dse.paper_operating_points` primitive would produce.
"""

import pytest

import repro.dse.sweep as sweep_module
import repro.dse.tables as tables_module
from repro.api import (
    DSESpec,
    ExperimentSpec,
    PlatformSpec,
    SchedulerSpec,
    Session,
    WorkloadSpec,
)
from repro.dse import paper_operating_points, reduced_tables
from repro.dse.sweep import SweepSpec, frontier_fingerprint, run_sweep
from repro.dse.tables import design_tables
from repro.exceptions import WorkloadError
from repro.platforms import big_little, odroid_xu4
from repro.workload import named_tables


@pytest.fixture()
def explorations(monkeypatch):
    """Clear the memo and count the DSE runs behind it."""
    tables_module._TABLES.clear()
    calls = []
    explore = tables_module.paper_operating_points

    def counted(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr(tables_module, "paper_operating_points", counted)
    yield calls
    tables_module._TABLES.clear()


def _spec(tables: str, seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"memo-{tables}",
        platform=PlatformSpec(name="odroid-xu4"),
        tables=tables,
        workload=WorkloadSpec.poisson(arrival_rate=0.5, num_requests=3, seed=seed),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
    )


class TestOneExplorationPerProcess:
    def test_sessions_batches_and_gateway_share_one_exploration(self, explorations):
        from repro.gateway.client import GatewayClient
        from repro.gateway.server import GatewayConfig, InProcessGateway

        for seed in (1, 2):
            Session.from_spec(_spec("paper-reduced", seed)).run()
        for executor in ("serial", "thread"):
            results = Session.from_spec(_spec("paper")).run_batch(
                trials=5, workers=2, executor=executor
            )
            assert [result.error for result in results] == [None] * 5
        with (
            InProcessGateway(GatewayConfig(port=0)) as gateway,
            GatewayClient(gateway.base_url) as client,
        ):
            for seed in (3, 4, 5):
                status = client.run(_spec("paper-reduced", seed))
                assert status["state"] == "done"
        assert len(explorations) == 1

    def test_dse_spec_and_named_set_share_the_entry(self, explorations):
        reduced = DSESpec(max_points=8).build_tables(odroid_xu4())
        assert reduced == named_tables("paper-reduced")
        session = Session.from_spec(
            ExperimentSpec(
                platform=PlatformSpec(name="odroid-xu4"), tables=None, dse=DSESpec()
            )
        )
        assert session.explore() == named_tables("paper")
        assert len(explorations) == 1


class TestMemoSafety:
    def test_mutating_a_result_does_not_reach_the_next_caller(self, explorations):
        first = named_tables("paper")
        names = sorted(first)
        first.clear()
        first["intruder"] = None
        second = named_tables("paper")
        assert sorted(second) == names
        assert second is not first

    def test_platform_and_every_option_get_their_own_entry(self, explorations):
        platform = big_little(2, 2)
        cases = [
            (platform, ("small",), False, None),
            (odroid_xu4(), ("small",), False, None),
            (platform, ("medium",), False, None),
            (platform, ("small",), True, None),
            (platform, ("small",), False, 2),
        ]
        for platform_, sizes, opps, cap in cases:
            resolved = design_tables(platform_, sizes, opps, cap)
            expected = paper_operating_points(platform_, sizes, opps)
            if cap is not None:
                expected = reduced_tables(expected, max_points=cap)
            assert frontier_fingerprint({"p": resolved}) == frontier_fingerprint(
                {"p": expected}
            )
        assert len(tables_module._TABLES) == len(cases)
        for platform_, sizes, opps, cap in cases:
            design_tables(platform_, sizes, opps, cap)
        assert len(tables_module._TABLES) == len(cases)
        # The capped set reduces the memoised full set: four explorations.
        assert len(explorations) == 4

    def test_tables_match_the_unmemoised_primitive(self, explorations):
        full = paper_operating_points()
        assert frontier_fingerprint({"p": named_tables("paper")}) == (
            frontier_fingerprint({"p": full})
        )
        assert frontier_fingerprint({"p": named_tables("paper-reduced")}) == (
            frontier_fingerprint({"p": reduced_tables(full, max_points=8)})
        )

    def test_errors_are_not_memoised(self, explorations, monkeypatch):
        counted = tables_module.paper_operating_points
        failures = []

        def flaky(*args, **kwargs):
            if not failures:
                failures.append(args)
                raise RuntimeError("transient DSE failure")
            return counted(*args, **kwargs)

        monkeypatch.setattr(tables_module, "paper_operating_points", flaky)
        with pytest.raises(RuntimeError, match="transient"):
            design_tables(input_sizes=("small",))
        assert len(tables_module._TABLES) == 0
        assert design_tables(input_sizes=("small",))
        assert len(explorations) == 1


class TestUnmatchedInputSizes:
    @pytest.mark.parametrize("path", ["tables", "explore", "explore-serial"])
    def test_every_path_raises_the_same_error(self, explorations, path):
        session = Session.from_spec(
            ExperimentSpec(tables=None, dse=DSESpec(input_sizes=("huge",)))
        )
        with pytest.raises(WorkloadError, match=r"input_sizes=\('huge',\)"):
            if path == "tables":
                session.tables
            elif path == "explore":
                session.explore()
            else:
                session.explore(executor="serial")
        assert len(tables_module._TABLES) == 0


class TestExplorerBound:
    def test_sweeping_many_platforms_keeps_a_bounded_explorer_cache(self):
        sweep_module._EXPLORERS.clear()
        platforms = [big_little(little, big) for little in (1, 2, 3) for big in (1, 2, 3)]
        run_sweep(
            SweepSpec(input_sizes=("small",), schedulers=()),
            platforms=platforms,
            executor="serial",
        )
        assert len(sweep_module._EXPLORERS) <= 8
