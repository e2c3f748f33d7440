"""Gateway + content store: shared warm store, /metrics series, obs counts."""

import pytest

from repro.api import ExperimentSpec, SchedulerSpec, Session, WorkloadSpec
from repro.gateway.client import GatewayClient
from repro.gateway.server import GatewayConfig, InProcessGateway
from repro.obs import Tracer
from repro.store import ContentStore


def _spec(name: str = "gw-store") -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        workload=WorkloadSpec.scenario("S1"),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
    )


@pytest.fixture()
def gateway(tmp_path):
    config = GatewayConfig(port=0, store_path=str(tmp_path / "gateway-store.db"))
    with InProcessGateway(config) as gw:
        yield gw


@pytest.fixture()
def client(gateway):
    with GatewayClient(gateway.base_url) as client:
        yield client


class TestGatewayStore:
    def test_store_opens_from_config_and_runs_stay_equivalent(self, client):
        status = client.run(_spec())
        reference = Session.from_spec(_spec()).run()
        assert status["result"]["fingerprint"] == reference.fingerprint()

    def test_single_runs_leave_the_store_empty(self, gateway, client):
        # The daemon's kernel caches stay in process: even MMKP-LR's solves
        # of a single run write nothing to the shared store.
        spec = ExperimentSpec(
            name="gw-store-lr",
            workload=WorkloadSpec.scenario("S1"),
            scheduler=SchedulerSpec(name="mmkp-lr"),
        )
        assert client.run(spec)["state"] == "done"
        assert gateway.server.content_store.stats()["namespaces"] == {}

    def test_batches_fill_the_store_and_metrics_expose_it(self, gateway, client):
        # Trials reseed the workload, so the batch spec must be seedable
        # (the motivational scenarios are fixed traces).
        spec = ExperimentSpec(
            name="gw-store-batch",
            workload=WorkloadSpec.poisson(arrival_rate=0.25, num_requests=8, seed=5),
            scheduler=SchedulerSpec(name="mmkp-mdf"),
        )
        submitted = client.submit_batch(spec, trials=3)
        done = client.wait_batch(submitted["id"])
        assert done["state"] == "done"

        server = gateway.server
        stats = server.content_store.stats()
        assert stats["namespaces"], "batch never wrote to the gateway store"
        # Only the batch's activation memo is store-backed.
        assert set(stats["namespaces"]) == {
            server.content_store.namespace("activation")
        }

        text = client.metrics_text()
        assert "# TYPE repro_store_puts counter" in text
        assert 'repro_store_puts{kind="activation"}' in text
        assert "# TYPE repro_store_hits counter" in text

    def test_no_store_no_series(self):
        with (
            InProcessGateway(GatewayConfig(port=0)) as gw,
            GatewayClient(gw.base_url) as client,
        ):
            client.run(_spec("gw-no-store"))
            assert "repro_store_" not in client.metrics_text()


class TestStoreObsCounts:
    def test_hits_and_misses_reach_an_active_tracer(self):
        store = ContentStore.in_memory()
        with Tracer(name="store-counts") as tracer:
            store.get("solve", "absent")
            store.put("solve", "k", "v")
            store.get("solve", "k")
        counts = {}
        for span in tracer.span_dicts():
            for name, value in span.get("counts", {}).items():
                counts[name] = counts.get(name, 0) + value
        assert counts.get("store.solve.miss") == 1
        assert counts.get("store.solve.hit") == 1
        assert counts.get("store.solve.puts") == 1
