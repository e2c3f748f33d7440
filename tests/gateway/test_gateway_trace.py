"""Gateway trace propagation: per-run trace ids, span trees and /metrics.

Talks to a live :class:`InProcessGateway` over sockets, like
``test_server.py`` — tracing must survive the loop-thread / executor split,
not just the in-process facade.
"""

import pytest

from repro.api import ExperimentSpec, SchedulerSpec, Session, WorkloadSpec
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.protocol import canonical_events
from repro.gateway.server import GatewayConfig, InProcessGateway
from repro.obs import PHASE_SPANS


def _spec(name: str = "gw-trace") -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        workload=WorkloadSpec.scenario("S1"),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
    )


@pytest.fixture(scope="module")
def gateway():
    with InProcessGateway(GatewayConfig(port=0)) as gw:
        yield gw


@pytest.fixture(scope="module")
def client(gateway):
    with GatewayClient(gateway.base_url) as client:
        yield client


@pytest.fixture(scope="module")
def finished(client):
    """One completed traced run shared by the read-only assertions."""
    return client.run(_spec())


class TestTraceEndpoint:
    def test_status_envelope_echoes_the_minted_trace_id(self, finished):
        assert len(finished["trace_id"]) == 16

    def test_trace_returns_the_completed_span_tree(self, client, finished):
        trace = client.trace(finished["id"])
        assert trace["id"] == finished["id"]
        assert trace["trace_id"] == finished["trace_id"]
        assert trace["state"] == "done"
        names = {span["name"] for span in trace["spans"]}
        assert {"rm.run", "rm.arrival", "phase.solve", "solve"} <= names
        assert all(
            span["trace_id"] == finished["trace_id"] for span in trace["spans"]
        )

    def test_root_span_is_named_after_the_run(self, client, finished):
        spans = client.trace(finished["id"])["spans"]
        roots = [span for span in spans if span["parent_id"] is None]
        assert [root["name"] for root in roots] == [f"gateway:{finished['id']}"]

    def test_unknown_run_is_404(self, client):
        with pytest.raises(GatewayError) as excinfo:
            client.trace("no-such-run")
        assert excinfo.value.status == 404

    def test_distinct_runs_get_distinct_trace_ids(self, client, finished):
        other = client.run(_spec("gw-trace-2"))
        assert other["trace_id"] != finished["trace_id"]


class TestSseFrames:
    def test_every_frame_carries_the_trace_id(self, client, finished):
        frames = list(client.events(finished["id"]))
        assert frames
        assert {frame["trace_id"] for frame in frames} == {finished["trace_id"]}

    def test_canonical_events_strip_the_trace_id(self, client, finished):
        reference = []
        Session.from_spec(_spec()).run(on_event=reference.append)
        remote = canonical_events(client.events(finished["id"]))
        assert remote == canonical_events(e.to_dict() for e in reference)
        assert all("trace_id" not in event for event in remote)


class TestMetrics:
    def test_phase_durations_reach_the_exposition(self, client, finished):
        text = client.metrics_text()
        assert "# TYPE repro_gateway_phase_seconds summary" in text
        for phase in ("rm.arrival", "phase.solve", "solve"):
            assert phase in PHASE_SPANS
            assert f'repro_gateway_phase_seconds_count{{phase="{phase}"}}' in text
        assert 'quantile="0.9"' in text


class TestDisabled:
    def test_trace_runs_false_runs_untraced(self):
        with (
            InProcessGateway(GatewayConfig(port=0, trace_runs=False)) as gw,
            GatewayClient(gw.base_url) as client,
        ):
            status = client.run(_spec("gw-untraced"))
            assert "trace_id" not in status
            trace = client.trace(status["id"])
            assert trace["trace_id"] is None
            assert trace["spans"] == []
            frames = list(client.events(status["id"]))
            assert all("trace_id" not in frame for frame in frames)
            assert "repro_gateway_phase_seconds" not in client.metrics_text()

    def test_tracing_does_not_change_results(self, finished):
        reference = Session.from_spec(_spec()).run()
        assert finished["result"]["fingerprint"] == reference.fingerprint()
