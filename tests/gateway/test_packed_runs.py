"""Finished runs are packed, and serve exactly what they served live.

Once a run is terminal, its :class:`~repro.gateway.runs.RunRecord` keeps the
event payloads and the span dictionaries as one pickle blob each.  These
tests pin what a client sees of such a run to what streamed while it was
live: the SSE frames byte for byte over a raw socket, the ``/trace`` JSON
and the ``/metrics`` phase counts.  They also bound the memory each
finished run keeps in the daemon.
"""

import gc
import json
import re
import socket
import tracemalloc
import urllib.parse

import pytest

from repro.api import ExperimentSpec, PlatformSpec, SchedulerSpec, WorkloadSpec
from repro.gateway.client import GatewayClient
from repro.gateway.server import GatewayConfig, InProcessGateway
from repro.obs import PHASE_SPANS
from repro.obs.tracer import Tracer

#: Bytes one finished run may keep in the daemon, over the mix below.  A
#: record that holds its events and spans as dicts keeps about 65 KB per
#: run of this mix; packed, it keeps about 14 KB.
RETAINED_BYTES_PER_RUN = 24 * 1024


def _scenario_spec(scheduler: str, scenario: str = "S1") -> ExperimentSpec:
    return ExperimentSpec(
        name=f"packed-{scenario}-{scheduler}",
        workload=WorkloadSpec.scenario(scenario),
        scheduler=SchedulerSpec(name=scheduler),
    )


def _poisson_spec(name: str, seed: int = 1) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        platform=PlatformSpec(name="odroid-xu4"),
        tables="paper-reduced",
        workload=WorkloadSpec.poisson(arrival_rate=0.5, num_requests=25, seed=seed),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
    )


#: Short Fig. 1 runs of three schedulers and two longer Poisson runs.
MIX = (
    _scenario_spec("fixed"),
    _scenario_spec("mmkp-mdf"),
    _scenario_spec("mmkp-lr", "S2"),
    _scenario_spec("ex-mem", "S2"),
    _poisson_spec("packed-poisson-1", seed=1),
    _poisson_spec("packed-poisson-2", seed=2),
)


def _get(gateway, target: str) -> tuple[int, bytes]:
    """One GET on a fresh raw socket: the status and the whole body, read
    until the daemon closes the connection."""
    split = urllib.parse.urlsplit(gateway.base_url)
    with socket.create_connection((split.hostname, split.port), timeout=30) as sock:
        sock.sendall(f"GET {target} HTTP/1.1\r\n\r\n".encode("latin-1"))
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def _frames(body: bytes) -> list[bytes]:
    """An SSE body cut into its frames, each with its closing blank line."""
    *frames, rest = body.split(b"\n\n")
    assert rest == b"", f"stream ended inside a frame: {rest!r}"
    return [frame + b"\n\n" for frame in frames]


def _held_dicts(record) -> list[dict]:
    """Every dict reachable from the record's fields through containers
    (the asyncio event that wakes its waiters is not one of them)."""
    held: list[dict] = []
    stack = [value for name, value in vars(record).items() if name != "_changed"]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            held.append(value)
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return held


@pytest.fixture(scope="module")
def gateway():
    with InProcessGateway(GatewayConfig(port=0)) as gw:
        yield gw


@pytest.fixture(scope="module")
def streamed(gateway):
    """A run followed over SSE from its submission on: its id and the raw
    frames that streamed while it ran."""
    with GatewayClient(gateway.base_url) as client:
        record = client.submit_run(_poisson_spec("packed-live"))
    status, body = _get(gateway, f"/runs/{record['id']}/events")
    assert status == 200
    return record["id"], _frames(body)


class TestReplay:
    def test_the_live_stream_is_the_whole_run(self, gateway, streamed):
        run_id, live = streamed
        with GatewayClient(gateway.base_url) as client:
            status = client.run_status(run_id)
        assert status["state"] == "done"
        assert status["events"] == len(live)
        ids = [int(frame.split(b"\n", 1)[0].removeprefix(b"id: ")) for frame in live]
        assert ids == list(range(len(live)))
        assert live[-1].split(b"\n")[1] == b"event: end"

    def test_a_finished_record_holds_no_event_or_span_dict(self, gateway, streamed):
        run_id, live = streamed
        record = gateway.server.registry.run(run_id)
        assert len(record.events()) == len(live) and len(record.spans()) > 20
        held = _held_dicts(record)
        assert not [d for d in held if "kind" in d or "span_id" in d]
        assert len(held) < 8  # the result summary and its energy breakdown

    @pytest.mark.parametrize(
        "start",
        [
            pytest.param(lambda n: -3, id="from=-3"),
            pytest.param(lambda n: 0, id="from=0"),
            pytest.param(lambda n: n - 2, id="from=N-2"),
            pytest.param(lambda n: n, id="from=N"),
            pytest.param(lambda n: n + 100, id="from=N+100"),
        ],
    )
    def test_a_replay_is_the_live_stream_byte_for_byte(
        self, gateway, streamed, start
    ):
        run_id, live = streamed
        offset = start(len(live))
        status, body = _get(gateway, f"/runs/{run_id}/events?from={offset}")
        assert status == 200
        assert body == b"".join(live[max(0, offset):])

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_a_bad_offset_is_400_and_the_daemon_keeps_serving(
        self, gateway, streamed, value
    ):
        run_id, _ = streamed
        status, body = _get(gateway, f"/runs/{run_id}/events?from={value}")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "protocol"
        status, body = _get(gateway, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"


class TestTrace:
    def test_a_finished_trace_is_the_span_list_the_run_produced(
        self, gateway, monkeypatch
    ):
        produced = {}
        span_dicts = Tracer.span_dicts

        def recording(tracer):
            produced[tracer.trace_id] = spans = span_dicts(tracer)
            return spans

        monkeypatch.setattr(Tracer, "span_dicts", recording)
        with GatewayClient(gateway.base_url) as client:
            finished = client.run(_scenario_spec("mmkp-mdf"))
        status, body = _get(gateway, f"/runs/{finished['id']}/trace")
        assert status == 200
        spans = produced[finished["trace_id"]]
        expected = {
            "id": finished["id"],
            "trace_id": finished["trace_id"],
            "state": "done",
            "spans": spans,
        }
        assert body == (json.dumps(expected, sort_keys=True) + "\n").encode("utf-8")
        served = json.loads(body)["spans"]
        assert served[0]["parent_id"] is None and served[0]["start_s"] >= 0.0
        assert all(0.0 <= span["start_s"] < 60.0 for span in served)


class TestFootprint:
    def test_finished_runs_keep_a_few_kilobytes_and_their_phase_counts(self):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            with (
                InProcessGateway(GatewayConfig(port=0)) as gw,
                GatewayClient(gw.base_url) as client,
            ):
                # Warm every named session, table set and memo first.
                ids = [client.run(spec, session=spec.name)["id"] for spec in MIX]
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                measured = [
                    client.run(spec, session=spec.name)["id"] for spec in MIX * 7
                ]
                client.healthz()
                gc.collect()
                retained = (tracemalloc.get_traced_memory()[0] - before) / len(measured)
                spans = [
                    span
                    for run_id in ids + measured
                    for span in client.trace(run_id)["spans"]
                ]
                metrics = client.metrics_text()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(measured) >= 40
        assert retained < RETAINED_BYTES_PER_RUN, f"{retained / 1024:.1f} KB per run"
        served = {
            phase: int(count)
            for phase, count in re.findall(
                r'^repro_gateway_phase_seconds_count\{phase="([^"]+)"\} (\d+)$',
                metrics,
                re.MULTILINE,
            )
        }
        names = [span["name"] for span in spans if span["name"] in PHASE_SPANS]
        assert served == {name: names.count(name) for name in set(names)}
