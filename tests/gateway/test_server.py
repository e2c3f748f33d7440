"""End-to-end tests of the gateway daemon over real sockets.

Every test talks to an :class:`InProcessGateway` (daemon thread, ephemeral
port) through the blocking :class:`GatewayClient` — the same path
``repro-rm submit`` takes.
"""

import json
import socket
import threading
import urllib.parse

import pytest

from repro.api import (
    ExperimentSpec,
    RunEvent,
    RunEventKind,
    SchedulerSpec,
    Session,
    WorkloadSpec,
)
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.protocol import canonical_events
from repro.gateway.server import GatewayConfig, InProcessGateway

#: The four paper schedulers, each run on the motivational workload.
ALL_SCHEDULERS = ("fixed", "mmkp-mdf", "mmkp-lr", "ex-mem")


def _scenario_spec(scheduler: str = "mmkp-mdf", name: str | None = None):
    return ExperimentSpec(
        name=name or f"gw-{scheduler}",
        workload=WorkloadSpec.scenario("S1"),
        scheduler=SchedulerSpec(name=scheduler),
    )


def _slow_spec(name: str = "gw-slow", requests: int = 400):
    return ExperimentSpec(
        name=name,
        workload=WorkloadSpec.poisson(
            arrival_rate=0.5, num_requests=requests, seed=1
        ),
    )


def _raw_exchange(gateway, raw: bytes) -> tuple[int, dict]:
    """Send ``raw`` on a fresh socket; the status and JSON body of the reply."""
    split = urllib.parse.urlsplit(gateway.base_url)
    with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection mid-headers"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection mid-body"
            body += chunk
    return int(head.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def gateway():
    with InProcessGateway(GatewayConfig(port=0)) as gw:
        yield gw


@pytest.fixture(scope="module")
def client(gateway):
    with GatewayClient(gateway.base_url) as client:
        yield client


class TestEquivalence:
    """Remote execution is an equivalence, not an approximation."""

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_gateway_run_matches_in_process_for_every_scheduler(
        self, client, scheduler
    ):
        spec = _scenario_spec(scheduler)

        reference_events = []
        reference_log = Session.from_spec(spec).run(
            on_event=reference_events.append
        )
        reference_wire = canonical_events(
            event.to_dict() for event in reference_events
        )

        status = client.run(spec)
        remote_wire = canonical_events(client.events(status["id"]))

        # Same ordered event sequence (wall-clock search times excluded)...
        assert remote_wire == reference_wire
        # ...and the same deterministic result fingerprint.
        assert status["result"]["fingerprint"] == reference_log.fingerprint()
        assert status["result"] == reference_log.summary()

    def test_batch_fingerprint_matches_in_process(self, client):
        # Trials reseed the workload, so the batch spec must be seedable
        # (the motivational scenarios are fixed traces).
        spec = ExperimentSpec(
            name="gw-batch",
            workload=WorkloadSpec.poisson(
                arrival_rate=0.25, num_requests=8, seed=5
            ),
        )
        reference = Session.from_spec(spec).run_batch(trials=3)
        record = client.submit_batch(spec, trials=3)
        status = client.wait_batch(record["id"])
        assert status["state"] == "done"
        assert status["result"]["fingerprint"] == reference.fingerprint()

    def test_batch_with_scheduler_options_completes(self, client):
        spec = ExperimentSpec(
            name="gw-batch-options",
            workload=WorkloadSpec.poisson(arrival_rate=0.25, num_requests=6, seed=2),
            scheduler=SchedulerSpec(
                name="mmkp-lr", options={"max_subgradient_iterations": 50}
            ),
        )
        reference = Session.from_spec(spec).run_batch(trials=2)
        record = client.submit_batch(spec, trials=2)
        status = client.wait_batch(record["id"])
        assert status["state"] == "done"
        assert status["result"]["aggregate"]["failed"] == 0
        assert status["result"]["fingerprint"] == reference.fingerprint()

    def test_warm_named_session_reproduces_the_cold_result(self, client):
        spec = _scenario_spec("mmkp-mdf", name="gw-warm")
        cold = client.run(spec, session="warm-0")
        warm = client.run(spec, session="warm-0")
        assert warm["result"]["fingerprint"] == cold["result"]["fingerprint"]
        assert canonical_events(client.events(warm["id"]))[:-1] == \
            canonical_events(client.events(cold["id"]))[:-1]
        # END differs only in the (stripped) wall-clock-free summary, which
        # must be identical too:
        assert client.run_status(warm["id"])["result"] == \
            client.run_status(cold["id"])["result"]

    def test_remote_events_rebuild_as_typed_run_events(self, client):
        spec = _scenario_spec("fixed", name="gw-typed")
        status = client.run(spec)
        events = [RunEvent.from_dict(p) for p in client.events(status["id"])]
        assert events[0].kind is RunEventKind.ARRIVAL
        assert events[-1].kind is RunEventKind.END
        times = [event.time for event in events]
        assert times == sorted(times)


class TestStreaming:
    def test_sse_replay_supports_resume_offsets(self, client):
        status = client.run(_scenario_spec("fixed", name="gw-resume"))
        full = list(client.events(status["id"]))
        assert len(full) >= 4
        tail = list(client.events(status["id"], start=len(full) - 2))
        assert tail == full[-2:]

    def test_live_stream_follows_a_running_run(self, client):
        record = client.submit_run(_slow_spec("gw-live", requests=30))
        seen = []
        for payload in client.events(record["id"]):
            seen.append(payload["kind"])
        assert seen[-1] == "end"
        assert client.run_status(record["id"])["state"] == "done"

    def test_failed_run_streams_a_terminal_error_frame(self, client):
        record = client.submit_run(_slow_spec("gw-doomed"), timeout_s=0.005)
        status = client.wait_run(record["id"])
        assert status["state"] == "failed"
        assert status["error"]["error"]["type"] == "timeout"
        frames = list(client.events(record["id"]))
        assert frames[-1]["kind"] == "error"
        assert frames[-1]["data"]["error"]["type"] == "timeout"

    def test_unusable_lr_iteration_cap_ends_in_an_error_envelope(self, client):
        spec = ExperimentSpec(
            name="gw-cap",
            workload=WorkloadSpec.scenario("S1"),
            scheduler=SchedulerSpec(
                name="mmkp-lr", options={"max_subgradient_iterations": 0}
            ),
        )
        with pytest.raises(GatewayError) as info:
            client.run(spec)
        error = info.value.body["error"]["error"]
        assert error["type"] == "workload"
        assert "max_subgradient_iterations" in error["message"]


class TestHttpSurface:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["records"]) == {"queued", "running", "done", "failed"}

    def test_metrics_exposition(self, client):
        client.run(_scenario_spec("fixed", name="gw-metrics"))
        text = client.metrics_text()
        assert "# TYPE repro_gateway_http_requests counter" in text
        assert "repro_gateway_runs_completed" in text
        assert "repro_gateway_running_peak" in text

    def test_unknown_run_is_404(self, client):
        with pytest.raises(GatewayError) as info:
            client.run_status("run-999999")
        assert info.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(GatewayError) as info:
            client._request("DELETE", "/runs/run-000001")
        assert info.value.status == 405

    def test_unknown_route_is_404(self, client):
        with pytest.raises(GatewayError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404

    @pytest.mark.parametrize(
        "extra",
        [{"spec": "not an object"}, {"timeout_s": "nan"}, {"timeout_s": "inf"}],
    )
    def test_malformed_body_is_400(self, client, extra):
        body = {"spec": _scenario_spec(name="gw-malformed").to_dict(), **extra}
        with pytest.raises(GatewayError) as info:
            client._request("POST", "/runs", body)
        assert info.value.status == 400
        assert info.value.body["error"]["type"] == "protocol"

    @pytest.mark.parametrize(
        "raw, kind",
        [
            pytest.param(
                b"POST /runs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                "http",
                id="negative-content-length",
            ),
            pytest.param(
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                "http",
                id="request-line-over-64KiB",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70_000 + b"\r\n\r\n",
                "http",
                id="header-line-over-64KiB",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 9_000 + b"\r\n\r\n",
                "http",
                id="header-line-over-8KiB",
            ),
            pytest.param(
                b"GET http://[::1/healthz HTTP/1.1\r\n\r\n",
                "http",
                id="malformed-target",
            ),
            pytest.param(
                b"POST /runs HTTP/1.1\r\nContent-Length: 5000\r\n\r\n" + b"1" * 5000,
                "protocol",
                id="number-past-the-int-digit-limit",
            ),
            pytest.param(
                b"POST /runs HTTP/1.1\r\nContent-Length: 200000\r\n\r\n"
                + b"[" * 100_000
                + b"]" * 100_000,
                "protocol",
                id="json-nested-past-the-recursion-limit",
            ),
        ],
    )
    def test_malformed_request_is_400_and_the_daemon_keeps_serving(
        self, gateway, client, raw, kind
    ):
        status, body = _raw_exchange(gateway, raw)
        assert status == 400
        assert body["error"]["type"] == kind
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("engine", ["bogus", "linear"])
    def test_unknown_engine_is_400_at_submission(self, client, engine):
        body = {"spec": _scenario_spec(name="gw-engine").to_dict(), "engine": engine}
        with pytest.raises(GatewayError) as info:
            client._request("POST", "/runs", body)
        assert info.value.status == 400
        assert info.value.body["error"]["type"] == "protocol"
        assert engine in info.value.body["error"]["message"]
        # The daemon is unharmed: a valid run on the same server finishes.
        ok = client.run(_scenario_spec("fixed", name="gw-after-engine"))
        assert ok["state"] == "done"

    def test_submit_failure_is_isolated_per_run(self, client):
        """A failed run never poisons the daemon for the next one."""
        record = client.submit_run(_slow_spec("gw-fail"), timeout_s=0.001)
        assert client.wait_run(record["id"])["state"] == "failed"
        ok = client.run(_scenario_spec("fixed", name="gw-after-fail"))
        assert ok["state"] == "done"


class TestRunPath:
    def test_a_run_drives_the_session_on_its_executor_thread(
        self, client, monkeypatch
    ):
        """One thread per run: no session worker thread, and the stream
        still equals the in-process event sequence."""
        spec = _slow_spec("gw-one-thread", requests=30)
        reference_events = []
        Session.from_spec(spec).run(on_event=reference_events.append)

        started, runners = [], []
        start, run = threading.Thread.start, Session.run

        def recording_start(thread):
            started.append(thread.name)
            return start(thread)

        def recording_run(session, **kwargs):
            runners.append(threading.current_thread().name)
            return run(session, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(Session, "run", recording_run)
        status = client.run(spec)
        remote_wire = canonical_events(client.events(status["id"]))

        assert [name for name in started if name.startswith("repro-session-")] == []
        assert len(runners) == 1 and runners[0].startswith("repro-gateway")
        assert remote_wire == canonical_events(
            event.to_dict() for event in reference_events
        )


class TestConcurrency:
    def test_many_concurrent_clients_respect_the_global_bound(self):
        """12 concurrent clients over 3 tenant labels: everything completes,
        no errors, and the concurrency peak never exceeds the one bound —
        the excess queued instead of failing."""
        config = GatewayConfig(port=0, max_concurrent=4)
        with InProcessGateway(config) as gateway:
            results = []
            errors = []

            def one_client(index):
                tenant = f"tenant-{index % 3}"
                try:
                    with GatewayClient(gateway.base_url, tenant=tenant) as client:
                        status = client.run(
                            _scenario_spec("mmkp-mdf", name=f"gw-par-{index}")
                        )
                    results.append(status["result"]["fingerprint"])
                except BaseException as error:  # surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=one_client, args=(i,)) for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert errors == []
            assert len(results) == 12

            admission = gateway.server.admission
            assert admission.admitted == 12
            assert admission.peak_total <= config.max_concurrent
            assert admission.running_total == 0
            assert admission.queued_total == 0

    def test_queue_timeout_fails_the_submission_not_the_daemon(self):
        config = GatewayConfig(port=0, max_concurrent=1, queue_timeout_s=0.01)
        with (
            InProcessGateway(config) as gateway,
            GatewayClient(gateway.base_url) as client,
        ):
            blocker = client.submit_run(_slow_spec("gw-blocker"))
            starved = client.submit_run(_scenario_spec(name="gw-starved"))
            status = client.wait_run(starved["id"])
            assert status["state"] == "failed"
            assert status["error"]["error"]["type"] == "timeout"
            # The blocking run still finishes untouched.
            assert client.wait_run(blocker["id"])["state"] == "done"


class TestGracefulDrain:
    def test_draining_refuses_new_work_and_finishes_in_flight(self):
        with (
            InProcessGateway(GatewayConfig(port=0)) as gateway,
            GatewayClient(gateway.base_url) as client,
        ):
            in_flight = client.submit_run(_slow_spec("gw-drain"))

            flipped = threading.Event()

            def flip():
                gateway.server.draining = True
                flipped.set()

            gateway._loop.call_soon_threadsafe(flip)
            assert flipped.wait(timeout=10)

            with pytest.raises(GatewayError) as info:
                client.submit_run(_scenario_spec(name="gw-refused"))
            assert info.value.status == 503
            assert info.value.body["error"]["type"] == "draining"
            with pytest.raises(GatewayError) as batch_info:
                client.submit_batch(_scenario_spec(name="gw-refused-b"))
            assert batch_info.value.status == 503

            health = client.healthz()
            assert health["status"] == "draining"

            # The in-flight run is never abandoned.
            assert client.wait_run(in_flight["id"])["state"] == "done"
        # __exit__ completed the drain: the daemon thread is gone.
        assert not gateway._thread.is_alive()


class TestCliSubmit:
    def test_repro_rm_submit_round_trip(self, gateway, tmp_path, capsys):
        from repro.cli import main

        spec = _scenario_spec("mmkp-mdf", name="gw-cli")
        path = tmp_path / "spec.json"
        spec.save(path)
        rc = main(["submit", str(path), "--url", gateway.base_url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gw-cli" in out and "fingerprint" in out
        reference = Session.from_spec(spec).run()
        assert reference.fingerprint() in out

    def test_repro_rm_submit_stream(self, gateway, tmp_path, capsys):
        from repro.cli import main

        spec = _scenario_spec("fixed", name="gw-cli-stream")
        path = tmp_path / "spec.json"
        spec.save(path)
        rc = main(["submit", str(path), "--url", gateway.base_url, "--stream"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "arrival" in out and "finish" in out

    @pytest.mark.parametrize("outcome", ["finished", "failed", "unreachable"])
    def test_repro_rm_submit_closes_its_client(
        self, gateway, tmp_path, monkeypatch, outcome
    ):
        from repro.cli import main

        closed = []
        close = GatewayClient.close

        def counting_close(client):
            closed.append(client)
            close(client)

        monkeypatch.setattr(GatewayClient, "close", counting_close)
        url = gateway.base_url
        if outcome == "unreachable":
            with socket.socket() as probe:  # a port nothing listens on
                probe.bind(("127.0.0.1", 0))
                url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        path = tmp_path / "spec.json"
        argv = ["submit", str(path), "--url", url]
        if outcome == "failed":
            _slow_spec("gw-cli-fail").save(path)
            argv += ["--timeout", "0.001"]
        else:
            _scenario_spec("fixed", name="gw-cli-close").save(path)
        rc = main(argv)
        assert rc == {"finished": 0, "failed": 1, "unreachable": 2}[outcome]
        assert len(closed) == 1
