"""The asyncio gateway daemon: the Session facade served over HTTP.

Stdlib-only (``asyncio.start_server`` + a minimal HTTP/1.1 layer — the
repository is offline-installable, so no web framework).  Endpoints:

========================  =====================================================
``POST /runs``            submit an :class:`~repro.api.spec.ExperimentSpec`;
                          202 with the queued run record
``GET /runs/{id}``        run status (result summary + fingerprint when done)
``GET /runs/{id}/wait``   long-poll: respond once the run is terminal
``GET /runs/{id}/events`` Server-Sent Events replay + live stream of the
                          run's :class:`~repro.api.events.RunEvent`\\ s
``POST /batches``         submit seeded trials; 202 with the batch record
``GET /batches/{id}``     batch status (``BatchResults.to_dict`` when done)
``GET /batches/{id}/wait`` long-poll for batch completion
``GET /healthz``          liveness + drain state + queue depths
``GET /metrics``          Prometheus text exposition
========================  =====================================================

Connections default to one request per socket (``Connection: close``), but a
client that sends ``Connection: keep-alive`` gets the connection back for the
next request — the blocking :class:`~repro.gateway.client.GatewayClient` uses
this to run submit/poll loops over a single socket.  SSE responses always
stream until the run ends and then close.  ``SIGTERM``/``SIGINT`` trigger a
graceful drain: new submissions get 503, in-flight and queued work finishes,
then the daemon exits.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import threading
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ReproError
from repro.gateway import protocol
from repro.gateway.admission import AdmissionController, AdmissionTimeout
from repro.gateway.bridge import EventBridge
from repro.gateway.protocol import ProtocolError
from repro.gateway.runs import RunRegistry, RunState
from repro.gateway.store import SessionStore
from repro.obs.profile import PHASE_SPANS
from repro.obs.tracer import Tracer
from repro.service.metrics import (
    Counter,
    Histogram,
    prometheus_grouped_lines,
    prometheus_lines,
)

_MAX_LINE_BYTES = 8192
_MAX_HEADER_COUNT = 100
_READ_TIMEOUT_S = 30.0


class RunTimeout(ReproError):
    """An admitted run exceeded its submission's ``timeout_s``."""


@dataclass(frozen=True)
class GatewayConfig:
    """Tunable knobs of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8023  # 0 = ephemeral (the bound port is GatewayServer.port)
    #: Bound on simultaneously running simulations; the excess queues FIFO.
    max_concurrent: int = 8
    #: Default bound on queue wait (None: wait forever).
    queue_timeout_s: float | None = None
    #: Worker count of each batch submission's SimulationService.
    batch_workers: int = 1
    #: Largest accepted request body.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Trace every run with a :class:`~repro.obs.Tracer`: responses carry a
    #: ``trace_id``, the span tree is served by ``GET /runs/{id}/trace`` and
    #: phase durations feed the ``/metrics`` exposition.
    trace_runs: bool = True
    #: Path of a persistent :class:`~repro.store.ContentStore` behind the
    #: activation memo of every batch submission (``None``: no store).
    #: Single runs never read or write it.
    store_path: str | None = None


#: ``repro_service_*`` counter → description.  Each finished batch adds its
#: ``BatchResults.aggregate()`` totals and its activation memo's hits and
#: misses (:meth:`GatewayMetrics.observe_batch`).
_SERVICE_COUNTERS = {
    "traces_run": "simulations completed",
    "traces_failed": "simulations failed",
    "requests_total": "requests simulated",
    "requests_accepted": "requests admitted",
    "requests_rejected": "requests rejected",
    "activations": "scheduler activations",
    "cache_hits": "activation cache hits",
    "cache_misses": "activation cache misses",
    "budget_rejections": "requests rejected by the energy budget",
}

#: ``repro_service_*`` histogram → description (one sample per completed
#: trace, or per admitted request for ``request_energy``).
_SERVICE_HISTOGRAMS = {
    "trace_energy": "energy per trace (J)",
    "request_energy": "energy per admitted request (J)",
    "trace_search_time": "scheduler time per trace (s)",
    "trace_wall_time": "wall-clock time per trace (s)",
}


class GatewayMetrics:
    """Daemon-level counters and histograms (served by ``GET /metrics``).

    Every mutator runs on the event loop thread.
    """

    def __init__(self) -> None:
        self.http_requests = Counter("http_requests", "HTTP requests handled")
        self.runs_submitted = Counter("runs_submitted", "runs accepted")
        self.runs_completed = Counter("runs_completed", "runs finished ok")
        self.runs_failed = Counter("runs_failed", "runs failed or timed out")
        self.batches_submitted = Counter("batches_submitted", "batches accepted")
        self.batches_completed = Counter("batches_completed", "batches finished ok")
        self.batches_failed = Counter("batches_failed", "batches failed")
        self.rejected_draining = Counter(
            "rejected_draining", "submissions refused while draining"
        )
        self.sse_streams = Counter("sse_streams", "event streams served")
        self.queue_wait_s = Histogram("queue_wait_s", "admission queue wait (s)")
        self.run_wall_s = Histogram("run_wall_s", "run wall time (s)")
        #: Span-derived phase durations, one histogram per phase span name.
        self.phase_seconds: dict[str, Histogram] = {}
        #: The ``repro_service_*`` series: every finished batch, folded in.
        self.service_counters = {
            name: Counter(name, text) for name, text in _SERVICE_COUNTERS.items()
        }
        self.service_histograms = {
            name: Histogram(name, text) for name, text in _SERVICE_HISTOGRAMS.items()
        }

    def observe_phases(self, spans) -> None:
        """Fold one traced run's phase-span durations into the histograms."""
        for span in spans:
            name = span.get("name")
            if name not in PHASE_SPANS:
                continue
            histogram = self.phase_seconds.get(name)
            if histogram is None:
                histogram = self.phase_seconds[name] = Histogram(
                    f"phase_{name}", f"duration of {name} spans (s)"
                )
            histogram.observe(span["duration_s"])

    def observe_batch(self, results, cache_info: Mapping[str, int]) -> None:
        """Fold one finished batch into the ``repro_service_*`` series.

        ``results`` is its :class:`~repro.service.pool.BatchResults` and
        ``cache_info`` its activation memo's :meth:`~repro.store.memo.Memo.info`.
        """
        totals = results.aggregate()
        for name, amount in (
            ("traces_run", totals["traces"] - totals["failed"]),
            ("traces_failed", totals["failed"]),
            ("requests_total", totals["requests"]),
            ("requests_accepted", totals["accepted"]),
            ("requests_rejected", totals["rejected"]),
            ("activations", totals["activations"]),
            ("cache_hits", cache_info["hits"]),
            ("cache_misses", cache_info["misses"]),
            ("budget_rejections", totals["budget_rejections"]),
        ):
            self.service_counters[name].increment(amount)
        histograms = self.service_histograms
        for result in results.ok:
            histograms["trace_energy"].observe(result.total_energy)
            for outcome in result.outcomes:
                if outcome.accepted:
                    histograms["request_energy"].observe(outcome.energy)
            histograms["trace_search_time"].observe(result.search_time_total)
            histograms["trace_wall_time"].observe(result.wall_time)

    def counters(self) -> tuple[Counter, ...]:
        return (
            self.http_requests,
            self.runs_submitted,
            self.runs_completed,
            self.runs_failed,
            self.batches_submitted,
            self.batches_completed,
            self.batches_failed,
            self.rejected_draining,
            self.sse_streams,
        )

    def histograms(self) -> tuple[Histogram, ...]:
        return (self.queue_wait_s, self.run_wall_s)


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        # ValueError: bad UTF-8, bad JSON or an integer past the digit limit;
        # RecursionError: nesting deeper than the interpreter allows.
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except (ValueError, RecursionError) as error:
            raise ProtocolError(f"request body is not valid JSON: {error}") from None


class _HttpError(Exception):
    """Routed straight to an error response."""

    def __init__(self, status: int, body: dict):
        super().__init__(body)
        self.status = status
        self.body = body


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class GatewayServer:
    """The scheduler-as-a-service daemon over :class:`~repro.api.session.Session`.

    ``GET /metrics`` serves three series families: ``repro_gateway_*``
    (:class:`GatewayMetrics`' daemon counters, queue waits and phase
    durations, plus the admission gauges), ``repro_service_*`` (every
    finished batch's ``BatchResults.aggregate()`` totals and activation
    memo hits and misses, folded in on the loop thread) and, with a
    ``store_path``, ``repro_store_*`` (the content store's per-kind
    counters).

    Lifecycle::

        server = GatewayServer(GatewayConfig(port=0))
        await server.start()          # binds; server.port is the real port
        ...                           # requests are served by the loop
        await server.drain()          # 503 new work, finish in-flight, stop
    """

    def __init__(self, config: GatewayConfig | None = None):
        self.config = config or GatewayConfig()
        from repro.store.content import resolve_store

        self.content_store = resolve_store(self.config.store_path)
        self.store = SessionStore()
        self.registry = RunRegistry()
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            queue_timeout_s=self.config.queue_timeout_s,
        )
        self.metrics = GatewayMetrics()
        self.draining = False
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._closed = asyncio.Event()
        # Simulations run here; +1 head-room so a drain-time batch never
        # deadlocks behind the cap.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.max_concurrent + 1,
            thread_name_prefix="repro-gateway",
        )
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """Graceful drain on SIGTERM/SIGINT (daemon mode)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: self._spawn(self.drain())
                )
            except NotImplementedError:  # pragma: no cover — non-POSIX loops
                pass

    async def wait_closed(self) -> None:
        """Block until :meth:`drain`/:meth:`aclose` finished."""
        await self._closed.wait()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish everything accepted.

        Reentrant: a second SIGTERM (or a drain after the flag was already
        raised) waits for the same live records and closes the same server —
        every caller observes the shutdown complete.
        """
        self.draining = True
        for record in self.registry.live():
            await record.wait_done()
        await self.aclose()

    async def aclose(self) -> None:
        """Stop listening and release the executor (does not wait for work)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)
        self._closed.set()

    def _spawn(self, coroutine) -> asyncio.Task:
        """Create a tracked background task (kept referenced until done)."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One request or header line, refused with 400 when too long."""
        try:
            line = await reader.readline()
            if len(line) <= _MAX_LINE_BYTES:
                return line
        except ValueError:  # longer than the StreamReader's own buffer limit
            pass
        raise _HttpError(400, protocol.error_body("http", "line too long"))

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        line = await self._read_line(reader)
        if not line:
            return None  # client connected and left
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
            split = urllib.parse.urlsplit(target)
        except ValueError:
            raise _HttpError(
                400, protocol.error_body("http", f"malformed request line {line!r}")
            ) from None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_COUNT):
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, protocol.error_body("http", "too many headers"))
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                size = -1
            if size < 0:
                raise _HttpError(
                    400, protocol.error_body("http", f"bad Content-Length {length!r}")
                )
            if size > self.config.max_body_bytes:
                raise _HttpError(
                    413,
                    protocol.error_body(
                        "http", f"body of {size} bytes exceeds the limit"
                    ),
                )
            body = await reader.readexactly(size)
        # Blank values are kept, so ``?from=`` reads as "" and is refused
        # like any other non-integer.
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(
                split.query, keep_blank_values=True
            ).items()
        }
        return _Request(method.upper(), split.path, query, headers, body)

    @classmethod
    def _write_response(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        body: Mapping[str, Any],
        *,
        keep_alive: bool = False,
    ) -> None:
        """A JSON response: ``body`` serialised with sorted keys."""
        cls._write_text(
            writer,
            status,
            json.dumps(body, sort_keys=True) + "\n",
            "application/json",
            keep_alive=keep_alive,
        )

    @staticmethod
    def _write_text(
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str,
        *,
        keep_alive: bool = False,
    ) -> None:
        payload = text.encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {connection}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        writer.write(payload)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            again = True
            while again:
                again = False
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), _READ_TIMEOUT_S
                    )
                    if request is None:
                        return
                    self.metrics.http_requests.increment()
                    keep_alive = (
                        request.headers.get("connection", "").strip().lower()
                        == "keep-alive"
                    )
                    again = await self._route(request, writer, keep_alive)
                except _HttpError as error:
                    self._write_response(writer, error.status, error.body)
                except ProtocolError as error:
                    self._write_response(writer, 400, protocol.error_from(error))
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionError,
                ):
                    return
                except Exception as error:  # noqa: BLE001 — last-resort 500
                    self._write_response(writer, 500, protocol.error_from(error))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A kept-alive handler parked on the next read may be cancelled
            # at shutdown; wait_closed() then re-raises the cancellation.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _route(
        self, request: _Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Dispatch one request; return True when the socket may be reused.

        ``keep_alive`` is what the client asked for; every plain response
        echoes it, while SSE streams and error paths always close.
        """
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            self._write_response(writer, 200, self._health(), keep_alive=keep_alive)
            return keep_alive
        if path == "/metrics" and method == "GET":
            self._write_text(
                writer,
                200,
                self._prometheus(),
                "text/plain; version=0.0.4",
                keep_alive=keep_alive,
            )
            return keep_alive
        if path == "/runs" and method == "POST":
            await self._submit_run(request, writer, keep_alive)
            return keep_alive
        if path == "/batches" and method == "POST":
            await self._submit_batch(request, writer, keep_alive)
            return keep_alive
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 2 and parts[0] in ("runs", "batches") and method == "GET":
            lookup = self.registry.run if parts[0] == "runs" else self.registry.batch
            record = lookup(parts[1])
            if record is None:
                raise _HttpError(
                    404,
                    protocol.error_body(
                        "not_found", f"no such {parts[0][:-1]}: {parts[1]!r}"
                    ),
                )
            if len(parts) == 2:
                self._write_response(
                    writer, 200, record.status(), keep_alive=keep_alive
                )
                return keep_alive
            if len(parts) == 3 and parts[2] == "wait":
                await record.wait_done()
                self._write_response(
                    writer, 200, record.status(), keep_alive=keep_alive
                )
                return keep_alive
            if len(parts) == 3 and parts[2] == "events" and parts[0] == "runs":
                await self._stream_events(request, record, writer)
                return False
            if len(parts) == 3 and parts[2] == "trace" and parts[0] == "runs":
                self._write_response(
                    writer,
                    200,
                    {
                        "id": record.id,
                        "trace_id": record.trace_id,
                        "state": record.state.value,
                        "spans": record.spans(),
                    },
                    keep_alive=keep_alive,
                )
                return keep_alive
        if path in ("/runs", "/batches") or (
            len(parts) >= 2 and parts[0] in ("runs", "batches")
        ):
            raise _HttpError(
                405, protocol.error_body("http", f"{method} not allowed on {path}")
            )
        raise _HttpError(404, protocol.error_body("not_found", f"no route {path!r}"))

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "running": self.admission.running_total,
            "queued": self.admission.queued_total,
            "records": self.registry.counts(),
        }

    def _prometheus(self) -> str:
        lines = prometheus_lines(
            self.metrics.counters(),
            self.metrics.histograms(),
            prefix="repro_gateway",
        )
        lines.append("# TYPE repro_gateway_running gauge")
        lines.append(f"repro_gateway_running {self.admission.running_total}")
        lines.append("# TYPE repro_gateway_queued gauge")
        lines.append(f"repro_gateway_queued {self.admission.queued_total}")
        lines.append("# TYPE repro_gateway_running_peak gauge")
        lines.append(f"repro_gateway_running_peak {self.admission.peak_total}")
        lines.extend(
            prometheus_grouped_lines(
                "phase_seconds",
                "span-derived scheduling phase durations (s)",
                self.metrics.phase_seconds,
                prefix="repro_gateway",
            )
        )
        lines.extend(self._store_lines())
        lines.extend(
            prometheus_lines(
                self.metrics.service_counters.values(),
                self.metrics.service_histograms.values(),
                prefix="repro_service",
            )
        )
        return "\n".join(lines) + "\n"

    #: Store counter → Prometheus series description.  Every series is
    #: ``repro_store_<name>`` with one sample per cache kind.
    _STORE_SERIES = {
        "hits": "store lookups served by the backend",
        "misses": "store lookups that fell through to a recompute",
        "puts": "entries written through to the backend",
        "corrupt": "corrupted or truncated entries degraded to misses",
        "errors": "backend failures degraded to misses",
        "bytes_read": "payload bytes deserialised from the backend",
        "bytes_written": "payload bytes written to the backend",
    }

    def _store_lines(self) -> list[str]:
        """``repro_store_*`` series of the shared content store (if any)."""
        if self.content_store is None:
            return []
        counters = self.content_store.counters()
        lines: list[str] = []
        for stat, description in self._STORE_SERIES.items():
            grouped = {kind: values[stat] for kind, values in counters.items()}
            lines.extend(
                prometheus_grouped_lines(
                    f"store_{stat}",
                    description,
                    grouped,
                    prefix="repro",
                    label="kind",
                    metric_type="counter",
                )
            )
        return lines

    def _refuse_if_draining(self) -> None:
        if self.draining:
            self.metrics.rejected_draining.increment()
            raise _HttpError(
                503,
                protocol.error_body(
                    "draining", "daemon is draining; resubmit elsewhere"
                ),
            )

    async def _submit_run(
        self, request: _Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        self._refuse_if_draining()
        submission = protocol.parse_run_submission(request.json())
        trace_id = uuid.uuid4().hex[:16] if self.config.trace_runs else None
        record = self.registry.new_run(
            submission.tenant, submission.spec.name, trace_id=trace_id
        )
        self.metrics.runs_submitted.increment()
        self._spawn(self._execute_run(record, submission))
        self._write_response(writer, 202, record.status(), keep_alive=keep_alive)

    async def _submit_batch(
        self, request: _Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        self._refuse_if_draining()
        submission = protocol.parse_batch_submission(request.json())
        record = self.registry.new_batch(
            submission.tenant, submission.spec.name, submission.trials
        )
        self.metrics.batches_submitted.increment()
        self._spawn(self._execute_batch(record, submission))
        self._write_response(writer, 202, record.status(), keep_alive=keep_alive)

    async def _stream_events(
        self, request: _Request, record, writer: asyncio.StreamWriter
    ) -> None:
        try:
            start = int(request.query.get("from", "0"))
        except ValueError:
            raise ProtocolError(
                f"events ?from= must be an integer, got {request.query['from']!r}"
            ) from None
        self.metrics.sse_streams.increment()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        index = max(0, start)
        while True:
            events, done = await record.wait_events(index)
            writer.write(
                b"".join(
                    protocol.sse_frame(payload, position, trace_id=record.trace_id)
                    for position, payload in enumerate(events, index)
                )
            )
            index += len(events)
            await writer.drain()  # SSE backpressure: respect the socket
            if done and index >= record.event_count:
                break
        if record.state is RunState.FAILED and record.error is not None:
            # A terminal frame distinct from any RunEventKind, so stream
            # consumers need no second status request to learn the outcome.
            writer.write(
                protocol.sse_frame(
                    {"kind": "error", "time": record.finished_at, "data": record.error},
                    index,
                    trace_id=record.trace_id,
                )
            )
            await writer.drain()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _queue_budget(
        self, deadline: float | None
    ) -> float | None:
        """Remaining admission wait allowed by the submission deadline."""
        if deadline is None:
            return self.admission.queue_timeout_s
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise AdmissionTimeout("submission deadline expired while queued")
        if self.admission.queue_timeout_s is None:
            return remaining
        return min(remaining, self.admission.queue_timeout_s)

    async def _execute_run(self, record, submission) -> None:
        deadline = (
            time.monotonic() + submission.timeout_s
            if submission.timeout_s is not None
            else None
        )
        loop = asyncio.get_running_loop()
        bridge = EventBridge(loop, record.append_event)
        try:
            async with self.admission.slot(self._queue_budget(deadline)):
                record.mark_running()
                self.metrics.queue_wait_s.observe(time.time() - record.submitted_at)
                started = time.perf_counter()

                def work() -> list[dict] | None:
                    session = self.store.session_for(
                        submission.tenant, submission.session, submission.spec
                    )
                    tracer = (
                        Tracer(trace_id=record.trace_id, name=f"gateway:{record.id}")
                        if record.trace_id is not None
                        else None
                    )

                    # Runs inside the simulation on this executor thread: a
                    # full bridge blocks the run itself, and a RunTimeout or
                    # BridgeClosed raised here ends it at this event.
                    def observe(event) -> None:
                        if deadline is not None and time.monotonic() > deadline:
                            raise RunTimeout(
                                f"run {record.id} exceeded "
                                f"timeout_s={submission.timeout_s:g}"
                            )
                        bridge.emit(event.to_dict())

                    if tracer is None:
                        session.run(on_event=observe)
                        return None
                    with tracer:
                        session.run(on_event=observe)
                    return tracer.span_dicts()

                spans = await loop.run_in_executor(self._executor, work)
                self.metrics.run_wall_s.observe(time.perf_counter() - started)
                if spans is not None:
                    # Back on the loop thread: safe to publish on the record.
                    record.set_spans(spans)
                    self.metrics.observe_phases(spans)
            # The END frame is the last event the bridge delivered: the pump
            # that carries it was scheduled before the executor completion
            # signal, and the loop runs callbacks in order.  The record is
            # not terminal yet, so this reads its live list.
            events = record.events()
            if not events or events[-1].get("kind") != "end":
                raise ReproError("run finished without an END event")
            record.finish(events[-1]["data"]["log"])
            self.metrics.runs_completed.increment()
        except (AdmissionTimeout, RunTimeout) as error:
            record.fail(protocol.error_body("timeout", str(error)))
            self.metrics.runs_failed.increment()
        except Exception as error:  # noqa: BLE001 — failure isolation per run
            record.fail(protocol.error_from(error))
            self.metrics.runs_failed.increment()
        finally:
            # However the run ends — a cancellation at daemon teardown
            # included — stop a simulation still emitting into the bridge:
            # its next emit raises BridgeClosed on the executor thread.  A
            # finished run's events were all delivered before its executor
            # future resolved, so closing drops nothing.
            bridge.close()

    async def _execute_batch(self, record, submission) -> None:
        deadline = (
            time.monotonic() + submission.timeout_s
            if submission.timeout_s is not None
            else None
        )
        loop = asyncio.get_running_loop()
        try:
            async with self.admission.slot(self._queue_budget(deadline)):
                record.mark_running()
                self.metrics.queue_wait_s.observe(time.time() - record.submitted_at)

                def work():
                    from repro.service.pool import SimulationService

                    session = self.store.session_for(
                        submission.tenant, submission.session, submission.spec
                    )
                    service = SimulationService(
                        workers=self.config.batch_workers,
                        kernel_caches=session.kernel_caches,
                        store=self.content_store,
                    )
                    results = session.run_batch(
                        trials=submission.trials,
                        seeds=submission.seeds,
                        service=service,
                    )
                    return results, service.cache.info(), results.to_dict()

                results, cache_info, summary = await loop.run_in_executor(
                    self._executor, work
                )
                # Back on the loop thread, where every metric is written.
                self.metrics.observe_batch(results, cache_info)
                record.finish(summary)
                self.metrics.batches_completed.increment()
        except AdmissionTimeout as error:
            record.fail(protocol.error_body("timeout", str(error)))
            self.metrics.batches_failed.increment()
        except Exception as error:  # noqa: BLE001
            record.fail(protocol.error_from(error))
            self.metrics.batches_failed.increment()


async def serve(config: GatewayConfig | None = None) -> None:
    """Run the daemon until SIGTERM/SIGINT completes a graceful drain."""
    server = GatewayServer(config)
    await server.start()
    server.install_signal_handlers()
    print(
        f"repro gateway listening on http://{server.config.host}:{server.port} "
        f"(max {server.config.max_concurrent} concurrent)",
        flush=True,
    )
    await server.wait_closed()


class InProcessGateway:
    """A daemon on a background thread: tests, benchmarks and examples.

    ::

        with InProcessGateway(GatewayConfig(port=0)) as gateway:
            client = GatewayClient(gateway.base_url)
            ...

    Exiting the ``with`` block drains the server (in-flight work finishes)
    and joins the thread.
    """

    def __init__(self, config: GatewayConfig | None = None):
        self._config = config or GatewayConfig(port=0)
        self.server: GatewayServer | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-daemon", daemon=True
        )

    @property
    def base_url(self) -> str:
        return f"http://{self._config.host}:{self.port}"

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 — surfaced in __enter__
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = GatewayServer(self._config)
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001
            self._startup_error = error
            self._ready.set()
            raise
        self.port = self.server.port
        self._ready.set()
        await self.server.wait_closed()

    def __enter__(self) -> "InProcessGateway":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") from self._startup_error
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        loop, server = self._loop, self.server
        if loop is not None and server is not None and loop.is_running():
            loop.call_soon_threadsafe(
                lambda: loop.create_task(server.drain())
            )
        self._thread.join(timeout=120)


__all__ = [
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayServer",
    "InProcessGateway",
    "RunTimeout",
    "serve",
]
