"""A thin blocking client for the gateway daemon (stdlib ``http.client``).

The client is deliberately dependency-free and synchronous: tests, the
``repro-rm submit`` CLI, benchmarks and examples all drive the daemon
through it, so it doubles as the reference consumer of the wire schema in
:mod:`repro.gateway.protocol`.

Requests go out with ``Connection: keep-alive`` and reuse one cached socket
across submit/poll calls; a stale socket (daemon restart, idle timeout) is
transparently replaced with one reconnect attempt.  SSE streams always run
on their own connection because the daemon closes the socket when the run
ends.  Call :meth:`GatewayClient.close` (or use the client as a context
manager) to release the cached connection.

::

    client = GatewayClient("http://127.0.0.1:8023", tenant="acme")
    record = client.submit_run(spec)
    for event in client.events(record["id"]):       # live SSE stream
        print(event["kind"], event["time"])
    result = client.wait_run(record["id"])["result"]
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from typing import Any, Iterator, Mapping, Sequence

from repro.exceptions import ReproError
from repro.gateway.protocol import PROTOCOL_VERSION, iter_sse


class GatewayError(ReproError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, body: Mapping[str, Any] | str):
        self.status = status
        self.body = body
        detail = body
        if isinstance(body, Mapping) and "error" in body:
            error = body["error"]
            detail = f"{error.get('type', 'error')}: {error.get('message', '')}"
        super().__init__(f"gateway returned {status}: {detail}")


class GatewayClient:
    """Blocking HTTP client bound to one daemon and one default tenant."""

    def __init__(
        self,
        base_url: str,
        *,
        tenant: str | None = None,
        timeout: float = 300.0,
    ):
        split = urllib.parse.urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ReproError(f"gateway client speaks plain http, got {base_url!r}")
        netloc = split.netloc or split.path  # accept "host:port" without scheme
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.tenant = tenant
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _fresh_connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _cached_connection(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = self._fresh_connection()
        return self._connection

    def _discard_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:
                pass
            self._connection = None

    def close(self) -> None:
        """Release the cached keep-alive connection (idempotent)."""
        self._discard_connection()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> Any:
        payload = None
        headers = {"Accept": "application/json", "Connection": "keep-alive"}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            connection = self._cached_connection()
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read().decode("utf-8")
            except (http.client.HTTPException, ConnectionError, OSError):
                # The cached socket went stale between requests (daemon
                # restart, idle timeout): replace it and retry once.
                self._discard_connection()
                if attempt:
                    raise
                continue
            if response.will_close:
                self._discard_connection()
            try:
                data = json.loads(raw) if raw else None
            except json.JSONDecodeError:
                data = raw
            if response.status >= 400:
                raise GatewayError(response.status, data)
            return data

    # ------------------------------------------------------------------ #
    # Daemon state
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Daemon liveness, drain state and queue depths."""
        health = self._request("GET", "/healthz")
        advertised = str(health.get("protocol", PROTOCOL_VERSION))
        if advertised.split(".", 1)[0] != PROTOCOL_VERSION.split(".", 1)[0]:
            raise ReproError(
                f"daemon speaks protocol {advertised}, client {PROTOCOL_VERSION}"
            )
        return health

    def metrics_text(self) -> str:
        """The raw Prometheus exposition of ``GET /metrics``."""
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def _submission(self, spec, session, timeout_s, extra=None) -> dict:
        body: dict = {"spec": spec.to_dict() if hasattr(spec, "to_dict") else spec}
        if self.tenant is not None:
            body["tenant"] = self.tenant
        if session is not None:
            body["session"] = session
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        if extra:
            body.update(extra)
        return body

    def submit_run(
        self,
        spec,
        *,
        session: str | None = None,
        timeout_s: float | None = None,
    ) -> dict:
        """``POST /runs``: returns the queued run record (with its ``id``)."""
        return self._request(
            "POST", "/runs", self._submission(spec, session, timeout_s)
        )

    def run_status(self, run_id: str) -> dict:
        return self._request("GET", f"/runs/{run_id}")

    def wait_run(self, run_id: str) -> dict:
        """Long-poll ``GET /runs/{id}/wait`` until the run is terminal."""
        return self._request("GET", f"/runs/{run_id}/wait")

    def trace(self, run_id: str) -> dict:
        """The run's span trace: ``{id, trace_id, state, spans}``.

        ``spans`` is empty until the run finishes (the daemon publishes the
        completed span tree atomically with the result).
        """
        return self._request("GET", f"/runs/{run_id}/trace")

    def events(self, run_id: str, *, start: int = 0) -> Iterator[dict]:
        """Stream the run's events over SSE (replay from ``start``, then live).

        Yields each event's wire dictionary (see
        :meth:`repro.api.events.RunEvent.to_dict`); a failed run yields a
        final ``{"kind": "error", ...}`` frame.  Use
        :meth:`repro.api.events.RunEvent.from_dict` to rebuild typed events.
        """
        connection = self._fresh_connection()
        try:
            connection.request(
                "GET",
                f"/runs/{run_id}/events?from={start}",
                headers={"Accept": "text/event-stream"},
            )
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read().decode("utf-8")
                try:
                    data = json.loads(raw) if raw else None
                except json.JSONDecodeError:
                    data = raw
                raise GatewayError(response.status, data)
            yield from iter_sse(response)
        finally:
            connection.close()

    def run(
        self,
        spec,
        *,
        session: str | None = None,
        timeout_s: float | None = None,
    ) -> dict:
        """Submit a run and block until it finished; return its final status.

        Raises :class:`GatewayError` if the run failed (status carries the
        error envelope).
        """
        record = self.submit_run(spec, session=session, timeout_s=timeout_s)
        status = self.wait_run(record["id"])
        if status["state"] != "done":
            raise GatewayError(500, {"error": status.get("error", {})})
        return status

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #
    def submit_batch(
        self,
        spec,
        *,
        trials: int = 1,
        seeds: Sequence[int] | None = None,
        session: str | None = None,
        timeout_s: float | None = None,
    ) -> dict:
        extra: dict = {"trials": trials}
        if seeds is not None:
            extra["seeds"] = list(seeds)
        return self._request(
            "POST", "/batches", self._submission(spec, session, timeout_s, extra)
        )

    def batch_status(self, batch_id: str) -> dict:
        return self._request("GET", f"/batches/{batch_id}")

    def wait_batch(self, batch_id: str) -> dict:
        return self._request("GET", f"/batches/{batch_id}/wait")


__all__ = ["GatewayClient", "GatewayError"]
