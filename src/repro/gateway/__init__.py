"""``repro.gateway`` — scheduler-as-a-service over the Session facade.

A long-running, stdlib-only asyncio daemon that exposes the full
:class:`~repro.api.session.Session` surface to remote clients:

* :mod:`repro.gateway.protocol` — the JSON wire schemas (run/batch
  submission, error envelopes, SSE framing of
  :class:`~repro.api.events.RunEvent`\\ s) shared by server and client;
* :mod:`repro.gateway.server` — the HTTP daemon: ``POST /runs``,
  ``POST /batches``, status/wait endpoints, per-run SSE event streams,
  ``/healthz`` and Prometheus ``/metrics``, with graceful drain on SIGTERM;
* :mod:`repro.gateway.store` — named, resumable sessions over the daemon's
  one :class:`~repro.kernel.caches.KernelCaches`, so warm starts survive
  across requests; a submission's tenant label namespaces session names;
* :mod:`repro.gateway.admission` — one concurrency bound over a FIFO queue
  with a queue timeout;
* :mod:`repro.gateway.bridge` — the bounded backpressure pipe from the
  synchronous simulation thread into the event loop;
* :mod:`repro.gateway.client` — the blocking reference client used by
  ``repro-rm submit``, the tests and the benchmarks.

Quick start (in one process, for real deployments use ``repro-rm serve``)::

    from repro.gateway import GatewayClient, GatewayConfig, InProcessGateway

    with InProcessGateway(GatewayConfig(port=0)) as gateway:
        client = GatewayClient(gateway.base_url)
        status = client.run(spec)           # submit + wait
        print(status["result"]["fingerprint"])

A spec submitted through the gateway produces the same result fingerprint
and the same ordered event sequence as ``Session.from_spec(spec).run()``
in-process — remote execution is an equivalence, not an approximation.
"""

from __future__ import annotations

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "EventBridge",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayServer",
    "InProcessGateway",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RunRegistry",
    "RunState",
    "RunTimeout",
    "SessionStore",
    "serve",
]

_LAZY = {
    "AdmissionController": "repro.gateway.admission",
    "AdmissionTimeout": "repro.gateway.admission",
    "EventBridge": "repro.gateway.bridge",
    "GatewayClient": "repro.gateway.client",
    "GatewayConfig": "repro.gateway.server",
    "GatewayError": "repro.gateway.client",
    "GatewayServer": "repro.gateway.server",
    "InProcessGateway": "repro.gateway.server",
    "PROTOCOL_VERSION": "repro.gateway.protocol",
    "ProtocolError": "repro.gateway.protocol",
    "RunRegistry": "repro.gateway.runs",
    "RunState": "repro.gateway.runs",
    "RunTimeout": "repro.gateway.server",
    "SessionStore": "repro.gateway.store",
    "serve": "repro.gateway.server",
}

from repro._lazy import lazy_attributes  # noqa: E402

__getattr__, __dir__ = lazy_attributes(globals(), _LAZY)
