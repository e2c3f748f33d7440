"""Wire schemas of the gateway: JSON payloads and Server-Sent Events.

Everything the daemon and the client exchange is defined here, in one
place, so the two sides — and the tests that pin the schema — can never
drift apart:

* run/batch **submissions** (:func:`parse_run_submission`,
  :func:`parse_batch_submission`): the request bodies of ``POST /runs`` and
  ``POST /batches``, validated into plain dataclasses with the embedded
  :class:`~repro.api.spec.ExperimentSpec` already type-checked;
* **event frames**: :class:`~repro.api.events.RunEvent` travels as its
  :meth:`~repro.api.events.RunEvent.to_dict` form inside an SSE frame
  (:func:`sse_frame`) whose ``event:`` field is the
  :class:`~repro.api.events.RunEventKind` value — :func:`iter_sse` is the
  inverse used by the blocking client;
* **error envelopes** (:func:`error_body`): every non-2xx response is
  ``{"error": {"type": ..., "message": ...}}``.

The schema is versioned (:data:`PROTOCOL_VERSION`); the daemon advertises
it from ``GET /healthz`` and clients may refuse to talk to a newer major.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, IO, Iterator, Mapping

from repro.exceptions import ReproError, WorkloadError

#: Bumped on any backwards-incompatible change to the wire schema.
PROTOCOL_VERSION = "1"

#: Tenant names are path/label-safe identifiers.
_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")

#: The fallback tenant of unlabelled submissions.
DEFAULT_TENANT = "default"


class ProtocolError(ReproError):
    """A malformed request or response body."""


def _clean_name(value: Any, label: str, default: str | None = None) -> str | None:
    if value is None:
        return default
    if not isinstance(value, str) or not value or not set(value) <= _NAME_CHARS:
        raise ProtocolError(
            f"{label} must be a non-empty [A-Za-z0-9._-] string, got {value!r}"
        )
    if len(value) > 128:
        raise ProtocolError(f"{label} is too long ({len(value)} > 128 chars)")
    return value


def _spec_from(body: Mapping[str, Any], label: str):
    from repro.api.spec import ExperimentSpec

    spec_data = body.get("spec")
    if not isinstance(spec_data, Mapping):
        raise ProtocolError(f"{label} needs a 'spec' object (an ExperimentSpec)")
    try:
        return ExperimentSpec.from_dict(spec_data)
    except (ReproError, RecursionError) as error:
        raise ProtocolError(f"invalid experiment spec: {error}") from error


@dataclass(frozen=True)
class RunSubmission:
    """One validated ``POST /runs`` body."""

    spec: Any  # ExperimentSpec (kept untyped: the spec tree imports lazily)
    tenant: str = DEFAULT_TENANT
    session: str | None = None  # named gateway session for warm reuse
    timeout_s: float | None = None  # queue-to-finish deadline


@dataclass(frozen=True)
class BatchSubmission:
    """One validated ``POST /batches`` body."""

    spec: Any
    tenant: str = DEFAULT_TENANT
    session: str | None = None
    trials: int = 1
    seeds: tuple[int, ...] | None = None
    timeout_s: float | None = None


def parse_run_submission(body: Mapping[str, Any]) -> RunSubmission:
    """Validate a ``POST /runs`` body into a :class:`RunSubmission`."""
    if not isinstance(body, Mapping):
        raise ProtocolError(f"run submission must be a JSON object, got {body!r}")
    from repro.api.spec import retired_engine_error

    # ``engine`` is accepted for old clients; the one engine needs no field.
    engine = body.get("engine")
    if engine is not None and (reason := retired_engine_error(engine)):
        raise ProtocolError(reason)
    return RunSubmission(
        spec=_spec_from(body, "run submission"),
        tenant=_clean_name(body.get("tenant"), "tenant", DEFAULT_TENANT),
        session=_clean_name(body.get("session"), "session"),
        timeout_s=_positive(body.get("timeout_s"), "timeout_s"),
    )


def parse_batch_submission(body: Mapping[str, Any]) -> BatchSubmission:
    """Validate a ``POST /batches`` body into a :class:`BatchSubmission`."""
    if not isinstance(body, Mapping):
        raise ProtocolError(f"batch submission must be a JSON object, got {body!r}")
    trials = body.get("trials", 1)
    if not isinstance(trials, int) or trials < 1:
        raise ProtocolError(f"trials must be a positive integer, got {trials!r}")
    seeds = body.get("seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not all(
            isinstance(seed, int) for seed in seeds
        ):
            raise ProtocolError(f"seeds must be a list of integers, got {seeds!r}")
        seeds = tuple(seeds)
    return BatchSubmission(
        spec=_spec_from(body, "batch submission"),
        tenant=_clean_name(body.get("tenant"), "tenant", DEFAULT_TENANT),
        session=_clean_name(body.get("session"), "session"),
        trials=trials,
        seeds=seeds,
        timeout_s=_positive(body.get("timeout_s"), "timeout_s"),
    )


def _positive(value: Any, label: str) -> float | None:
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(f"{label} must be a number, got {value!r}") from None
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ProtocolError(f"{label} must be positive and finite, got {value}")
    return value


# ---------------------------------------------------------------------- #
# Equivalence views
# ---------------------------------------------------------------------- #
#: Event payload fields that are wall-clock measurements: identical runs
#: report different values for them, so equivalence checks strip them.
WALL_CLOCK_FIELDS = frozenset({"search_time"})


def canonical_events(events) -> list[dict]:
    """Event payloads with wall-clock fields removed.

    Two runs of the same spec are *equivalent* iff their canonical event
    sequences are equal — this is the contract the gateway tests (and the
    CI smoke job) assert between a remote run and an in-process one.
    """
    canonical = []
    for payload in events:
        data = {
            key: value
            for key, value in (payload.get("data") or {}).items()
            if key not in WALL_CLOCK_FIELDS
        }
        # The daemon stamps its per-request trace id onto streamed frames;
        # like wall-clock fields it is run-specific, never behavioural.
        stripped = {key: value for key, value in payload.items() if key != "trace_id"}
        canonical.append({**stripped, "data": data})
    return canonical


# ---------------------------------------------------------------------- #
# Error envelopes
# ---------------------------------------------------------------------- #
def error_body(kind: str, message: str) -> dict:
    """The uniform JSON error envelope of every non-2xx response."""
    return {"error": {"type": kind, "message": message}}


def error_from(exception: BaseException) -> dict:
    if isinstance(exception, ProtocolError):
        return error_body("protocol", str(exception))
    if isinstance(exception, WorkloadError):
        return error_body("workload", str(exception))
    return error_body(type(exception).__name__, str(exception))


# ---------------------------------------------------------------------- #
# Server-Sent Events
# ---------------------------------------------------------------------- #
def sse_frame(
    event: Mapping[str, Any], index: int, trace_id: str | None = None
) -> bytes:
    """One SSE frame: ``id`` = event index, ``event`` = RunEventKind value.

    The ``id`` line lets a disconnected client resume with
    ``GET /runs/{id}/events?from=<last id + 1>``.  ``trace_id`` (the run's
    server-minted span-trace id) is merged into the payload at frame time so
    the buffered event dictionaries stay byte-identical to an in-process
    run's; :func:`canonical_events` strips it again for equivalence checks.
    """
    if trace_id is not None:
        event = {**event, "trace_id": trace_id}
    payload = json.dumps(event, separators=(",", ":"), sort_keys=True)
    kind = event.get("kind", "message")
    return f"id: {index}\nevent: {kind}\ndata: {payload}\n\n".encode("utf-8")


def iter_sse(stream: IO[bytes]) -> Iterator[dict]:
    """Parse an SSE byte stream back into event payload dictionaries.

    Only ``data:`` lines matter for reconstruction (``event:``/``id:`` are
    redundant with the payload's ``kind`` and position); multi-line data is
    joined per the SSE spec.  The iterator ends when the server closes the
    stream.
    """
    data_lines: list[str] = []
    for raw in stream:
        line = raw.decode("utf-8").rstrip("\r\n")
        if not line:  # blank line = dispatch the pending frame
            if data_lines:
                yield json.loads("\n".join(data_lines))
                data_lines = []
            continue
        if line.startswith("data:"):
            data_lines.append(line[5:].lstrip(" "))
    if data_lines:  # stream closed mid-frame with pending data
        yield json.loads("\n".join(data_lines))


__all__ = [
    "BatchSubmission",
    "DEFAULT_TENANT",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RunSubmission",
    "WALL_CLOCK_FIELDS",
    "canonical_events",
    "error_body",
    "error_from",
    "iter_sse",
    "parse_batch_submission",
    "parse_run_submission",
    "sse_frame",
]
