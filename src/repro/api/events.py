"""Streaming run events emitted by the runtime manager.

Long simulations are opaque when the only output is the final
:class:`~repro.runtime.log.ExecutionLog`.  A :class:`RunEvent` is one
incremental observation — a request arriving, an admission decision, a
schedule commit, an executed interval with its energy, a job finishing —
delivered while the run is still in flight, either through a callback
(``Session.run(on_event=...)``) or a generator (``Session.stream()``).

Observation never changes simulation behaviour: the manager emits events
*about* state transitions it performs anyway, so a run with and without an
observer produces bit-identical logs.

Events also define the network wire schema of :mod:`repro.gateway`:
:meth:`RunEvent.to_dict` / :meth:`RunEvent.from_dict` round-trip every kind
through plain JSON.  The one lossy case is :attr:`RunEventKind.END`, whose
in-process payload carries the live
:class:`~repro.runtime.log.ExecutionLog` — on the wire it travels as
``ExecutionLog.summary()`` (aggregates plus the deterministic run
fingerprint), which is what remote equivalence checks compare.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping


class RunEventKind(enum.Enum):
    """What happened, in runtime-manager vocabulary."""

    #: A request arrived and the scheduler is about to be activated.
    ARRIVAL = "arrival"
    #: The arrival was admitted (``data``: scheduler search time).
    ADMIT = "admit"
    #: The arrival was rejected (``data["reason"]``: ``"infeasible"`` or
    #: ``"budget"``).
    REJECT = "reject"
    #: A new schedule was committed (``data``: segment count, DVFS speed).
    COMMIT = "commit"
    #: One interval of the committed schedule executed (``data``: start, end,
    #: joules) — the energy tick of a streaming consumer.
    INTERVAL = "interval"
    #: A job completed (``request`` names it).
    FINISH = "finish"
    #: Incremental-kernel summary of the run (``data``: activations, packer
    #: placements resumed vs replayed, prune scans skipped, commits).
    #: Emitted once, just before :attr:`END`; purely observational like
    #: every other event.
    KERNEL = "kernel"
    #: The run is over (``data["log"]`` carries the final
    #: :class:`~repro.runtime.log.ExecutionLog`).
    END = "end"


@dataclass(frozen=True)
class RunEvent:
    """One streamed observation of a running simulation.

    Attributes
    ----------
    kind:
        The event kind (see :class:`RunEventKind`).
    time:
        Simulated time of the event in seconds.
    request:
        Name of the request/job concerned, when the event is about one.
    data:
        Kind-specific payload (see the per-kind notes on
        :class:`RunEventKind`).
    """

    kind: RunEventKind
    time: float
    request: str | None = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # compact, log-friendly rendering
        request = f" {self.request}" if self.request else ""
        extras = ", ".join(
            f"{key}={value}" for key, value in self.data.items() if key != "log"
        )
        extras = f" ({extras})" if extras else ""
        return f"[{self.time:10.4f}] {self.kind.value}{request}{extras}"

    # ------------------------------------------------------------------ #
    # Wire schema (shared with repro.gateway)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The JSON wire form of the event.

        ``from_dict(to_dict(event)) == event`` for every kind whose payload
        is already plain data — all of them except :attr:`RunEventKind.END`,
        whose live ``ExecutionLog`` is replaced by its ``summary()`` dict
        (so ``to_dict`` is idempotent across the round trip:
        ``from_dict(d).to_dict() == d`` always holds).
        """
        payload: dict = {"kind": self.kind.value, "time": self.time}
        if self.request is not None:
            payload["request"] = self.request
        payload["data"] = {
            key: _wire_value(key, value) for key, value in self.data.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"run event payload must be a mapping, got {payload!r}")
        try:
            kind = RunEventKind(payload["kind"])
        except KeyError:
            raise ValueError("run event payload has no 'kind'") from None
        except ValueError:
            known = ", ".join(sorted(k.value for k in RunEventKind))
            raise ValueError(
                f"unknown run event kind {payload['kind']!r} (known: {known})"
            ) from None
        try:
            time = float(payload["time"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("run event payload needs a numeric 'time'") from None
        data = payload.get("data") or {}
        if not isinstance(data, Mapping):
            raise ValueError(f"run event data must be a mapping, got {data!r}")
        return cls(kind, time, payload.get("request"), dict(data))


def _wire_value(key: str, value: Any):
    """Normalise one payload entry to its JSON shape."""
    if key == "log" and hasattr(value, "summary"):
        return value.summary()
    return _jsonify(value)


def _jsonify(value: Any):
    if isinstance(value, Mapping):
        return {str(key): _jsonify(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(entry) for entry in value]
    return value


__all__ = ["RunEvent", "RunEventKind"]
