"""Run and batch records: the daemon's in-memory job registry.

A :class:`RunRecord` is the server-side life of one submitted experiment:
``queued → running → done | failed``.  It buffers every serialised
:class:`~repro.api.events.RunEvent` (so late subscribers replay from the
start — SSE ``id``\\ s are simply event indices) and wakes SSE streamers
through an :class:`asyncio.Event` as events arrive.  Once terminal, a run
keeps its events and spans packed (see :class:`RunRecord`).

All mutators are plain synchronous methods that **must run on the event
loop thread** — executor threads hand events over via
``loop.call_soon_threadsafe`` (see :mod:`repro.gateway.bridge`), which also
guarantees events are appended in emission order.  Waiters are coroutines
on the same loop, so the check-then-wait pattern is race-free without
locks.

:class:`BatchRecord` is the coarser cousin for ``POST /batches``: no event
stream, just a state and the batch summary (with its deterministic result
fingerprint) once done.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import pickle
import time
from typing import Any, Mapping


class RunState(enum.Enum):
    """Lifecycle of a submitted run or batch."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (RunState.DONE, RunState.FAILED)


class _Record:
    """State shared by run and batch records (loop-thread mutation only)."""

    def __init__(self, record_id: str, tenant: str, spec_name: str):
        self.id = record_id
        self.tenant = tenant
        self.spec_name = spec_name
        self.trace_id: str | None = None
        self.state = RunState.QUEUED
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: dict | None = None
        self.result: dict | None = None
        self._changed = asyncio.Event()

    def _notify(self) -> None:
        self._changed.set()

    async def _wait_change(self) -> None:
        self._changed.clear()
        await self._changed.wait()

    def mark_running(self) -> None:
        self.state = RunState.RUNNING
        self.started_at = time.time()
        self._notify()

    def fail(self, error: Mapping[str, Any]) -> None:
        self.error = dict(error)
        self._end(RunState.FAILED)

    def finish(self, result: Mapping[str, Any]) -> None:
        self.result = dict(result)
        self._end(RunState.DONE)

    def _end(self, state: RunState) -> None:
        self.state = state
        self.finished_at = time.time()
        self._notify()

    async def wait_done(self) -> None:
        """Block until the record reaches a terminal state."""
        while not self.state.terminal:
            await self._wait_change()

    def _base_status(self) -> dict:
        status = {
            "id": self.id,
            "tenant": self.tenant,
            "spec_name": self.spec_name,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.trace_id is not None:
            status["trace_id"] = self.trace_id
        if self.error is not None:
            status["error"] = self.error
        if self.result is not None:
            status["result"] = self.result
        return status


class RunRecord(_Record):
    """One submitted experiment run, its buffered events and its spans.

    While the run is live its event payloads sit in a list, so streamers
    pick up each event as it arrives.  Once the run is terminal, the loop
    turn after the one that woke its waiters packs the events and the span
    dictionaries into one pickle blob each (written and read only in this
    process).  A finished record then holds two ``bytes`` objects instead
    of a dict per event and per span, which the registry's thousands of
    finished runs would otherwise keep for the garbage collector to walk.
    :meth:`events` and :meth:`spans` unpack on demand.
    """

    def __init__(self, record_id: str, tenant: str, spec_name: str):
        super().__init__(record_id, tenant, spec_name)
        #: Events buffered so far; SSE ids run from 0 to this minus one.
        self.event_count = 0
        self._events: list[dict] | bytes = []
        self._spans: list[dict] | bytes = []

    def append_event(self, payload: dict) -> None:
        self._events.append(payload)
        self.event_count += 1
        self._notify()

    def events(self, start: int = 0) -> list[dict]:
        """The buffered event payloads from index ``start`` on."""
        return _unpacked(self._events)[start:]

    def set_spans(self, spans: list[dict]) -> None:
        """Publish a traced run's completed span dictionaries."""
        self._spans = spans

    def spans(self) -> list[dict]:
        """The completed span dictionaries (``GET /runs/{id}/trace``)."""
        return _unpacked(self._spans)

    async def wait_events(self, start: int) -> tuple[list[dict], bool]:
        """New events from index ``start`` on, plus "record is terminal".

        Returns as soon as there is at least one new event *or* the record
        reached a terminal state (whichever comes first), so SSE streamers
        neither poll nor hang after a failure.
        """
        while self.event_count <= start and not self.state.terminal:
            await self._wait_change()
        return self.events(start), self.state.terminal

    def _end(self, state: RunState) -> None:
        super()._end(state)
        # The waiters' wake-ups are already queued, so a long-poller gets
        # its terminal status before the packing runs.
        asyncio.get_running_loop().call_soon(self._pack)

    def _pack(self) -> None:
        self._events = pickle.dumps(self._events, pickle.HIGHEST_PROTOCOL)
        self._spans = pickle.dumps(self._spans, pickle.HIGHEST_PROTOCOL)

    def status(self) -> dict:
        status = self._base_status()
        status["events"] = self.event_count
        return status


def _unpacked(value: list[dict] | bytes) -> list[dict]:
    return pickle.loads(value) if isinstance(value, bytes) else value


class BatchRecord(_Record):
    """One submitted batch (seeded trials of a spec)."""

    def __init__(self, record_id: str, tenant: str, spec_name: str, trials: int):
        super().__init__(record_id, tenant, spec_name)
        self.trials = trials

    def status(self) -> dict:
        status = self._base_status()
        status["trials"] = self.trials
        return status


class RunRegistry:
    """Id-keyed stores of every record the daemon has accepted.

    Records are kept for the daemon's lifetime, bounded by
    ``max_records``: the oldest *terminal* records are evicted first, so an
    id stays resolvable while its run is still live.
    """

    def __init__(self, max_records: int = 10_000):
        self._max_records = max_records
        self._runs: dict[str, RunRecord] = {}
        self._batches: dict[str, BatchRecord] = {}
        self._counter = itertools.count(1)

    def new_run(
        self, tenant: str, spec_name: str, trace_id: str | None = None
    ) -> RunRecord:
        record = RunRecord(f"run-{next(self._counter):06d}", tenant, spec_name)
        record.trace_id = trace_id
        self._runs[record.id] = record
        self._evict(self._runs)
        return record

    def new_batch(self, tenant: str, spec_name: str, trials: int) -> BatchRecord:
        record = BatchRecord(
            f"batch-{next(self._counter):06d}", tenant, spec_name, trials
        )
        self._batches[record.id] = record
        self._evict(self._batches)
        return record

    def run(self, record_id: str) -> RunRecord | None:
        return self._runs.get(record_id)

    def batch(self, record_id: str) -> BatchRecord | None:
        return self._batches.get(record_id)

    def live(self) -> list[_Record]:
        """Every record not yet in a terminal state (drain waits on these)."""
        records: list[_Record] = []
        for store in (self._runs, self._batches):
            records.extend(r for r in store.values() if not r.state.terminal)
        return records

    def counts(self) -> dict[str, int]:
        """State → record count, across runs and batches (for /healthz)."""
        counts: dict[str, int] = {state.value: 0 for state in RunState}
        for store in (self._runs, self._batches):
            for record in store.values():
                counts[record.state.value] += 1
        return counts

    def _evict(self, store: dict) -> None:
        while len(store) > self._max_records:
            for record_id, record in list(store.items()):
                if record.state.terminal:
                    del store[record_id]
                    break
            else:  # nothing terminal to drop — accept the overshoot
                return


__all__ = ["BatchRecord", "RunRecord", "RunRegistry", "RunState"]
