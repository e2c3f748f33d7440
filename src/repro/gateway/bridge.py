"""Bridging a run's executor thread into asyncio, with backpressure.

A gateway run drives :meth:`repro.api.session.Session.run` on an executor
thread while its consumers — the run record's event buffer and any number
of SSE subscribers — live on the asyncio event loop.  The
:class:`EventBridge` is the one-way pipe between the two worlds:

* the executor thread calls :meth:`EventBridge.emit` per event, from the
  run's ``on_event`` observer;
* emitted items queue in a pending list, and the first item of a burst
  schedules one ``loop.call_soon_threadsafe`` wake-up that delivers every
  item pending by the time it runs, in emission order — so the loop wakes
  once per burst of events, not once per event;
* a :class:`threading.BoundedSemaphore` caps the number of items in flight
  — when the loop falls behind (slow SSE consumers, a busy daemon),
  ``emit`` blocks the executor thread inside the observer, which stalls
  the simulation itself.  Backpressure reaches the simulation instead of
  ballooning memory.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class BridgeClosed(RuntimeError):
    """Raised on emit after the loop side shut the bridge down."""


class EventBridge:
    """One-way, order-preserving, bounded pipe: worker thread → event loop.

    Parameters
    ----------
    loop:
        The event loop that owns the consumer side.
    deliver:
        Loop-thread callback invoked with each emitted item (e.g.
        ``RunRecord.append_event``).
    capacity:
        Maximum items in flight before :meth:`emit` blocks the producer.
    """

    def __init__(
        self,
        loop,
        deliver: Callable[[Any], None],
        capacity: int = 256,
    ):
        if capacity < 1:
            raise ValueError(f"bridge capacity must be positive, got {capacity}")
        self._loop = loop
        self._deliver = deliver
        self._slots = threading.BoundedSemaphore(capacity)
        self._closed = threading.Event()
        # Items emitted but not yet taken by a pump.  Non-empty exactly
        # while a pump is scheduled: the emit that makes it non-empty
        # schedules one, and the pump empties it.
        self._pending: list = []
        self._lock = threading.Lock()

    def emit(self, item: Any) -> None:
        """Hand one item to the loop (called on the worker thread).

        Blocks while ``capacity`` items are already in flight; raises
        :class:`BridgeClosed` if the bridge was shut down or its loop closed
        (the executor thread should treat that as "stop simulating").
        """
        while not self._slots.acquire(timeout=0.1):
            if self._closed.is_set():
                raise BridgeClosed("event bridge is closed")
            if self._loop.is_closed():
                # A closed loop drops its pending callbacks, so the slots
                # of items still in flight never come back.
                self._closed.set()
                raise BridgeClosed("event loop is gone")
        if self._closed.is_set():
            self._slots.release()
            raise BridgeClosed("event bridge is closed")
        with self._lock:
            self._pending.append(item)
            wake = len(self._pending) == 1
        if not wake:
            return  # the burst's pump is already scheduled
        try:
            self._loop.call_soon_threadsafe(self._pump)
        except RuntimeError:  # loop already closed (daemon shutting down)
            self._slots.release()
            self._closed.set()
            raise BridgeClosed("event loop is gone") from None

    def _pump(self) -> None:
        with self._lock:
            items, self._pending = self._pending, []
        self._slots.release(len(items))
        if not self._closed.is_set():
            for item in items:
                self._deliver(item)

    def close(self) -> None:
        """Stop delivering and unblock any producer stuck in :meth:`emit`.

        Safe from either side; idempotent.  Items already scheduled on the
        loop are dropped, not delivered — close only when the consumer no
        longer cares (run failed, daemon stopping).
        """
        self._closed.set()


__all__ = ["BridgeClosed", "EventBridge"]
