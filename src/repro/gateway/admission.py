"""Admission of gateway work: one concurrency bound and one FIFO queue.

The daemon runs at most ``max_concurrent`` simulations at once.  The
:class:`AdmissionController` queues the excess in order of arrival and
hands each freed slot to the oldest waiter still waiting; a waiter may
bound its wait with a queue timeout.

Everything runs on the event loop (no locks needed); the controller hands
out slots as awaited futures.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque

from repro.exceptions import ReproError


class AdmissionTimeout(ReproError):
    """A queued request waited longer than its admission timeout."""


class AdmissionController:
    """Grant run slots in order of arrival under one concurrency bound.

    Parameters
    ----------
    max_concurrent:
        Bound on simultaneously running simulations.
    queue_timeout_s:
        Default bound on time spent *waiting* for a slot (``None``: wait
        forever); per-acquire timeouts override it.
    """

    def __init__(
        self, *, max_concurrent: int = 8, queue_timeout_s: float | None = None
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        self.max_concurrent = max_concurrent
        self.queue_timeout_s = queue_timeout_s
        self._waiters: deque[asyncio.Future] = deque()
        self._running = 0
        # Observability (served by GET /healthz and /metrics, asserted by tests).
        self.admitted = 0
        self.timeouts = 0
        self.peak_total = 0

    @property
    def running_total(self) -> int:
        """Simulations currently holding a slot."""
        return self._running

    @property
    def queued_total(self) -> int:
        """Waiters currently queued."""
        return sum(1 for future in self._waiters if not future.done())

    async def acquire(self, timeout_s: float | None = None) -> None:
        """Wait for a run slot, behind every earlier waiter.

        Raises :class:`AdmissionTimeout` when the wait exceeds the timeout;
        the waiter is removed from the queue, never granted.
        """
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        self._dispatch()
        if timeout_s is None:
            timeout_s = self.queue_timeout_s
        try:
            await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; _dispatch skips done waiters.
            self.timeouts += 1
            raise AdmissionTimeout(
                f"no run slot within {timeout_s:g}s "
                f"({self._running} running, {self.queued_total} queued)"
            ) from None

    def release(self) -> None:
        """Return a slot and wake the oldest waiter."""
        if self._running <= 0:
            raise RuntimeError("release without acquire")
        self._running -= 1
        self._dispatch()

    @contextlib.asynccontextmanager
    async def slot(self, timeout_s: float | None = None):
        """``async with controller.slot(): ...`` acquire/release."""
        await self.acquire(timeout_s)
        try:
            yield
        finally:
            self.release()

    def _dispatch(self) -> None:
        """Grant free slots to the oldest waiters, FIFO."""
        while self._waiters and self._running < self.max_concurrent:
            future = self._waiters.popleft()
            if future.done():  # timed out: cancelled in place
                continue
            self._running += 1
            self.admitted += 1
            self.peak_total = max(self.peak_total, self._running)
            future.set_result(None)


__all__ = ["AdmissionController", "AdmissionTimeout"]
