"""Tests for the worker-thread → event-loop EventBridge."""

import asyncio
import threading
import time

import pytest

from repro.gateway.bridge import BridgeClosed, EventBridge

#: Upper bound on every wait, so a broken bridge fails instead of hanging.
TIMEOUT = 5.0


@pytest.fixture()
def loop():
    """A real event loop running on its own thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    yield loop
    if not loop.is_closed():
        loop.call_soon_threadsafe(loop.stop)
        thread.join(TIMEOUT)
        loop.close()


def stop(loop) -> None:
    """Stop and close ``loop`` from the test thread."""
    loop.call_soon_threadsafe(loop.stop)
    deadline = time.monotonic() + TIMEOUT
    while loop.is_running():
        assert time.monotonic() < deadline, "event loop did not stop"
        time.sleep(0.01)
    loop.close()


def drain(loop) -> None:
    """Wait until every callback scheduled on ``loop`` so far has run."""
    fence = threading.Event()
    loop.call_soon_threadsafe(fence.set)
    assert fence.wait(TIMEOUT)


def hold(loop) -> threading.Event:
    """Block the loop thread until the returned gate is set."""
    gate = threading.Event()
    loop.call_soon_threadsafe(gate.wait, TIMEOUT)
    return gate


def producer(bridge: EventBridge, item) -> tuple[threading.Thread, dict]:
    """Emit ``item`` on a worker thread; the outcome lands in the dict."""
    outcome: dict = {"returned": threading.Event()}

    def run():
        try:
            bridge.emit(item)
        except BridgeClosed as error:
            outcome["error"] = error
        outcome["returned"].set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class CountingLoop:
    """A loop proxy that counts the callbacks scheduled through it."""

    def __init__(self, loop):
        self._loop = loop
        self.scheduled = 0

    def call_soon_threadsafe(self, callback, *args):
        self.scheduled += 1
        return self._loop.call_soon_threadsafe(callback, *args)

    def is_closed(self) -> bool:
        return self._loop.is_closed()


def test_a_burst_of_emits_wakes_the_loop_once(loop):
    received = []
    counting = CountingLoop(loop)
    bridge = EventBridge(counting, received.append, capacity=64)
    gate = hold(loop)
    for item in range(50):
        bridge.emit(item)
    assert counting.scheduled == 1
    gate.set()
    drain(loop)
    assert received == list(range(50))
    # Once the burst is delivered, the next emit schedules a wake-up again.
    bridge.emit(50)
    drain(loop)
    assert counting.scheduled == 2
    assert received == list(range(51))


def test_order_is_preserved_across_many_emits(loop):
    received = []
    bridge = EventBridge(loop, received.append, capacity=16)
    for item in range(1000):
        bridge.emit(item)
    drain(loop)
    assert received == list(range(1000))


def test_emit_blocks_at_capacity_and_resumes_once_the_loop_pumps(loop):
    received = []
    bridge = EventBridge(loop, received.append, capacity=2)
    gate = hold(loop)
    bridge.emit(0)
    bridge.emit(1)
    thread, outcome = producer(bridge, 2)
    assert not outcome["returned"].wait(0.3)
    gate.set()
    assert outcome["returned"].wait(TIMEOUT)
    thread.join(TIMEOUT)
    assert "error" not in outcome
    drain(loop)
    assert received == [0, 1, 2]


def test_close_releases_a_blocked_producer(loop):
    received = []
    bridge = EventBridge(loop, received.append, capacity=1)
    gate = hold(loop)
    bridge.emit(0)
    thread, outcome = producer(bridge, 1)
    assert not outcome["returned"].wait(0.3)
    bridge.close()
    assert outcome["returned"].wait(TIMEOUT)
    thread.join(TIMEOUT)
    assert isinstance(outcome.get("error"), BridgeClosed)
    gate.set()
    drain(loop)
    # Items already scheduled when the bridge closed are dropped.
    assert received == []


def test_emit_after_the_loop_stopped_raises_and_stays_closed(loop):
    received = []
    bridge = EventBridge(loop, received.append, capacity=1)
    stop(loop)
    with pytest.raises(BridgeClosed):
        bridge.emit(0)
    with pytest.raises(BridgeClosed):
        bridge.emit(1)
    assert received == []


@pytest.mark.parametrize("capacity", [0, -1])
def test_capacity_below_one_raises(loop, capacity):
    with pytest.raises(ValueError):
        EventBridge(loop, lambda item: None, capacity=capacity)


def test_emit_at_capacity_raises_once_the_loop_is_closed(loop):
    received = []
    bridge = EventBridge(loop, received.append, capacity=1)
    # Stop the loop without closing it: call_soon_threadsafe still accepts
    # the first item, whose pump then never runs.
    loop.call_soon_threadsafe(loop.stop)
    deadline = time.monotonic() + TIMEOUT
    while loop.is_running():
        assert time.monotonic() < deadline, "event loop did not stop"
        time.sleep(0.01)
    bridge.emit(0)
    loop.close()
    thread, outcome = producer(bridge, 1)
    # The producer polls its slot every 0.1 s; a closed loop ends the wait.
    assert outcome["returned"].wait(1.0), "emit kept waiting on a closed loop"
    thread.join(TIMEOUT)
    assert isinstance(outcome.get("error"), BridgeClosed)
    with pytest.raises(BridgeClosed):
        bridge.emit(2)
    assert received == []


def test_a_cancelled_run_releases_its_producer(monkeypatch):
    from repro.api import ExperimentSpec, WorkloadSpec
    from repro.gateway.protocol import RunSubmission
    from repro.gateway.server import GatewayConfig, GatewayServer

    released = threading.Event()
    emit = EventBridge.emit

    def watched(self, item):
        try:
            emit(self, item)
        except BridgeClosed:
            released.set()
            raise

    monkeypatch.setattr(EventBridge, "emit", watched)
    server = GatewayServer(GatewayConfig(port=0))
    spec = ExperimentSpec(
        name="cancelled",
        workload=WorkloadSpec.poisson(arrival_rate=0.5, num_requests=4000, seed=1),
    )
    submission = RunSubmission(spec=spec, tenant="t", session=None, timeout_s=None)
    record = server.registry.new_run(submission.tenant, spec.name)

    async def cancel_once_running():
        task = asyncio.get_running_loop().create_task(
            server._execute_run(record, submission)
        )
        deadline = time.monotonic() + TIMEOUT
        while not record.events:
            assert time.monotonic() < deadline, "the run emitted nothing"
            await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        # The loop stays alive and keeps pumping: only the bridge closing
        # on cancellation stops the worker before its run ends.
        deadline = time.monotonic() + TIMEOUT
        while not released.is_set():
            assert time.monotonic() < deadline, "the worker kept emitting"
            await asyncio.sleep(0.01)

    try:
        asyncio.run(cancel_once_running())
    finally:
        server._executor.shutdown(wait=True)
