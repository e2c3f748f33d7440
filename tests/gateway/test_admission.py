"""Tests of the FIFO admission controller (event-loop driven, no sockets)."""

import asyncio

import pytest

from repro.gateway.admission import AdmissionController, AdmissionTimeout


def run(coroutine):
    return asyncio.run(coroutine)


class TestLimits:
    def test_global_limit_bounds_concurrency(self):
        async def scenario():
            controller = AdmissionController(max_concurrent=2)
            observed_peak = 0
            running = 0

            async def worker():
                nonlocal observed_peak, running
                async with controller.slot():
                    running += 1
                    observed_peak = max(observed_peak, running)
                    await asyncio.sleep(0.01)
                    running -= 1

            await asyncio.gather(*(worker() for _ in range(6)))
            assert observed_peak == 2
            assert controller.peak_total == 2
            assert controller.admitted == 6
            assert controller.running_total == 0
            assert controller.queued_total == 0

        run(scenario())

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)

    def test_release_without_acquire(self):
        controller = AdmissionController()
        with pytest.raises(RuntimeError, match="release without acquire"):
            controller.release()


class TestFifo:
    def test_slots_are_granted_in_arrival_order(self):
        async def scenario():
            controller = AdmissionController(max_concurrent=1)
            order = []

            async def worker(index):
                async with controller.slot():
                    order.append(index)
                    await asyncio.sleep(0)

            await asyncio.gather(*(worker(i) for i in range(5)))
            assert order == [0, 1, 2, 3, 4]

        run(scenario())


class TestTimeouts:
    def test_queued_waiter_times_out(self):
        async def scenario():
            controller = AdmissionController(max_concurrent=1)
            await controller.acquire()
            with pytest.raises(AdmissionTimeout, match="no run slot"):
                await controller.acquire(timeout_s=0.01)
            assert controller.timeouts == 1
            # The cancelled waiter is skipped at dispatch: releasing the
            # held slot must not grant it (nor corrupt the counters).
            controller.release()
            assert controller.running_total == 0
            assert controller.queued_total == 0
            # The queue still works afterwards.
            await controller.acquire(timeout_s=1.0)
            controller.release()

        run(scenario())

    def test_default_timeout_from_constructor(self):
        async def scenario():
            controller = AdmissionController(max_concurrent=1, queue_timeout_s=0.01)
            await controller.acquire()
            with pytest.raises(AdmissionTimeout):
                await controller.acquire()
            controller.release()

        run(scenario())
