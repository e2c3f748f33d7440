"""The one bounded memo (``repro.store.memo.Memo``) behind every cache.

Each behaviour runs with no store and with an in-memory store behind the
memo; the store-only behaviours (promotion, write-through, warming a second
instance, eviction fallback) run with the store alone.
"""

import sys
import threading

import pytest

from repro.kernel.caches import KernelCaches
from repro.obs import Tracer, merged_counts
from repro.optable import SolveCache, as_optable
from repro.service.cache import ActivationCache
from repro.store import ContentStore, Memo, MemoryBackend
from repro.workload.motivational import motivational_tables


@pytest.fixture(params=["no-store", "memory-store"])
def store(request):
    return ContentStore.in_memory() if request.param == "memory-store" else None


def _traced(operation) -> dict:
    """The obs counters ``operation()`` records under an active tracer."""
    tracer = Tracer(name="memo")
    with tracer:
        operation()
    return merged_counts(span.to_dict() for span in tracer.spans())


def _thread_storm(cache_op, threads: int = 8, iterations: int = 1000):
    """Run ``cache_op(thread_index, iteration)`` from many threads at once,
    with a short switch interval so the threads interleave inside it."""
    errors = []
    barrier = threading.Barrier(threads)

    def loop(thread_index: int) -> None:
        barrier.wait()
        try:
            for iteration in range(iterations):
                cache_op(thread_index, iteration)
        except Exception as error:  # noqa: BLE001 — recorded for the assert
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=loop, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []


class TestLocalLRU:
    def test_lru_order_and_bound(self, store):
        memo = Memo("solve", 2, store)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes "a"
        memo.put("c", 3)  # evicts "b", the least recently used
        assert len(memo) == 2
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        if store is None:
            assert memo.get("b") is None

    def test_statistics_info_and_clear(self, store):
        memo = Memo("activation", 4, store)
        assert memo.get("missing") is None
        memo.put("k", "v")
        assert memo.get("k") == "v"
        assert memo.info() == {
            "entries": 1,
            "bound": 4,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": pytest.approx(0.5),
        }
        memo.clear()
        assert len(memo) == 0
        assert (memo.hits, memo.misses, memo.evictions) == (0, 0, 0)
        assert memo.info()["entries"] == 0

    def test_evictions_are_counted_and_traced(self, store):
        memo = Memo("exmem", 2, store)

        def fill():
            for index in range(5):
                memo.put(index, index * 10)

        counts = _traced(fill)
        assert memo.evictions == 3
        assert memo.info()["evictions"] == 3
        assert counts["cache.exmem.evict"] == 3

    def test_hits_and_misses_are_traced_per_kind(self, store):
        memo = Memo("activation", 4, store)

        def lookups():
            memo.get("k")
            memo.put("k", "v")
            memo.get("k")

        counts = _traced(lookups)
        assert counts["cache.activation.miss"] == 1
        assert counts["cache.activation.hit"] == 1

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_raises(self, store, bound):
        with pytest.raises(ValueError):
            Memo("solve", bound, store)

    def test_thread_storm_keeps_the_bound(self, store):
        memo = Memo("solve", 4, store)
        _thread_storm(
            lambda t, i: (memo.put((t, i % 16), i), memo.get((t, (i + 1) % 16)))
        )
        assert len(memo) <= 4
        info = memo.info()
        assert info["hits"] + info["misses"] == 8 * 1000
        assert info["evictions"] > 0

    def test_kind_constructors(self, store):
        solve = SolveCache(max_entries=3)
        activation = ActivationCache(maxsize=5, store=store)
        assert (solve.kind, solve.bound, solve.store) == ("solve", 3, None)
        assert (activation.kind, activation.bound) == ("activation", 5)
        assert activation.store is store
        assert set(solve.info()) == set(activation.info())


class TestStoreBacking:
    def test_put_writes_through(self):
        store = ContentStore.in_memory()
        memo = Memo("solve", 4, store)
        memo.put(("fp", 4.0), "solution")
        assert store.get("solve", ("fp", 4.0)) == "solution"
        assert store.counters()["solve"]["puts"] == 1

    def test_second_instance_warms_from_the_store(self):
        store = ContentStore.in_memory()
        Memo("activation", 4, store).put(("sig",), "canonical-result")
        second = Memo("activation", 4, store)
        assert second.get(("sig",)) == "canonical-result"
        assert (second.hits, second.misses) == (1, 0)

    def test_store_hit_is_promoted_into_the_lru(self):
        store = ContentStore.in_memory()
        Memo("solve", 4, store).put("k", "v")
        second = Memo("solve", 4, store)
        assert len(second) == 0
        assert second.get("k") == "v"
        assert len(second) == 1
        assert second.get("k") == "v"
        # The second lookup was served locally: one backend read in all.
        assert store.counters()["solve"]["hits"] == 1

    def test_store_miss_counts(self):
        store = ContentStore.in_memory()
        memo = Memo("solve", 4, store)
        assert memo.get("absent") is None
        assert memo.misses == 1
        assert store.counters()["solve"]["misses"] == 1

    def test_local_eviction_falls_back_to_the_store(self):
        store = ContentStore.in_memory()
        memo = Memo("solve", 2, store)
        for index in range(5):
            memo.put(index, index * 10)
        assert len(memo) == 2
        assert memo.get(0) == 0  # evicted locally, recovered from the store
        assert memo.hits == 1 and memo.misses == 0

    def test_failing_store_put_still_serves_locally(self):
        class FlakyBackend(MemoryBackend):
            def put(self, namespace, key, value):
                raise OSError("read-only filesystem")

        store = ContentStore(FlakyBackend())
        memo = Memo("solve", 4, store)
        memo.put("k", "v")
        assert store.counters()["solve"]["errors"] == 1
        assert memo.get("k") == "v"

    def test_rebinding_the_store(self):
        store = ContentStore.in_memory()
        store.put("optable", "k", "persisted")
        memo = Memo("optable", 4)
        assert memo.get("k") is None
        memo.store = store
        assert memo.get("k") == "persisted"


class TestKernelCaches:
    def test_memos_and_their_bounds(self):
        caches = KernelCaches()
        assert (caches.slices.kind, caches.slices.bound) == ("slices", 64)
        assert (caches.solve_cache.kind, caches.solve_cache.bound) == ("solve", 4096)
        assert (caches.exmem.kind, caches.exmem.bound) == ("exmem", 1024)
        # All three stay in process: a rerun reads activations, not these.
        assert caches.slices.store is None
        assert caches.solve_cache.store is None
        assert caches.exmem.store is None

    def test_exmem_roundtrip(self):
        caches = KernelCaches()
        assert caches.exmem.get(("fp", 4)) is None
        caches.exmem.put(("fp", 4), ("pairs", "columns"))
        assert caches.exmem.get(("fp", 4)) == ("pairs", "columns")
        assert caches.exmem.get(("fp", None)) is None
        assert caches.info()["exmem_tables"] == 1

    def test_info_keeps_its_keys(self):
        info = KernelCaches().info()
        assert {
            "slice_sets",
            "exmem_tables",
            "solve_cache_entries",
            "solve_cache_hits",
            "solve_cache_misses",
        } <= set(info)

    def test_exmem_thread_storm_keeps_the_bound(self):
        caches = KernelCaches()
        caches.exmem.bound = 4

        def op(t, i):
            caches.exmem.put((f"fp{(t + i) % 16}", None), (t, i))
            caches.exmem.get((f"fp{i % 16}", None))

        _thread_storm(op)
        assert caches.info()["exmem_tables"] <= 4

    def test_exmem_counts_a_hit_and_a_second_instance_starts_cold(self):
        first = KernelCaches()
        first.exmem.put(("fp", 3), ("columns",))
        counts = _traced(lambda: first.exmem.get(("fp", 3)))
        assert counts.get("cache.exmem.hit") == 1
        assert "cache.exmem.miss" not in counts
        assert KernelCaches().exmem.get(("fp", 3)) is None

    def test_solve_memo_is_per_instance(self):
        first = KernelCaches()
        first.solve_cache.put(("fp", 4.0), "solution")
        assert first.solve_cache.get(("fp", 4.0)) == "solution"
        assert first.info()["solve_cache_hits"] == 1
        second = KernelCaches()
        assert second.solve_cache.get(("fp", 4.0)) is None
        assert second.info()["solve_cache_misses"] == 1


class TestInternPool:
    def test_interning_is_process_local(self):
        from repro.optable.table import _INTERN

        points = list(motivational_tables()["lambda1"])
        assert as_optable(points) is as_optable(points)
        assert _INTERN.store is None
