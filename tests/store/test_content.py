"""ContentStore semantics: versioned namespaces, backend reads, degraded misses."""

import pickle
import threading

import pytest

from repro.store.backend import MemoryBackend, SQLiteBackend
from repro.store.content import BATCH_ROWS, ContentStore, encode_key, resolve_store


class CountingBackend(MemoryBackend):
    """A memory backend that counts single puts and records the size of
    every ``put_many``."""

    def __init__(self):
        super().__init__()
        self.puts = 0
        self.batches: list[int] = []

    def put(self, namespace, key, value):
        self.puts += 1
        super().put_many([(namespace, key, value)])

    def put_many(self, rows):
        rows = list(rows)
        self.batches.append(len(rows))
        super().put_many(rows)


class TestEncodeKey:
    def test_stable_and_distinct(self):
        key = ("fp", 4.0, 100, ("a", 0.5))
        assert encode_key(key) == encode_key(("fp", 4.0, 100, ("a", 0.5)))
        assert encode_key(key) != encode_key(("fp", 4.0, 101, ("a", 0.5)))

    def test_float_repr_precision(self):
        assert encode_key((0.1 + 0.2,)) != encode_key((0.3,))


class TestContentStore:
    def test_roundtrip(self):
        store = ContentStore.in_memory()
        store.put("solve", ("k", 1.5), {"answer": 42})
        assert store.get("solve", ("k", 1.5)) == {"answer": 42}

    def test_miss(self):
        store = ContentStore.in_memory()
        assert store.get("solve", "absent") is None
        assert store.counters()["solve"]["misses"] == 1

    def test_backend_hit_after_cold_front(self):
        backend = MemoryBackend()
        writer = ContentStore(backend)
        writer.put("solve", "k", "v")
        reader = ContentStore(backend)  # fresh counters, same backend
        assert reader.get("solve", "k") == "v"
        counters = reader.counters()["solve"]
        assert counters["hits"] == 1
        assert counters["bytes_read"] > 0

    def test_version_namespaces_isolate(self):
        backend = MemoryBackend()
        old = ContentStore(backend, version="1.0.0")
        old.put("solve", "k", "v1")
        new = ContentStore(backend, version="2.0.0")
        assert new.get("solve", "k") is None
        assert new.namespace("solve") == "solve:2.0.0"

    def test_gc_drops_other_versions(self):
        backend = MemoryBackend()
        old = ContentStore(backend, version="1.0.0")
        old.put("solve", "k", "v1")
        new = ContentStore(backend, version="2.0.0")
        new.put("solve", "k", "v2")
        outcome = new.gc()
        assert outcome["dropped"] == 1
        assert backend.namespaces() == ["solve:2.0.0"]

    def test_gc_trims_oversize_kinds(self):
        store = ContentStore.in_memory()
        for index in range(10):
            store.put("solve", index, index)
        outcome = store.gc(max_entries_per_kind=4)
        assert outcome["trimmed"] == 6
        assert store.backend.count(store.namespace("solve"))[0] == 4

    def test_clear(self):
        store = ContentStore.in_memory()
        store.put("solve", "k", "v")
        store.clear()
        assert store.get("solve", "k") is None
        assert store.backend.namespaces() == []

    def test_stats_shape(self, tmp_path):
        store = ContentStore.open(tmp_path / "s.db")
        store.put("exmem", "k", (1, 2))
        stats = store.stats()
        assert stats["path"] == str(tmp_path / "s.db")
        assert stats["namespaces"][store.namespace("exmem")]["entries"] == 1
        assert stats["kinds"]["exmem"]["puts"] == 1
        store.close()


class TestDegradedMisses:
    """A warm store may never make a run fail — only make it faster."""

    def test_corrupted_entry_is_a_miss(self):
        backend = MemoryBackend()
        store = ContentStore(backend)
        store.put("solve", "k", "value")
        backend.put(store.namespace("solve"), encode_key("k"), b"\x80garbage!")
        assert store.get("solve", "k") is None
        counters = store.counters()["solve"]
        assert counters["corrupt"] == 1
        # The bad row was dropped so the decode is never paid again.
        assert backend.get(store.namespace("solve"), encode_key("k")) is None

    def test_truncated_entry_is_a_miss(self):
        backend = MemoryBackend()
        store = ContentStore(backend)
        payload = pickle.dumps({"big": list(range(100))})
        backend.put(store.namespace("solve"), encode_key("k"), payload[: len(payload) // 2])
        assert store.get("solve", "k") is None
        assert store.counters()["solve"]["corrupt"] == 1

    def test_failing_backend_get_is_a_miss(self):
        class FlakyBackend(MemoryBackend):
            def get(self, namespace, key):
                raise OSError("disk on fire")

        store = ContentStore(FlakyBackend())
        assert store.get("solve", "k") is None
        counters = store.counters()["solve"]
        assert counters["errors"] == 1
        assert counters["misses"] == 1

    def test_failing_backend_put_is_swallowed(self):
        class FlakyBackend(MemoryBackend):
            def put(self, namespace, key, value):
                raise OSError("read-only filesystem")

            def put_many(self, rows):
                raise OSError("read-only filesystem")

        store = ContentStore(FlakyBackend())
        store.put("solve", "k", "v")
        assert store.counters()["solve"]["errors"] == 1
        # Nothing was persisted, so a read misses (a Memo in front of the
        # store still serves the value in-process, see test_memo.py).
        assert store.get("solve", "k") is None
        # A failing batch write drops its rows: one error per row, no raise.
        with store.batch():
            store.put("solve", "a", 1)
            store.put("solve", "b", 2)
            store.put("exmem", "c", 3)
        counters = store.counters()
        assert counters["solve"]["errors"] == 3
        assert counters["exmem"]["errors"] == 1
        assert counters["solve"]["puts"] == counters["exmem"]["puts"] == 0
        assert counters["solve"]["bytes_written"] == 0
        assert store.get("solve", "a") is None


class TestBatch:
    """Puts inside ``batch()`` reach the backend in one ``put_many``."""

    def test_rows_stay_private_to_the_scope_until_it_exits(self, tmp_path):
        store = ContentStore.open(tmp_path / "s.db")
        other = SQLiteBackend(tmp_path / "s.db")  # a second connection
        keys = [("k", index) for index in range(5)]
        addresses = [(store.namespace("solve"), encode_key(key)) for key in keys]
        try:
            with store.batch():
                for index, key in enumerate(keys):
                    store.put("solve", key, {"index": index})
                assert [store.get("solve", key) for key in keys] == [
                    {"index": index} for index in range(5)
                ]
                assert [other.get(*address) for address in addresses] == [None] * 5
                assert store.counters()["solve"]["puts"] == 0
            assert all(other.get(*address) is not None for address in addresses)
            counters = store.counters()["solve"]
            assert counters["puts"] == 5
            assert counters["bytes_written"] == other.count(store.namespace("solve"))[1]
        finally:
            other.close()
            store.close()

    def test_an_exception_inside_the_scope_still_writes_its_rows(self):
        backend = CountingBackend()
        store = ContentStore(backend)
        with pytest.raises(RuntimeError, match="unit failed"):
            with store.batch():
                store.put("solve", "k", "v")
                raise RuntimeError("unit failed")
        assert backend.batches == [1]
        assert ContentStore(backend).get("solve", "k") == "v"

    def test_a_full_queue_is_written_early(self):
        backend = CountingBackend()
        store = ContentStore(backend)
        rows = 2 * BATCH_ROWS + 88
        with store.batch():
            for index in range(rows):
                store.put("solve", index, index)
            assert backend.batches == [BATCH_ROWS, BATCH_ROWS]
        assert backend.batches == [BATCH_ROWS, BATCH_ROWS, 88]
        assert backend.puts == 0
        assert store.counters()["solve"]["puts"] == rows
        assert backend.count(store.namespace("solve"))[0] == rows

    def test_last_write_wins_and_a_nested_scope_joins_the_outer(self):
        backend = CountingBackend()
        store = ContentStore(backend)
        with store.batch():
            store.put("solve", "k", "first")
            with store.batch():
                store.put("solve", "k", "second")
            assert backend.batches == []
            assert store.get("solve", "k") == "second"
        assert backend.batches == [1]
        assert store.counters()["solve"]["puts"] == 1
        assert ContentStore(backend).get("solve", "k") == "second"

    def test_other_threads_write_through(self):
        backend = CountingBackend()
        store = ContentStore(backend)
        with store.batch():
            store.put("solve", "queued", 1)
            writer = threading.Thread(target=store.put, args=("solve", "direct", 2))
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert backend.puts == 1
            assert backend.get(store.namespace("solve"), encode_key("queued")) is None
        assert backend.batches == [1]

    def test_puts_outside_a_scope_write_through(self):
        backend = CountingBackend()
        store = ContentStore(backend)
        with store.batch():
            pass
        store.put("solve", "k", "v")
        assert backend.puts == 1
        assert backend.batches == []


class TestResolveStore:
    def test_none_without_configuration(self):
        assert resolve_store(None) is None

    def test_explicit_store_passes_through(self):
        store = ContentStore.in_memory()
        assert resolve_store(store) is store

    def test_explicit_path_opens_sqlite(self, tmp_path):
        store = resolve_store(tmp_path / "s.db")
        assert isinstance(store.backend, SQLiteBackend)
        store.close()
