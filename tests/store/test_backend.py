"""Byte-level backend contract: MemoryBackend and SQLiteBackend agree."""

import pytest

from repro.store.backend import MemoryBackend, SQLiteBackend


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        instance = SQLiteBackend(tmp_path / "store.db")
        yield instance
        instance.close()


class TestBackendContract:
    def test_get_missing(self, backend):
        assert backend.get("ns", "k") is None

    def test_put_get_roundtrip(self, backend):
        backend.put("ns", "k", b"value")
        assert backend.get("ns", "k") == b"value"

    def test_put_replaces(self, backend):
        backend.put("ns", "k", b"old")
        backend.put("ns", "k", b"new")
        assert backend.get("ns", "k") == b"new"

    def test_namespace_isolation(self, backend):
        backend.put("a", "k", b"1")
        backend.put("b", "k", b"2")
        assert backend.get("a", "k") == b"1"
        assert backend.get("b", "k") == b"2"

    def test_delete(self, backend):
        backend.put("ns", "k", b"value")
        backend.delete("ns", "k")
        assert backend.get("ns", "k") is None
        backend.delete("ns", "absent")  # not an error

    def test_namespaces_sorted(self, backend):
        backend.put("zeta", "k", b"1")
        backend.put("alpha", "k", b"1")
        assert backend.namespaces() == ["alpha", "zeta"]

    def test_count(self, backend):
        assert backend.count("ns") == (0, 0)
        backend.put("ns", "k1", b"12345")
        backend.put("ns", "k2", b"123")
        assert backend.count("ns") == (2, 8)

    def test_drop_namespace(self, backend):
        backend.put("ns", "k1", b"1")
        backend.put("ns", "k2", b"2")
        backend.put("other", "k", b"3")
        assert backend.drop_namespace("ns") == 2
        assert backend.count("ns") == (0, 0)
        assert backend.get("other", "k") == b"3"

    def test_trim_keeps_bound(self, backend):
        for index in range(6):
            backend.put("ns", f"k{index}", b"x")
        assert backend.trim("ns", 2) == 4
        assert backend.count("ns")[0] == 2
        assert backend.trim("ns", 2) == 0

    def test_put_many_roundtrip(self, backend):
        backend.put("ns", "old", b"stale")
        backend.put_many(
            [("ns", "old", b"fresh"), ("ns", "k", b"1"), ("other", "k", b"2")]
        )
        assert backend.get("ns", "old") == b"fresh"
        assert backend.get("ns", "k") == b"1"
        assert backend.get("other", "k") == b"2"
        assert backend.count("ns") == (2, 6)

    def test_put_many_last_row_wins(self, backend):
        backend.put_many([("ns", "k", b"first"), ("ns", "k", b"second")])
        assert backend.get("ns", "k") == b"second"
        assert backend.count("ns") == (1, 6)

    def test_put_many_of_nothing(self, backend):
        backend.put_many([])
        assert backend.namespaces() == []

    def test_clear(self, backend):
        backend.put("a", "k", b"1")
        backend.put("b", "k", b"2")
        backend.clear()
        assert backend.namespaces() == []


class TestSQLitePersistence:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        first = SQLiteBackend(path)
        first.put("ns", "k", b"durable")
        first.close()
        second = SQLiteBackend(path)
        assert second.get("ns", "k") == b"durable"
        second.close()

    def test_path_property(self, tmp_path):
        path = tmp_path / "sub" / "store.db"
        backend = SQLiteBackend(path)
        assert backend.path == str(path)
        assert MemoryBackend().path is None
        backend.close()
