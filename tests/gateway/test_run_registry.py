"""The run registry's bound: which records go, and what it costs to find them."""

from repro.gateway.runs import RunRegistry, RunState


class _CountingStore(dict):
    """A record store that counts the entries every walk over it yields."""

    def __init__(self):
        super().__init__()
        self.visited = 0

    def _count(self, entries):
        for entry in entries:
            self.visited += 1
            yield entry

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def _finished_run(registry: RunRegistry):
    record = registry.new_run("tenant", "spec")
    record.state = RunState.DONE
    return record


class TestEviction:
    def test_the_oldest_terminal_record_goes_and_live_ones_stay(self):
        registry = RunRegistry(max_records=3)
        live = registry.new_run("tenant", "spec")
        oldest_done = _finished_run(registry)
        done = _finished_run(registry)
        newest = registry.new_run("tenant", "spec")
        assert registry.run(oldest_done.id) is None
        for record in (live, done, newest):
            assert registry.run(record.id) is record

    def test_without_a_terminal_record_the_bound_overshoots(self):
        registry = RunRegistry(max_records=2)
        records = [registry.new_run("tenant", "spec") for _ in range(4)]
        assert all(registry.run(record.id) is record for record in records)

    def test_a_full_registry_walks_only_to_its_first_terminal_record(self):
        registry = RunRegistry(max_records=1_000)
        registry._runs = store = _CountingStore()
        live = [registry.new_run("tenant", "spec") for _ in range(3)]
        for _ in range(997):
            _finished_run(registry)
        store.visited = 0
        for _ in range(100):
            _finished_run(registry)
        assert len(store) == 1_000
        assert all(registry.run(record.id) is record for record in live)
        # Each eviction passes the three live records and stops at the
        # oldest terminal one; copying the registry would visit all 1,001.
        assert store.visited == 100 * 4
