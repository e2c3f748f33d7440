"""Regression tests for one store under concurrent access.

One SQLite store must survive many *processes* reading, writing and
garbage-collecting at once (WAL mode, busy timeouts and per-PID connections
are what make this hold).  The thread storms against the in-process memos
live in ``tests/store/test_memo.py``.
"""

import multiprocessing
import os
import sqlite3
from concurrent.futures import ProcessPoolExecutor

from repro.store import ContentStore
from repro.store.backend import SQLiteBackend


def _hammer_store(path: str, worker: int) -> dict:
    """One worker process: interleave puts, gets, trims and gc on one file."""
    store = ContentStore.open(path)
    try:
        for index in range(120):
            key = (worker % 2, index % 30)
            store.put("solve", key, {"worker": worker, "index": index})
            store.get("solve", key)
            store.get("solve", (1 - worker % 2, index % 30))
            if index % 40 == 39:
                store.gc(max_entries_per_kind=25)
        counters = store.counters()["solve"]
        return {"errors": counters["errors"], "corrupt": counters["corrupt"]}
    finally:
        store.close()


def _open_fresh_stores(directory: str, rounds: int, barrier, outcomes) -> None:
    """One worker process: per round, open a file that does not exist yet,
    released by ``barrier`` together with every other worker."""
    failures = []
    for index in range(rounds):
        barrier.wait(timeout=60)
        try:
            SQLiteBackend(os.path.join(directory, f"fresh-{index:03d}.db")).close()
        except sqlite3.OperationalError as error:
            failures.append(f"round {index}: {error}")
    outcomes.put(failures)


class TestMultiprocessStore:
    def test_n_processes_hammer_one_store(self, tmp_path):
        path = str(tmp_path / "hammer.db")
        workers = 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_hammer_store, [path] * workers, range(workers))
            )
        assert all(o["errors"] == 0 for o in outcomes), outcomes
        assert all(o["corrupt"] == 0 for o in outcomes), outcomes
        # The store is intact and bounded after the storm.
        store = ContentStore.open(path)
        entries, size = store.backend.count(store.namespace("solve"))
        assert 0 < entries <= 60  # 2 key groups x 30 indices
        assert size > 0
        assert store.gc()["dropped"] == 0
        store.close()

    def test_processes_opening_one_fresh_file_at_once_all_succeed(self, tmp_path):
        """Switching a fresh file to WAL locks it; a process that loses that
        race must wait and retry, not fail its open."""
        context = multiprocessing.get_context("spawn")
        workers, rounds = 4, 40
        barrier = context.Barrier(workers)
        outcomes = context.Queue()
        processes = [
            context.Process(
                target=_open_fresh_stores,
                args=(str(tmp_path), rounds, barrier, outcomes),
            )
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        try:
            # Drain the queue before joining its writers.
            failures = [
                failure
                for _ in processes
                for failure in outcomes.get(timeout=120)
            ]
        finally:
            for process in processes:
                process.join(timeout=30)
            hung = [process for process in processes if process.is_alive()]
            for process in hung:
                process.kill()
        assert hung == []
        assert failures == []
