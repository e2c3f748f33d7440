"""Byte-level backends of the persistent content-addressed store.

A backend is a namespaced ``(namespace, key) → bytes`` map — nothing more.
Everything value-shaped (pickling, versioned namespaces, statistics)
lives in :class:`~repro.store.content.ContentStore`;
everything durability-shaped (files, transactions, cross-process locking)
lives here, behind the :class:`CacheBackend` protocol:

* :class:`MemoryBackend` — a lock-guarded dict for tests and for sharing
  between the threads of one process without touching disk.
* :class:`SQLiteBackend` — one SQLite file in WAL mode.  WAL gives the
  single-writer/many-reader discipline the process-pool workers need: every
  :meth:`~CacheBackend.put_many` is one transaction, readers never block on
  the writer, and a contended write waits on ``busy_timeout`` instead of
  erroring.
  Connections are per thread *and per process* (guarded by PID, so a forked
  worker never reuses its parent's connection — SQLite connections must not
  cross ``fork``); each is closed when its thread ends or the backend
  closes.

Backends never raise on malformed *values* — they store and return opaque
bytes.  They may raise :class:`sqlite3.Error` on a damaged database file;
the :class:`ContentStore` layer degrades those to misses.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import weakref
from typing import Iterable, Protocol, runtime_checkable


@runtime_checkable
class CacheBackend(Protocol):
    """The byte-store protocol persistent caches are built on."""

    def get(self, namespace: str, key: str) -> bytes | None:
        """The stored value, or ``None`` when absent."""
        ...

    def put(self, namespace: str, key: str, value: bytes) -> None:
        """Store ``value`` under ``(namespace, key)``, replacing any entry."""
        ...

    def put_many(self, rows: Iterable[tuple[str, str, bytes]]) -> None:
        """Store every ``(namespace, key, value)`` row, all or none.

        Rows replace existing entries like :meth:`put`; a later row for the
        same ``(namespace, key)`` wins.
        """
        ...

    def delete(self, namespace: str, key: str) -> None:
        """Drop one entry (absent entries are not an error)."""
        ...

    def namespaces(self) -> list[str]:
        """All namespaces currently holding entries (sorted)."""
        ...

    def count(self, namespace: str) -> tuple[int, int]:
        """``(entries, bytes)`` stored under one namespace."""
        ...

    def drop_namespace(self, namespace: str) -> int:
        """Delete every entry of one namespace; returns how many were dropped."""
        ...

    def trim(self, namespace: str, max_entries: int) -> int:
        """Evict the oldest entries beyond ``max_entries``; returns evictions."""
        ...

    def clear(self) -> None:
        """Drop everything."""
        ...

    def close(self) -> None:
        """Release any resources (idempotent)."""
        ...


class MemoryBackend:
    """An in-process :class:`CacheBackend` (tests, thread-shared stores).

    Insertion order doubles as age, so :meth:`trim` evicts oldest-first —
    the same discipline as the SQLite backend's ``created_s`` ordering.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, bytes]] = {}
        self._lock = threading.Lock()

    #: Memory backends cannot cross a process boundary.
    path = None

    def get(self, namespace: str, key: str) -> bytes | None:
        with self._lock:
            bucket = self._entries.get(namespace)
            return bucket.get(key) if bucket else None

    def put(self, namespace: str, key: str, value: bytes) -> None:
        self.put_many(((namespace, key, value),))

    def put_many(self, rows: Iterable[tuple[str, str, bytes]]) -> None:
        rows = [(namespace, key, bytes(value)) for namespace, key, value in rows]
        with self._lock:
            for namespace, key, value in rows:
                bucket = self._entries.setdefault(namespace, {})
                # Re-insert so dict order keeps tracking write recency.
                bucket.pop(key, None)
                bucket[key] = value

    def delete(self, namespace: str, key: str) -> None:
        with self._lock:
            bucket = self._entries.get(namespace)
            if bucket is not None:
                bucket.pop(key, None)

    def namespaces(self) -> list[str]:
        with self._lock:
            return sorted(ns for ns, bucket in self._entries.items() if bucket)

    def count(self, namespace: str) -> tuple[int, int]:
        with self._lock:
            bucket = self._entries.get(namespace, {})
            return len(bucket), sum(len(value) for value in bucket.values())

    def drop_namespace(self, namespace: str) -> int:
        with self._lock:
            bucket = self._entries.pop(namespace, {})
            return len(bucket)

    def trim(self, namespace: str, max_entries: int) -> int:
        with self._lock:
            bucket = self._entries.get(namespace)
            if bucket is None or len(bucket) <= max_entries:
                return 0
            doomed = list(bucket)[: len(bucket) - max_entries]
            for key in doomed:
                del bucket[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"MemoryBackend(namespaces={len(self._entries)})"


#: The one statement that writes rows (``put`` is ``put_many`` of one row).
_UPSERT = (
    "INSERT INTO entries (namespace, key, value, created_s)"
    " VALUES (?, ?, ?, ?)"
    " ON CONFLICT (namespace, key) DO UPDATE"
    " SET value = excluded.value, created_s = excluded.created_s"
)

#: Transparent retries on ``database is locked`` before giving up.  The
#: 30 s ``busy_timeout`` already absorbs writer contention; this outer loop
#: only covers the rare lock error SQLite raises outside the busy handler
#: (e.g. during schema creation races at first open).
_LOCK_RETRIES = 5
_LOCK_RETRY_SLEEP_S = 0.05


class SQLiteBackend:
    """A :class:`CacheBackend` over one SQLite database file.

    Safe for concurrent use from many threads *and* many processes sharing
    the file: WAL journaling, a generous busy timeout, one transaction per
    statement or :meth:`put_many` and per-thread/per-PID connections.  ``fork``
    safety matters because the service's process executor forks workers
    that inherit the parent's backend object — the PID check makes each
    worker open its own connection lazily, and :meth:`close` in a worker
    closes only the worker's own.
    """

    def __init__(self, path: str | os.PathLike):
        self._path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(self._path))
        os.makedirs(parent, exist_ok=True)
        self._local = threading.local()
        #: Weak references to every thread's :class:`_ThreadConnection`; a
        #: reference drops out of the set when its thread ends.
        self._held: set[weakref.ref] = set()
        # Create the schema eagerly so a first concurrent access from N
        # processes races on CREATE TABLE IF NOT EXISTS here, under retry.
        self._connection()

    @property
    def path(self) -> str:
        """The database file path (the token workers reopen the store by)."""
        return self._path

    def _connection(self) -> sqlite3.Connection:
        held = getattr(self._local, "held", None)
        if held is None or held.conn is None or held.pid != os.getpid():
            held = self._local.held = _ThreadConnection(self._open())
            self._held.add(weakref.ref(held, self._held.discard))
        return held.conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self._path,
            timeout=30.0,
            isolation_level=None,  # autocommit: one statement, one txn
            check_same_thread=False,  # one per thread; close() may run on another
        )
        # Switching a fresh file to WAL takes an exclusive lock; when several
        # processes open it at once, SQLite reports "database is locked"
        # without waiting on the busy handler.
        self._retry(conn.execute, "PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        self._retry(
            conn.execute,
            "CREATE TABLE IF NOT EXISTS entries ("
            " namespace TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " value BLOB NOT NULL,"
            " created_s REAL NOT NULL,"
            " PRIMARY KEY (namespace, key))",
        )
        return conn

    @staticmethod
    def _retry(operation, *args):
        for attempt in range(_LOCK_RETRIES):
            try:
                return operation(*args)
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or attempt == _LOCK_RETRIES - 1:
                    raise
                time.sleep(_LOCK_RETRY_SLEEP_S * (attempt + 1))

    def get(self, namespace: str, key: str) -> bytes | None:
        row = self._retry(
            self._connection().execute,
            "SELECT value FROM entries WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        return row[0] if row is not None else None

    def put(self, namespace: str, key: str, value: bytes) -> None:
        self.put_many(((namespace, key, value),))

    def put_many(self, rows: Iterable[tuple[str, str, bytes]]) -> None:
        now = time.time()
        rows = [
            (namespace, key, sqlite3.Binary(bytes(value)), now)
            for namespace, key, value in rows
        ]
        if rows:
            self._retry(self._write, self._connection(), rows)

    @staticmethod
    def _write(conn: sqlite3.Connection, rows: list) -> None:
        if len(rows) == 1:
            # In autocommit mode one statement is already one transaction.
            conn.execute(_UPSERT, rows[0])
            return
        # IMMEDIATE takes the write lock up front (waiting on busy_timeout),
        # so the transaction never has to upgrade a read lock mid-way.
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(_UPSERT, rows)
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    def delete(self, namespace: str, key: str) -> None:
        self._retry(
            self._connection().execute,
            "DELETE FROM entries WHERE namespace = ? AND key = ?",
            (namespace, key),
        )

    def namespaces(self) -> list[str]:
        rows = self._retry(
            self._connection().execute,
            "SELECT DISTINCT namespace FROM entries ORDER BY namespace",
        ).fetchall()
        return [row[0] for row in rows]

    def count(self, namespace: str) -> tuple[int, int]:
        row = self._retry(
            self._connection().execute,
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(value)), 0)"
            " FROM entries WHERE namespace = ?",
            (namespace,),
        ).fetchone()
        return int(row[0]), int(row[1])

    def drop_namespace(self, namespace: str) -> int:
        cursor = self._retry(
            self._connection().execute,
            "DELETE FROM entries WHERE namespace = ?",
            (namespace,),
        )
        return cursor.rowcount if cursor.rowcount >= 0 else 0

    def trim(self, namespace: str, max_entries: int) -> int:
        # Oldest-first eviction by write time.  One statement, hence one
        # transaction — a concurrent writer either lands before the snapshot
        # (and may be trimmed) or after (and survives); never half-deleted.
        cursor = self._retry(
            self._connection().execute,
            "DELETE FROM entries WHERE namespace = ? AND key NOT IN ("
            " SELECT key FROM entries WHERE namespace = ?"
            " ORDER BY created_s DESC, key LIMIT ?)",
            (namespace, namespace, max(0, max_entries)),
        )
        return cursor.rowcount if cursor.rowcount >= 0 else 0

    def clear(self) -> None:
        self._retry(self._connection().execute, "DELETE FROM entries")

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one."""
        for ref in list(self._held):
            held = ref()
            if held is not None:
                held.close()

    def __repr__(self) -> str:
        return f"SQLiteBackend({self._path!r})"


class _ThreadConnection:
    """One thread's connection, opened by process ``pid``.

    The thread's thread-local slot holds the only strong reference, so the
    connection is closed when its thread ends, as well as on
    :meth:`SQLiteBackend.close`.  Only process ``pid`` closes it.
    """

    __slots__ = ("conn", "pid", "__weakref__")

    def __init__(self, conn: sqlite3.Connection):
        self.conn: sqlite3.Connection | None = conn
        self.pid = os.getpid()

    def close(self) -> None:
        conn, self.conn = self.conn, None
        if conn is not None and self.pid == os.getpid():
            conn.close()

    __del__ = close


def _iter_backend_items(
    backend: CacheBackend, namespace: str
) -> Iterable[tuple[str, bytes]]:  # pragma: no cover — debugging aid
    """Yield every (key, value) of one namespace (diagnostics only)."""
    if isinstance(backend, MemoryBackend):
        with backend._lock:
            yield from list(backend._entries.get(namespace, {}).items())
    elif isinstance(backend, SQLiteBackend):
        rows = backend._connection().execute(
            "SELECT key, value FROM entries WHERE namespace = ?", (namespace,)
        )
        yield from rows


__all__ = ["CacheBackend", "MemoryBackend", "SQLiteBackend"]
