"""The persistent content-addressed store (:class:`ContentStore`).

The store keeps what a rerun reads back: the batch service's
``activation`` memo, which keys each scheduling problem as given (table
fingerprints included), and the DSE sweep's ``dse`` exploration tasks and
``solve`` relaxations (the sweep's policy phase calls the schedulers with
no activation memo in front).  Every key is a content key, so a hit
describes the same mathematical object wherever it comes from — another
thread, another process, or a previous run — which is exactly the
property a shared persistent store needs.  The kernel's ``solve`` and
``exmem`` memos stay in process, because a warm batch answers every
activation from the store before they are asked; so does the ``OpTable``
intern pool, whose callers hold the points a table is built from.

:class:`ContentStore` layers that on a byte-level
:class:`~repro.store.backend.CacheBackend`:

* **Versioned namespaces** — entries live under ``f"{kind}:{version}"``
  with ``version`` defaulting to :data:`repro.version.__version__`, so a
  release that changes any pickled layout simply never sees the old rows
  (and :meth:`gc` reclaims them).
* **No local front** — every cache kind is already fronted by a bounded
  :class:`~repro.store.memo.Memo`, so each ``get``/``put`` here goes to the
  backend; backend reads and writes happen outside any lock so SQLite
  latency never serialises worker threads.
* **Write batches** — inside :meth:`ContentStore.batch` a thread's puts
  queue their encoded rows and reach the backend in one
  :meth:`~repro.store.backend.CacheBackend.put_many` when the scope ends
  (or every :data:`BATCH_ROWS` rows); outside a scope every put writes
  through.
* **Misses, never errors** — a corrupted, truncated or unpicklable entry
  (or a failing backend) degrades to a miss: the caller recomputes, the
  bad row is deleted best-effort, and a ``corrupt``/``error`` counter
  records the event.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading

from repro.obs import tracer as obs
from repro.store.backend import CacheBackend, MemoryBackend, SQLiteBackend
from repro.version import __version__

#: Counter names tracked per cache kind (also surfaced through
#: ``obs.count("store.<kind>.<name>")`` and the gateway's ``repro_store_*``
#: Prometheus series).
STAT_NAMES = (
    "hits",
    "misses",
    "puts",
    "corrupt",
    "errors",
    "bytes_read",
    "bytes_written",
)


#: Queued rows at which an open :meth:`ContentStore.batch` writes early, so
#: a long work unit neither holds an unbounded queue nor loses it all when
#: its process dies.
BATCH_ROWS = 256


def encode_key(key: object) -> str:
    """Digest an arbitrary cache key into a stable hex string.

    Cache keys throughout the library are tuples of strings, ints and
    floats — ``repr`` of those is identical across processes and Python
    builds (floats render as their shortest round-trip form), so hashing
    the repr yields the same address everywhere the same problem appears.
    """
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=20).hexdigest()


class ContentStore:
    """A shared, persistent map of content-addressed cache entries.

    One store serves many cache *kinds* (``activation``, ``dse``,
    ``solve``); each kind gets its own versioned namespace and its own
    counters.  All methods are thread-safe, and when the backend is SQLite
    the same file may be open from many processes at once (see
    :class:`~repro.store.backend.SQLiteBackend`).
    """

    def __init__(
        self,
        backend: CacheBackend,
        *,
        version: str = __version__,
    ):
        self._backend = backend
        self._version = version
        #: kind → its counters (see :data:`STAT_NAMES`).
        self._kinds: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()
        #: ``queue`` — the calling thread's open batch (unset or ``None``
        #: outside one): ``(namespace, digest) → (kind, payload)`` in write
        #: order.
        self._local = threading.local()

    # -- construction helpers -------------------------------------------

    @classmethod
    def open(cls, path: str | os.PathLike, **kwargs) -> "ContentStore":
        """A store persisted in the SQLite file at ``path``."""
        return cls(SQLiteBackend(path), **kwargs)

    @classmethod
    def in_memory(cls, **kwargs) -> "ContentStore":
        """A process-local store (tests, thread-shared warm caches)."""
        return cls(MemoryBackend(), **kwargs)

    # -- identity -------------------------------------------------------

    @property
    def backend(self) -> CacheBackend:
        return self._backend

    @property
    def version(self) -> str:
        return self._version

    @property
    def path(self) -> str | None:
        """The backing file, or ``None`` for in-memory stores."""
        return getattr(self._backend, "path", None)

    def process_token(self) -> str | None:
        """A value that reopens this store in a forked/spawned worker.

        Process-pool workers cannot share the parent's Python object, but a
        SQLite store is fully described by its path.  In-memory stores have
        no cross-process identity and return ``None`` (workers then run
        store-less, which is still correct — just cold).
        """
        return self.path

    def namespace(self, kind: str) -> str:
        return f"{kind}:{self._version}"

    # -- internals ------------------------------------------------------

    def _kind_counters(self, kind: str) -> dict[str, int]:
        with self._lock:
            counters = self._kinds.get(kind)
            if counters is None:
                counters = self._kinds[kind] = dict.fromkeys(STAT_NAMES, 0)
            return counters

    def _bump(self, counters: dict, kind: str, name: str, amount: int = 1) -> None:
        # Counter writes race benignly under the GIL only for the local
        # ints; keep them under the lock, but keep obs outside it.
        with self._lock:
            counters[name] += amount
        obs.count(f"store.{kind}.{name}", amount)

    # -- the cache surface ----------------------------------------------

    def get(self, kind: str, key: object):
        """The stored value for ``(kind, key)``, or ``None`` on a miss.

        Corrupted entries and backend failures are misses by design — a
        warm store can never make a run fail, only make it faster.
        """
        counters = self._kind_counters(kind)
        address = (self.namespace(kind), encode_key(key))
        queue = getattr(self._local, "queue", None)
        queued = queue.get(address) if queue else None
        try:
            payload = queued[1] if queued else self._backend.get(*address)
        except Exception:
            self._bump(counters, kind, "errors")
            self._bump(counters, kind, "misses")
            obs.count(f"store.{kind}.miss")
            return None
        if payload is None:
            self._bump(counters, kind, "misses")
            obs.count(f"store.{kind}.miss")
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            # Truncated write, version skew inside a namespace, bit rot:
            # drop the row so the next run does not pay the decode again.
            self._bump(counters, kind, "corrupt")
            self._bump(counters, kind, "misses")
            obs.count(f"store.{kind}.miss")
            try:
                self._backend.delete(*address)
            except Exception:
                pass
            return None
        self._bump(counters, kind, "bytes_read", len(payload))
        self._bump(counters, kind, "hits")
        obs.count(f"store.{kind}.hit")
        return value

    def put(self, kind: str, key: object, value: object) -> None:
        """Write ``value`` to the backend (failures are counted, not raised).

        Inside this thread's :meth:`batch` the encoded row is queued instead
        and written, and counted, when the batch flushes.
        """
        counters = self._kind_counters(kind)
        address = (self.namespace(kind), encode_key(key))
        queue = getattr(self._local, "queue", None)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            if queue is None:
                self._backend.put(*address, payload)
        except Exception:
            self._bump(counters, kind, "errors")
            return
        if queue is None:
            self._bump(counters, kind, "puts")
            self._bump(counters, kind, "bytes_written", len(payload))
            return
        # Last write wins, and moves to the end like a fresh write.
        queue.pop(address, None)
        queue[address] = (kind, payload)
        if len(queue) >= BATCH_ROWS:
            self._flush(queue)

    @contextlib.contextmanager
    def batch(self):
        """Queue this thread's puts and write them in one backend transaction.

        While the scope is open, :meth:`put` on this thread queues its
        encoded row (a later put of the same key replaces it) and
        :meth:`get` on this thread reads the queue before the backend.
        Leaving the scope — normally or by an exception — writes the queue
        with one :meth:`~repro.store.backend.CacheBackend.put_many`, as does
        reaching :data:`BATCH_ROWS` queued rows.  Other threads and
        processes see the rows only once they are written, and a process
        that dies inside the scope loses its queued rows; every row is
        content-keyed, so a lost row is a later miss, never a wrong result.
        A scope opened inside an open one joins it.
        """
        if getattr(self._local, "queue", None) is not None:
            yield
            return
        queue = self._local.queue = {}
        try:
            yield
        finally:
            self._local.queue = None
            self._flush(queue)

    def _flush(self, queue: dict) -> None:
        """Write and empty a batch queue in one ``put_many``; count, never
        raise (a failed write counts one ``errors`` per dropped row)."""
        if not queue:
            return
        written = True
        try:
            self._backend.put_many(
                (namespace, digest, payload)
                for (namespace, digest), (_, payload) in queue.items()
            )
        except Exception:
            written = False
        tallies: dict[str, list[int]] = {}
        for kind, payload in queue.values():
            tally = tallies.setdefault(kind, [0, 0])
            tally[0] += 1
            tally[1] += len(payload)
        queue.clear()
        for kind, (rows, size) in tallies.items():
            counters = self._kind_counters(kind)
            if written:
                self._bump(counters, kind, "puts", rows)
                self._bump(counters, kind, "bytes_written", size)
            else:
                self._bump(counters, kind, "errors", rows)

    # -- maintenance ----------------------------------------------------

    def stats(self) -> dict:
        """Counters per kind plus backend entry/byte totals per namespace."""
        kinds = self.counters()
        namespaces = {}
        try:
            for namespace in self._backend.namespaces():
                entries, size = self._backend.count(namespace)
                namespaces[namespace] = {"entries": entries, "bytes": size}
        except Exception:
            pass
        return {
            "version": self._version,
            "path": self.path,
            "kinds": kinds,
            "namespaces": namespaces,
        }

    def counters(self) -> dict[str, dict[str, int]]:
        """Just the per-kind counters (the `/metrics` surface)."""
        with self._lock:
            return {kind: dict(counters) for kind, counters in self._kinds.items()}

    def gc(self, max_entries_per_kind: int | None = None) -> dict:
        """Reclaim stale data: other-version namespaces, then oversize kinds.

        Entries written by a different ``repro.version`` can never be read
        again (the namespace embeds the version), so they are dropped
        wholesale.  When ``max_entries_per_kind`` is given, each surviving
        namespace is trimmed oldest-first to that bound.
        """
        dropped = 0
        trimmed = 0
        suffix = f":{self._version}"
        for namespace in self._backend.namespaces():
            if not namespace.endswith(suffix):
                dropped += self._backend.drop_namespace(namespace)
            elif max_entries_per_kind is not None:
                trimmed += self._backend.trim(namespace, max_entries_per_kind)
        return {"dropped": dropped, "trimmed": trimmed}

    def clear(self) -> None:
        """Drop every entry — backend rows and counters."""
        self._backend.clear()
        with self._lock:
            self._kinds.clear()

    def close(self) -> None:
        self._backend.close()

    def __repr__(self) -> str:
        return f"ContentStore(backend={self._backend!r}, version={self._version!r})"


def resolve_store(store: "ContentStore | str | os.PathLike | None" = None):
    """The store a service, session, sweep or gateway uses.

    A :class:`ContentStore` passes through, a path opens a SQLite-backed
    one, and ``None`` means no store.
    """
    if store is None or isinstance(store, ContentStore):
        return store
    return ContentStore.open(store)


__all__ = [
    "BATCH_ROWS",
    "STAT_NAMES",
    "ContentStore",
    "encode_key",
    "resolve_store",
]
