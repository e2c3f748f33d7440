"""The persistent content-addressed store (:class:`ContentStore`).

Every cache in this library is content-keyed: solve memos embed table
fingerprints and exact ratios, exmem column tables are keyed by table
fingerprints, interned :class:`~repro.optable.table.OpTable` objects *are*
their fingerprint, and the activation cache keys canonicalised problem
signatures.  A hit therefore describes the same mathematical object
wherever it comes from — another thread, another process, or a previous
run — which is exactly the property a shared persistent store needs.

:class:`ContentStore` layers that on a byte-level
:class:`~repro.store.backend.CacheBackend`:

* **Versioned namespaces** — entries live under ``f"{kind}:{version}"``
  with ``version`` defaulting to :data:`repro.version.__version__`, so a
  release that changes any pickled layout simply never sees the old rows
  (and :meth:`gc` reclaims them).
* **Write-through with a local LRU front** — reads hit a small in-process
  dict first; backend reads and writes happen outside any lock so SQLite
  latency never serialises worker threads.
* **Misses, never errors** — a corrupted, truncated or unpicklable entry
  (or a failing backend) degrades to a miss: the caller recomputes, the
  bad row is deleted best-effort, and a ``corrupt``/``error`` counter
  records the event.

The module also owns the ``REPRO_STORE`` escape hatch: ``REPRO_STORE=0``
disables every store binding no matter what the code configures, restoring
the seed's process-local behaviour bit-identically;
``REPRO_STORE=/path/to.db`` opts the whole process into a shared store
without touching call sites.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict

from repro.obs import tracer as obs
from repro.store.backend import CacheBackend, MemoryBackend, SQLiteBackend
from repro.version import __version__

#: Counter names tracked per cache kind (also surfaced through
#: ``obs.count("store.<kind>.<name>")`` and the gateway's ``repro_store_*``
#: Prometheus series).
STAT_NAMES = (
    "hits",
    "local_hits",
    "misses",
    "puts",
    "corrupt",
    "errors",
    "bytes_read",
    "bytes_written",
    "evictions",
)


def encode_key(key: object) -> str:
    """Digest an arbitrary cache key into a stable hex string.

    Cache keys throughout the library are tuples of strings, ints and
    floats — ``repr`` of those is identical across processes and Python
    builds (floats render as their shortest round-trip form), so hashing
    the repr yields the same address everywhere the same problem appears.
    """
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=20).hexdigest()


class _KindState:
    """Per-kind mutable state: the local LRU front and the counters."""

    __slots__ = ("front", "counters")

    def __init__(self) -> None:
        self.front: OrderedDict = OrderedDict()
        self.counters = dict.fromkeys(STAT_NAMES, 0)


class ContentStore:
    """A shared, persistent map of content-addressed cache entries.

    One store serves many cache *kinds* (``solve``, ``exmem``, ``optable``,
    ``activation``); each kind gets its own versioned namespace, its own
    bounded local LRU front and its own counters.  All methods are
    thread-safe, and when the backend is SQLite the same file may be open
    from many processes at once (see :class:`~repro.store.backend.SQLiteBackend`).
    """

    def __init__(
        self,
        backend: CacheBackend,
        *,
        local_entries: int = 1024,
        version: str = __version__,
    ):
        if local_entries < 0:
            raise ValueError("local_entries must be >= 0")
        self._backend = backend
        self._local_entries = local_entries
        self._version = version
        self._kinds: dict[str, _KindState] = {}
        self._lock = threading.Lock()

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

    def _state(self, kind: str) -> _KindState:
        with self._lock:
            state = self._kinds.get(kind)
            if state is None:
                state = self._kinds[kind] = _KindState()
            return state

    def _bump(self, state: _KindState, kind: str, name: str, amount: int = 1) -> None:
        # Counter writes race benignly under the GIL only for the local
        # ints; keep them under the lock, but keep obs outside it.
        with self._lock:
            state.counters[name] += amount
        obs.count(f"store.{kind}.{name}", amount)

    # -- the cache surface ----------------------------------------------

    def get(self, kind: str, key: object):
        """The stored value for ``(kind, key)``, or ``None`` on a miss.

        Corrupted entries and backend failures are misses by design — a
        warm store can never make a run fail, only make it faster.
        """
        state = self._state(kind)
        digest = encode_key(key)
        with self._lock:
            if digest in state.front:
                state.front.move_to_end(digest)
                value = state.front[digest]
                state.counters["hits"] += 1
                state.counters["local_hits"] += 1
                local_hit = True
            else:
                local_hit = False
        if local_hit:
            obs.count(f"store.{kind}.hit")
            return value

        try:
            payload = self._backend.get(self.namespace(kind), digest)
        except Exception:
            self._bump(state, kind, "errors")
            self._bump(state, kind, "misses")
            obs.count(f"store.{kind}.miss")
            return None
        if payload is None:
            self._bump(state, kind, "misses")
            obs.count(f"store.{kind}.miss")
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            # Truncated write, version skew inside a namespace, bit rot:
            # drop the row so the next run does not pay the decode again.
            self._bump(state, kind, "corrupt")
            self._bump(state, kind, "misses")
            obs.count(f"store.{kind}.miss")
            try:
                self._backend.delete(self.namespace(kind), digest)
            except Exception:
                pass
            return None
        self._bump(state, kind, "bytes_read", len(payload))
        self._bump(state, kind, "hits")
        obs.count(f"store.{kind}.hit")
        self._promote(state, digest, value)
        return value

    def put(self, kind: str, key: object, value: object) -> None:
        """Write-through: the local front and the backend both see ``value``."""
        state = self._state(kind)
        digest = encode_key(key)
        self._promote(state, digest, value)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            self._backend.put(self.namespace(kind), digest, payload)
        except Exception:
            self._bump(state, kind, "errors")
            return
        self._bump(state, kind, "puts")
        self._bump(state, kind, "bytes_written", len(payload))

    def _promote(self, state: _KindState, digest: str, value: object) -> None:
        if self._local_entries == 0:
            return
        with self._lock:
            state.front[digest] = value
            state.front.move_to_end(digest)
            while len(state.front) > self._local_entries:
                state.front.popitem(last=False)
                state.counters["evictions"] += 1

    # -- maintenance ----------------------------------------------------

    def stats(self) -> dict:
        """Counters per kind plus backend entry/byte totals per namespace."""
        with self._lock:
            kinds = {
                kind: dict(state.counters) for kind, state in self._kinds.items()
            }
            for kind, state in self._kinds.items():
                kinds[kind]["local_entries"] = len(state.front)
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
            return {kind: dict(state.counters) for kind, state in self._kinds.items()}

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
        """Drop every entry — backend rows, local fronts and counters."""
        self._backend.clear()
        with self._lock:
            self._kinds.clear()

    def close(self) -> None:
        self._backend.close()

    def __repr__(self) -> str:
        return f"ContentStore(backend={self._backend!r}, version={self._version!r})"


# -- the REPRO_STORE escape hatch ---------------------------------------

_DISABLED_VALUES = ("0", "false", "no", "off")


def store_enabled() -> bool:
    """Whether store bindings are allowed at all (``REPRO_STORE`` ≠ 0)."""
    env = os.environ.get("REPRO_STORE")
    return env is None or env.strip().lower() not in _DISABLED_VALUES


def resolve_store(store: "ContentStore | str | os.PathLike | None" = None):
    """Resolve the effective store for a service/session/gateway.

    Precedence: ``REPRO_STORE=0`` (or ``false``/``no``/``off``) force-disables
    every binding; otherwise an explicit :class:`ContentStore` or path wins;
    otherwise a path set via ``REPRO_STORE`` opts the process in; otherwise
    no store is used and behaviour matches the seed bit-identically.
    """
    env = os.environ.get("REPRO_STORE")
    if env is not None and env.strip().lower() in _DISABLED_VALUES:
        return None
    if isinstance(store, ContentStore):
        return store
    if store is not None:
        return ContentStore.open(store)
    if env is not None and env.strip():
        return ContentStore.open(env.strip())
    return None


__all__ = [
    "STAT_NAMES",
    "ContentStore",
    "encode_key",
    "resolve_store",
    "store_enabled",
]
