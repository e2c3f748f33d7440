"""The one bounded memo behind every content-keyed cache (:class:`Memo`).

Solve relaxations, activation results, EX-MEM candidate columns, shared
table slices and interned :class:`~repro.optable.table.OpTable` objects are
all memoised the same way: a thread-safe LRU of at most ``bound`` entries,
optionally in front of a :class:`~repro.store.content.ContentStore`.  Keys
are content keys, so an entry the store holds — written by another thread,
process or run — is exactly what a fresh computation would return.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs import tracer as obs


class Memo:
    """A thread-safe LRU memo of one cache ``kind``, optionally store-backed.

    :meth:`get` tries the LRU, then the store, and promotes a store hit into
    the LRU; :meth:`put` inserts locally and writes through.  Hits, misses
    and evictions are counted here and nowhere else: on the instance and as
    the ``cache.<kind>.hit|miss|evict`` counters of :mod:`repro.obs`.
    ``None`` is never a value — :meth:`get` returns it for a miss.
    """

    __slots__ = ("kind", "bound", "store", "hits", "misses", "evictions",
                 "_entries", "_lock", "_hit", "_miss", "_evict")

    def __init__(self, kind: str, bound: int, store=None):
        if bound < 1:
            raise ValueError(f"memo bound must be at least 1, got {bound}")
        self.kind = kind
        self.bound = bound
        #: The ContentStore behind the LRU (``None``: local only); may be
        #: rebound at any time.
        self.store = store
        self.hits = self.misses = self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        # Counter names are built once here, never per lookup.
        self._hit = f"cache.{kind}.hit"
        self._miss = f"cache.{kind}.miss"
        self._evict = f"cache.{kind}.evict"

    def get(self, key):
        """The value for ``key`` from the LRU or the store, or ``None``."""
        # obs.count and the store read stay outside the lock, so neither a
        # slow tracer nor backend latency can serialise readers.
        store = self.store
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            elif store is None:
                self.misses += 1
        if value is None and store is not None:
            value = store.get(self.kind, key)
            with self._lock:
                if value is None:
                    self.misses += 1
                else:
                    self.hits += 1
            if value is not None:
                self._insert(key, value)
        obs.count(self._miss if value is None else self._hit)
        return value

    def put(self, key, value) -> None:
        """Insert ``key → value`` and write it through to the store."""
        self._insert(key, value)
        store = self.store
        if store is not None:
            store.put(self.kind, key, value)

    def _insert(self, key, value) -> None:
        evicted = 0
        with self._lock:
            entries = self._entries
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self.bound:
                entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            obs.count(self._evict, evicted)

    def info(self) -> dict:
        """Entries, bound and the hit/miss/eviction counters."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bound": self.bound,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def clear(self) -> None:
        """Drop every local entry and reset the counters (not the store)."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)
