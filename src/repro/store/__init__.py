"""repro.store — persistent content-addressed cache store.

Public surface:

* :class:`Memo` — the one bounded, thread-safe LRU memo every cache in the
  library is built from; ``Memo(kind, bound, store=...)`` puts a store
  behind it (a store hit is promoted into the LRU, a put writes through).
  Two kinds of memo are store-backed, both read back by reruns: the batch
  service's ``activation`` memo and the DSE sweep's ``solve`` memo;
* :class:`ContentStore` with :meth:`ContentStore.open` /
  :meth:`ContentStore.in_memory`, plus ``stats()``/``gc()``/``clear()``
  maintenance — it has no local front of its own, every kind is fronted by
  a :class:`Memo` (or, for the sweep's ``dse`` tasks, read once per task);
  :meth:`ContentStore.batch` writes one thread's puts in one transaction
  (batch work units run inside it);
* the :class:`CacheBackend` protocol with the :class:`SQLiteBackend` and
  :class:`MemoryBackend` implementations;
* :func:`resolve_store`, which opens a path and passes a store or ``None``
  through.
"""

from repro.store.backend import CacheBackend, MemoryBackend, SQLiteBackend
from repro.store.content import (
    STAT_NAMES,
    ContentStore,
    encode_key,
    resolve_store,
)
from repro.store.memo import Memo

__all__ = [
    "STAT_NAMES",
    "CacheBackend",
    "ContentStore",
    "Memo",
    "MemoryBackend",
    "SQLiteBackend",
    "encode_key",
    "resolve_store",
]
