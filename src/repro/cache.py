"""Thread-safe LRU cache with exact hit/miss/eviction accounting.

:class:`LRUCache` is the one in-memory cache implementation of the package.
The process-global result cache in :mod:`repro.api.session` and the tier-1
layer of the serving stack (:class:`repro.serve.TieredCache`) are both
instances of it, so every consumer inherits the same guarantees:

* **Thread safety** — every operation (including the counter updates it
  implies) runs under one internal lock, so concurrent callers can never
  observe torn statistics: after any interleaving of ``get``/``put``/
  ``note``, ``hits + misses`` equals exactly the number of recorded lookups.
* **Bounded memory** — at most ``max_entries`` values are retained; the
  least recently used entry is evicted first and counted.
* **Honest counters** — a *hit* is a ``get`` that returned a value (or an
  externally coalesced serve folded in via :meth:`note`); a *miss* is a
  ``get`` that found nothing.  ``put`` never counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator

__all__ = ["LRUCache"]


class LRUCache:
    """A lock-guarded, bounded, least-recently-used mapping.

    Parameters
    ----------
    max_entries:
        Upper bound on retained entries (must be >= 1).  Inserting beyond it
        evicts the least recently used entry and increments the ``evictions``
        counter.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if int(max_entries) < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (a *hit*) or ``default`` (a *miss*).

        A hit refreshes the entry's recency.  The lookup and its counter
        update are atomic.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching recency or the counters."""
        with self._lock:
            return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self._evictions += 1

    def note(self, *, hits: int = 0, misses: int = 0) -> None:
        """Fold externally served lookups into the counters.

        For callers that satisfy a request *about* this cache without a
        ``get``.  Counting it here keeps ``hits + misses == lookups`` exact
        under concurrency.
        """
        with self._lock:
            self._hits += int(hits)
            self._misses += int(misses)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[Hashable]:
        """A snapshot of the cached keys, LRU first."""
        with self._lock:
            return iter(list(self._data.keys()))

    # ------------------------------------------------------------------ #
    # Maintenance and counters
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Drop every entry and zero the counters; returns entries dropped."""
        with self._lock:
            evicted = len(self._data)
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            return evicted

    def stats(self) -> Dict[str, int]:
        """Atomic snapshot: ``hits``, ``misses``, ``evictions``, ``size``."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "evictions": self._evictions, "size": len(self._data),
                    "max_entries": self.max_entries}

    def __repr__(self) -> str:  # pragma: no cover - debugging cosmetics
        s = self.stats()
        return (f"LRUCache(size={s['size']}/{s['max_entries']}, "
                f"hits={s['hits']}, misses={s['misses']}, "
                f"evictions={s['evictions']})")
