"""LRU memoization cache for repeat stay locations.

Real query traffic is heavily repetitive: the same station exits, mall
doors, and office lobbies produce the same stay coordinates over and
over (the check-in studies in ``data/checkins.py`` model exactly this
concentration).  Recognition is a pure function of the CSD and the stay
coordinates, so repeat locations can be answered from memory without
touching the voting kernel at all.

Keys are the **exact** ``(lon, lat)`` of a stay: two different points,
however close, resolve to different distances and may win different
units, so only a bit-identical repeat location may reuse a result (the
serve bit-identity tests pin this).  The voting dtype needs no place in
the key because it is fixed per service.

Cached answers are interned: entries with equal tag sets share one
frozenset.  A diagram yields few distinct answers, and a private
frozenset per entry would be half of the cache's memory.

The cache is invalidated wholesale on CSD reload (:meth:`CellCache.
clear`); entries never expire otherwise because the CSD is immutable
between reloads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.data.trajectory import SemanticProperty
from repro.obs import get_registry

#: Cache key: the exact (lon, lat) of a stay location.
CacheKey = Tuple[float, float]


class CellCache:
    """Thread-safe LRU of recognised stay locations.

    ``max_entries <= 0`` disables the cache entirely (every lookup is a
    structural miss and :meth:`put` is a no-op), which keeps the serve
    request path branch-free.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[CacheKey, SemanticProperty]" = OrderedDict()
        #: One shared object per distinct answer (see module docstring).
        self._answers: Dict[SemanticProperty, SemanticProperty] = {}
        # Guards the OrderedDict against concurrent request handlers;
        # held only for dict operations, never across recognition.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> Optional[SemanticProperty]:
        if self.max_entries <= 0:
            return None
        reg = get_registry()
        with self._lock:
            prop = self._entries.get(key)
            if prop is None:
                self.misses += 1
                if reg.enabled:
                    reg.counter("serve.cache.misses").inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        if reg.enabled:
            reg.counter("serve.cache.hits").inc()
        return prop

    def put(self, key: CacheKey, prop: SemanticProperty) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = self._answers.setdefault(prop, prop)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            size = len(self._entries)
        reg = get_registry()
        if reg.enabled:
            reg.gauge("serve.cache.size").set(float(size))

    def clear(self) -> None:
        """Drop every entry (on CSD reload: a new diagram makes every
        memoized answer stale)."""
        with self._lock:
            self._entries.clear()
            self._answers.clear()
        reg = get_registry()
        if reg.enabled:
            reg.gauge("serve.cache.size").set(0.0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "max_entries": self.max_entries,
            }
