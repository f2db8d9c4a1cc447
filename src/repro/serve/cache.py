"""Per-cell LRU memoization cache for repeat stay locations.

Real query traffic is heavily repetitive: the same station exits, mall
doors, and office lobbies produce the same stay coordinates over and
over (the check-in studies in ``data/checkins.py`` model exactly this
concentration).  Recognition is a pure function of the CSD and the stay
coordinates, so repeat locations can be answered from memory without
touching the voting kernel at all.

Keys are ``(linearised grid-cell code, exact lon/lat, query_dtype)``:

* the **cell code** comes from the same grid geometry the CSD's CSR
  index uses (``GridIndex``), so cache keys cluster by the spatial cell
  a stay falls in and the code is O(1) to compute from projected
  metres;
* the **exact coordinates** guard correctness — two different points in
  the same cell resolve to different distances and may win different
  units, so only a bit-identical repeat location may reuse a result
  (the serve bit-identity tests pin this);
* the **query dtype** is part of the key because float32 and float64
  voting are distinct kernels.

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

from repro.core.csd import CitySemanticDiagram
from repro.data.trajectory import SemanticProperty
from repro.obs import get_registry

#: Cache key: (cell code, lon, lat, query_dtype).
CacheKey = Tuple[int, float, float, str]


class CellCache:
    """Thread-safe LRU of recognised stay locations.

    ``max_entries <= 0`` disables the cache entirely (every lookup is a
    structural miss and :meth:`put` is a no-op), which keeps the serve
    request path branch-free.
    """

    def __init__(self, csd: CitySemanticDiagram, max_entries: int = 65536) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[CacheKey, SemanticProperty]" = OrderedDict()
        #: One shared object per distinct answer (see module docstring).
        self._answers: Dict[SemanticProperty, SemanticProperty] = {}
        # Guards the OrderedDict against concurrent request handlers;
        # held only for dict operations, never across recognition.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._bind_grid(csd)

    def _bind_grid(self, csd: CitySemanticDiagram) -> None:
        """Adopt the grid geometry of (a possibly reloaded) CSD."""
        state = csd.grid_index.csr_state()
        self._cell = state.cell
        self._gx_lo = state.gx_lo
        self._gy_lo = state.gy_lo
        self._ny = state.ny
        self._projection = csd.projection

    def key_for(self, lon: float, lat: float, query_dtype: str) -> CacheKey:
        """The cache key of a stay location.

        The linearised code reuses the CSR grid formula
        ``(gx - gx_lo) * ny + (gy - gy_lo)``; points outside the built
        grid produce out-of-range codes, which is harmless for a hash
        key.
        """
        x, y = self._projection.to_meters(lon, lat)
        gx = int(x // self._cell)
        gy = int(y // self._cell)
        code = (gx - self._gx_lo) * self._ny + (gy - self._gy_lo)
        return (code, float(lon), float(lat), query_dtype)

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

    def clear(self, csd: Optional[CitySemanticDiagram] = None) -> None:
        """Drop every entry; rebind grid geometry when ``csd`` is given.

        Called on CSD reload: a new diagram means every memoized answer
        is stale, and the grid extents (hence the cell codes) may have
        shifted too.
        """
        with self._lock:
            self._entries.clear()
            self._answers.clear()
            if csd is not None:
                self._bind_grid(csd)
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
