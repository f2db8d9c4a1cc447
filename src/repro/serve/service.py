"""The serving facade: one loaded CSD answering recognition queries.

:class:`RecognitionService` is the transport-agnostic core of ``repro
serve``: it owns the persisted :class:`CitySemanticDiagram`, a
:class:`~repro.core.recognition.CSDRecognizer`, the
LRU :class:`~repro.serve.cache.CellCache`, and the
:class:`~repro.serve.batcher.MicroBatcher`.  The HTTP layer
(``repro.serve.server``) is a thin JSON shim over these methods, and
the load-test harness (``benchmarks/bench_serve.py``) drives them
directly so throughput numbers measure the serving engine rather than
socket plumbing.

Single-point flow (``recognize_one``)::

    cache lookup ──hit──▶ answer
         │miss
         ▼
    admission queue ──▶ micro-batched recognize_points ──▶ cache fill

Batch requests (``recognize_many``) skip the queue — the client already
amortised the kernel call.  ``reload()`` re-reads the artifact from
disk and atomically swaps diagram + recognizer + cache generation, so a
rebuilt CSD can be rolled into a running daemon without a restart.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.csd import CitySemanticDiagram
from repro.core.recognition import CSDRecognizer
from repro.data.persistence import load_csd
from repro.ioutil import file_sha256
from repro.data.trajectory import SemanticProperty, StayPoint
from repro.obs import get_registry
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import CellCache

PathLike = Union[str, Path]

__all__ = ["ServeConfig", "RecognitionService"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serving engine; the first three are CLI flags."""

    max_batch: int = 64
    queue_limit: int = 1024
    cache_size: int = 65536
    #: Passed on to :class:`~repro.core.recognition.CSDRecognizer`,
    #: which accepts only ``"float64"``.
    query_dtype: str = "float64"
    r3sigma_m: float = 100.0
    min_tag_share: float = 0.15


class RecognitionService:
    """A long-lived CSD query engine (the core of ``repro serve``)."""

    def __init__(
        self,
        csd: Optional[CitySemanticDiagram] = None,
        csd_path: Optional[PathLike] = None,
        config: Optional[ServeConfig] = None,
    ) -> None:
        if (csd is None) == (csd_path is None):
            raise ValueError("pass exactly one of csd or csd_path")
        self.config = config or ServeConfig()
        self.csd_path = Path(csd_path) if csd_path is not None else None
        # Guards the csd/recognizer/cache swap on reload and every
        # cache fill; request handlers read the recognizer through one
        # attribute load so in-flight batches stay internally consistent.
        self._reload_lock = threading.Lock()
        self.csd = csd if csd is not None else load_csd(self.csd_path)  # type: ignore[arg-type]
        #: SHA-256 of the artifact bytes behind the loaded diagram;
        #: lets ``reload(if_changed=True)`` skip no-op reloads.
        self._loaded_sha: Optional[str] = (
            self._artifact_sha256() if self.csd_path is not None else None
        )
        self.recognizer = CSDRecognizer(
            self.csd,
            r3sigma_m=self.config.r3sigma_m,
            min_tag_share=self.config.min_tag_share,
            query_dtype=self.config.query_dtype,
        )
        self.cache = CellCache(max_entries=self.config.cache_size)
        self.batcher = MicroBatcher(
            self._recognize_batch,
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
        )
        self.reloads = 0

    # -- recognition ---------------------------------------------------

    def _recognize_batch(
        self, stays: Sequence[StayPoint]
    ) -> List[SemanticProperty]:
        """The batched kernel the dispatcher calls (one attribute load
        of the current recognizer, so a concurrent reload cannot mix
        diagrams within a batch)."""
        return self.recognizer.recognize_points(stays)

    def recognize_one(self, lon: float, lat: float) -> SemanticProperty:
        """One stay location through cache + admission queue.

        Bit-identical to ``CSDRecognizer.recognize_point`` on the same
        diagram: the cache only ever returns results for the exact same
        coordinates, and micro-batching preserves per-stay independence.
        """
        recognizer = self.recognizer
        key = (lon, lat)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        prop = self.batcher.submit(StayPoint(lon=lon, lat=lat, t=0.0))
        # Reload swaps in a brand-new recognizer object, so identity
        # tells us whether this result could predate a concurrent
        # reload; skipping the fill then keeps a stale answer out of
        # the freshly invalidated cache.  Check and fill hold the
        # reload lock so no reload can land between them.
        with self._reload_lock:
            if recognizer is self.recognizer:
                self.cache.put(key, prop)
        return prop

    def recognize_many(
        self, points: Sequence[Tuple[float, float]]
    ) -> List[SemanticProperty]:
        """A client-assembled batch, straight into the kernel."""
        stays = [StayPoint(lon=lon, lat=lat, t=0.0) for lon, lat in points]
        return self._recognize_batch(stays)

    # -- CSD range / tag queries ---------------------------------------

    def range_query(
        self, lon: float, lat: float, radius_m: float
    ) -> List[Dict[str, object]]:
        """POIs within ``radius_m`` of a lon/lat centre, with semantics."""
        if radius_m <= 0:
            raise ValueError("radius_m must be positive")
        csd = self.csd
        x, y = csd.projection.to_meters(lon, lat)
        hits = csd.range_query(x, y, radius_m)
        tags = csd.poi_tags()
        out: List[Dict[str, object]] = []
        for i in hits:
            idx = int(i)
            poi = csd.pois[idx]
            out.append(
                {
                    "poi_id": poi.poi_id,
                    "lon": poi.lon,
                    "lat": poi.lat,
                    "tag": tags[idx],
                    "popularity": float(csd.popularity[idx]),
                    "unit": int(csd.unit_of[idx]),
                }
            )
        return out

    def unit_info(self, unit_id: int) -> Dict[str, object]:
        csd = self.csd
        if not 0 <= unit_id < csd.n_units:
            raise KeyError(f"unit {unit_id} does not exist")
        unit = csd.unit(unit_id)
        return {
            "unit_id": unit.unit_id,
            "n_pois": len(unit),
            "centroid_xy": list(unit.centroid_xy),
            "dominant_tag": unit.dominant_tag(),
            "semantic_distribution": dict(
                sorted(unit.semantic_distribution.items())
            ),
        }

    def units_with_tag(
        self, tag: str, min_share: float = 0.0
    ) -> List[Dict[str, object]]:
        """Units whose distribution carries ``tag`` at >= ``min_share``."""
        csd = self.csd
        out: List[Dict[str, object]] = []
        for unit in csd.units:
            share = unit.semantic_distribution.get(tag, 0.0)
            if share > 0.0 and share >= min_share:
                out.append(
                    {
                        "unit_id": unit.unit_id,
                        "share": share,
                        "n_pois": len(unit),
                        "centroid_xy": list(unit.centroid_xy),
                    }
                )
        out.sort(key=lambda u: (-float(u["share"]), int(u["unit_id"])))
        return out

    # -- lifecycle / introspection -------------------------------------

    def _artifact_sha256(self) -> str:
        assert self.csd_path is not None
        return file_sha256(self.csd_path)

    def reload(self, if_changed: bool = False) -> Dict[str, object]:
        """Re-read the CSD artifact and swap it in; invalidates the cache.

        Only available when the service was constructed from a path.
        The swap is atomic with respect to new requests: they observe
        either the old (diagram, cache) pair or the new one.

        ``if_changed=True`` makes the reload conditional on the
        artifact's bytes: when its SHA-256 matches the last loaded
        state the (expensive) parse + cache flush is skipped and the
        response carries ``"reloaded": False``.  A streaming pipeline
        can therefore notify the daemon after every epoch without
        thrashing the cache on epochs that left the diagram untouched.
        """
        if self.csd_path is None:
            raise ValueError(
                "service was constructed from an in-memory CSD; "
                "reload requires a csd_path"
            )
        sha = self._artifact_sha256()
        if if_changed and sha == self._loaded_sha:
            reg = get_registry()
            if reg.enabled:
                reg.counter("serve.reloads.skipped").inc()
            return {
                "reloaded": False,
                "n_pois": self.csd.n_pois,
                "n_units": self.csd.n_units,
            }
        fresh = load_csd(self.csd_path)
        with self._reload_lock:
            self.csd = fresh
            self.recognizer = CSDRecognizer(
                fresh,
                r3sigma_m=self.config.r3sigma_m,
                min_tag_share=self.config.min_tag_share,
                query_dtype=self.config.query_dtype,
            )
            self.cache.clear()
            self._loaded_sha = sha
            self.reloads += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter("serve.reloads").inc()
        return {"reloaded": True, "n_pois": fresh.n_pois, "n_units": fresh.n_units}

    def stats(self) -> Dict[str, object]:
        csd = self.csd
        return {
            "csd": {k: v for k, v in csd.describe().items()},
            "csd_path": str(self.csd_path) if self.csd_path else None,
            "reloads": self.reloads,
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
        }

    def health(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "n_pois": self.csd.n_pois,
            "n_units": self.csd.n_units,
            "batcher_closed": self.batcher.closed,
        }

    def close(self) -> None:
        """Drain and join the batcher (idempotent)."""
        self.batcher.close()

    def __enter__(self) -> "RecognitionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def recognized_payload(self, prop: SemanticProperty) -> Dict[str, object]:
        """JSON-ready form of one recognition result."""
        return {
            "recognized": len(prop) > 0,
            "semantics": sorted(prop),
        }
