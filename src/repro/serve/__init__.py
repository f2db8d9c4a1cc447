"""repro.serve — a zero-dependency daemon answering CSD queries.

Layering, bottom to top:

* :mod:`repro.serve.cache` — LRU memoization of recognised stay
  locations (exact-coordinate keys preserve bit-identity);
* :mod:`repro.serve.batcher` — the admission queue that micro-batches
  concurrent single-point requests into one ``recognize_points`` call,
  with explicit :class:`ServerOverloaded` backpressure;
* :mod:`repro.serve.service` — the transport-agnostic engine owning
  the loaded CSD, recognizer, cache, and batcher (also what the serve
  bench drives directly);
* :mod:`repro.serve.server` — the stdlib ``http.server`` JSON front
  end behind the ``repro serve`` CLI subcommand.

See ``docs/SERVING.md`` for endpoints, tuning knobs, and the metrics
catalogue.
"""

from __future__ import annotations

from repro.serve.batcher import BatcherClosed, MicroBatcher, ServerOverloaded
from repro.serve.cache import CacheKey, CellCache
from repro.serve.server import CSDHTTPServer, make_server
from repro.serve.service import RecognitionService, ServeConfig

__all__ = [
    "BatcherClosed",
    "CSDHTTPServer",
    "CacheKey",
    "CellCache",
    "MicroBatcher",
    "RecognitionService",
    "ServeConfig",
    "ServerOverloaded",
    "make_server",
]
