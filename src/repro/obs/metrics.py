"""Process-local metrics: counters, gauges, histograms, timers, spans.

The three Pervasive Miner stages (Constructor → Recognizer → Extractor)
run at city scale, where knowing *where time and data-quality loss go
per stage* is the difference between a tunable pipeline and a black
box.  This module is the zero-dependency substrate: a
:class:`MetricsRegistry` owning named metrics, monotonic-clock
:class:`Timer`/:class:`Span` context managers, and a JSON snapshot API
(``docs/OBSERVABILITY.md`` documents the schema and every metric the
pipeline emits).

Design constraints, in order:

1. **Disabled means free.**  The registry ships disabled; every
   instrumentation site either checks ``registry.enabled`` once or
   receives the shared no-op context manager.  The measured overhead on
   the standard 12k-POI kernel workload is below 2%
   (``benchmarks/bench_kernel_speedup.py`` re-measures it on every run).
2. **No wall clocks.**  All timing uses ``time.perf_counter`` — the
   monotonic high-resolution clock — and only through this module;
   reprolint rule RPL006 forbids direct ``time.*`` timing calls
   elsewhere under ``src/repro/``.
3. **Stdlib only.**  ``time`` + ``json`` + ``threading``; nothing else.
"""

from __future__ import annotations

import json
import threading

# RPL006 exempts repro.obs: this module IS the sanctioned timing layer.
import time
from types import TracebackType
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Timer",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "monotonic_s",
]


def monotonic_s() -> float:
    """Monotonic seconds from the one sanctioned clock.

    Long-lived callers (the ``repro serve`` micro-batcher) need raw
    monotonic readings to time a span that starts on one thread and
    ends on another, which a ``Timer`` block cannot.  Exposing the
    clock here keeps every timing call inside ``repro.obs`` (reprolint
    RPL006 bans direct ``time.*`` calls elsewhere under
    ``src/repro/``).
    """
    return time.perf_counter()

#: Default histogram bucket upper bounds for latencies, in seconds.
#: An implicit ``+inf`` bucket always terminates the list.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Default bucket upper bounds for size-style observations (batch
#: sizes, hit counts); implicit ``+inf`` terminates these too.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
)

class Counter:
    """Monotonically increasing named count.

    ``inc`` is a no-op while the owning registry is disabled, so
    instrumentation sites can hold a counter unconditionally.
    """

    __slots__ = ("name", "_registry", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the counter if metrics are enabled."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._registry._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Named point-in-time value (pending POIs, staleness fraction...)."""

    __slots__ = ("name", "_registry", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram over float observations.

    ``buckets`` are upper bounds in ascending order; an implicit
    ``+inf`` bucket catches everything beyond the last bound.  The
    snapshot reports per-bucket counts plus ``count``/``total``/
    ``min``/``max``, enough to recover rates and coarse quantiles.
    """

    __slots__ = ("name", "_registry", "_bounds", "_counts", "_count",
                 "_total", "_min", "_max")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be non-empty and ascending")
        self.name = name
        self._registry = registry
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +inf bucket
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        v = float(value)
        slot = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if v <= bound:
                slot = i
                break
        with self._registry._lock:
            self._counts[slot] += 1
            self._count += 1
            self._total += v
            self._min = min(self._min, v)
            self._max = max(self._max, v)

    @property
    def count(self) -> int:
        return self._count

    def _reset_values(self) -> None:
        """Zero all recorded observations in place (bounds persist).

        Called under the registry lock.  Resetting in place — instead of
        dropping the object from the registry — keeps every reference an
        instrumentation site cached live: a long-running process that
        held onto a histogram across a reset keeps recording into the
        snapshot, not into an orphan.
        """
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-ready form; bucket keys are stringified bounds."""
        out: Dict[str, object] = {
            "count": self._count,
            "total": self._total,
        }
        if self._count:
            out["min"] = self._min
            out["max"] = self._max
        buckets: Dict[str, int] = {}
        for bound, n in zip(self._bounds, self._counts):
            buckets[repr(bound)] = n
        buckets["+inf"] = self._counts[-1]
        out["buckets"] = buckets
        return out


class _NullTimer:
    """Shared do-nothing context manager for disabled registries.

    Carries the same ``elapsed`` attribute as :class:`Timer` so call
    sites can read it unconditionally (it stays 0.0).
    """

    __slots__ = ()
    elapsed: float = 0.0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class Timer:
    """Monotonic-clock timing context manager for one named metric.

    Each completed ``with`` block folds its wall time into the
    registry's per-name aggregate (count / total / min / max seconds);
    ``elapsed`` holds the last block's duration for callers that also
    want to feed a histogram.
    """

    __slots__ = ("name", "_registry", "_start", "elapsed")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.elapsed = time.perf_counter() - self._start
        self._registry._record_timing(self.name, self.elapsed)
        return False


class Span(Timer):
    """Nested timing scope; records under the dotted path of open spans.

    .. code-block:: python

        with registry.span("pipeline"):
            with registry.span("constructor"):
                ...  # recorded as "pipeline.constructor"

    Nesting state is thread-local, so worker threads cannot corrupt
    each other's span paths.
    """

    __slots__ = ("_label",)

    def __init__(self, label: str, registry: "MetricsRegistry") -> None:
        super().__init__(label, registry)
        self._label = label

    def __enter__(self) -> "Span":
        stack = self._registry._span_stack()
        stack.append(self._label)
        self.name = ".".join(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        result = super().__exit__(exc_type, exc, tb)
        stack = self._registry._span_stack()
        if stack and stack[-1] == self._label:
            stack.pop()
        return result


class MetricsRegistry:
    """Process-local home of all named metrics.

    Disabled by default: every metric mutation checks ``enabled`` first
    and :meth:`timer`/:meth:`span` return a shared no-op context
    manager, so an idle registry costs a handful of attribute reads per
    pipeline *batch* (not per element).  Metric objects are created
    lazily on first use and live for the registry's lifetime;
    :meth:`reset` clears values but keeps the enabled state.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        # Guards short pure-Python sections for callers that run
        # threaded (the `repro serve` request handlers); repro.obs
        # spawns no threads of its own.
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: name -> [count, total_s, min_s, max_s]
        self._timings: Dict[str, List[float]] = {}
        self._local = threading.local()

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded values; metric *identity* persists.

        Every ``Counter``/``Gauge``/``Histogram`` object is zeroed in
        place rather than discarded, so references cached by
        instrumentation sites (or held across ``repro serve`` scrapes)
        keep feeding the registry after a reset.  The previous
        behaviour — clearing the histogram dict — silently orphaned any
        cached histogram: its observations kept landing in an object no
        snapshot would ever see again.  Timings carry no cached handles
        (``_record_timing`` re-creates slots on demand), so clearing
        that dict is safe.
        """
        with self._lock:
            for counter in self._counters.values():
                counter._value = 0
            for gauge in self._gauges.values():
                gauge._value = 0.0
            for histogram in self._histograms.values():
                histogram._reset_values()
            self._timings.clear()

    # -- metric factories ----------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(
                    name, Counter(name, self)
                )
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name, self))
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Named histogram; ``buckets`` only applies on first creation."""
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name,
                    Histogram(
                        name, self, buckets or DEFAULT_LATENCY_BUCKETS_S
                    ),
                )
        return metric

    def timer(self, name: str) -> Union[Timer, _NullTimer]:
        """Timing context manager (shared no-op while disabled)."""
        if not self.enabled:
            return _NULL_TIMER
        return Timer(name, self)

    def span(self, label: str) -> Union[Span, _NullTimer]:
        """Nested timing scope (shared no-op while disabled)."""
        if not self.enabled:
            return _NULL_TIMER
        return Span(label, self)

    # -- internals -----------------------------------------------------

    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "spans", None)
        if stack is None:
            stack = []
            self._local.spans = stack
        return stack

    def _record_timing(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            slot = self._timings.get(name)
            if slot is None:
                self._timings[name] = [1.0, seconds, seconds, seconds]
            else:
                slot[0] += 1.0
                slot[1] += seconds
                slot[2] = min(slot[2], seconds)
                slot[3] = max(slot[3], seconds)

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable document of every recorded metric.

        Schema (see ``docs/OBSERVABILITY.md``)::

            {
              "enabled":    bool,
              "counters":   {name: int},
              "gauges":     {name: float},
              "timers":     {name: {count, total_s, min_s, max_s}},
              "histograms": {name: {count, total, min?, max?,
                                    buckets: {bound: int, "+inf": int}}}
            }
        """
        with self._lock:
            counters = {
                name: c._value
                for name, c in sorted(self._counters.items())
                if c._value
            }
            gauges = {
                name: g._value for name, g in sorted(self._gauges.items())
            }
            timers = {
                name: {
                    "count": int(slot[0]),
                    "total_s": slot[1],
                    "min_s": slot[2],
                    "max_s": slot[3],
                }
                for name, slot in sorted(self._timings.items())
            }
            histograms = {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
                if h.count
            }
        return {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "timers": timers,
            "histograms": histograms,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON string (strict: ``allow_nan=False``)."""
        return json.dumps(
            self.snapshot(), indent=indent, allow_nan=False, sort_keys=True
        )
