"""Central registry of every observability metric and span name.

Metric names are part of the pipeline's public contract: dashboards,
the bench harness, and ``docs/OBSERVABILITY.md`` all key on them, so a
typo at an instrumentation site ("recogniton.batches") silently forks
the catalogue.  This module is the single source of truth:

* every ``counter``/``gauge``/``histogram``/``timer`` call site in
  ``src/repro`` must pass a string literal that appears in the matching
  set below (reprolint rule **RPL008** checks this statically);
* every name below must appear in ``docs/OBSERVABILITY.md`` and every
  metric-like name in that doc's catalogue must appear here (reprolint
  rule **RPL010**, the docs-drift gate).

The sets are plain literals on purpose: reprolint's cross-module pass
reads them from the AST without importing this package, so the linter
stays stdlib-only and import-cycle-free.  When adding a metric, add the
literal here, use the same literal at the call site, and document it in
``docs/OBSERVABILITY.md`` — the gates fail until all three agree.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = [
    "COUNTERS",
    "GAUGES",
    "HISTOGRAMS",
    "TIMERS",
    "SPAN_LABELS",
    "SPAN_NAMES",
    "METRIC_NAMES",
    "DOCUMENTED_NAMES",
]

#: Monotone event counts.
COUNTERS: FrozenSet[str] = frozenset(
    {
        "constructor.pois.total",
        "constructor.pois.clustered",
        "constructor.pois.leftover",
        "constructor.pois.purified",
        "constructor.pois.merged",
        "constructor.units.coarse",
        "constructor.units.pure",
        "constructor.units.final",
        "constructor.clustering.rounds",
        "constructor.clustering.candidates",
        "contracts.checks",
        "contracts.violations",
        "extraction.sequences.mined",
        "extraction.patterns.coarse",
        "extraction.patterns.emitted",
        "extraction.patterns.pruned",
        "extraction.supporters.dropped_temporal",
        "geo.index.queries",
        "geo.index.centers",
        "geo.index.candidates",
        "geo.index.hits",
        "incremental.repairs",
        "incremental.repair.units",
        "incremental.repair.absorbed",
        "ingest.rows",
        "ingest.quarantined",
        "pipeline.runner.stages.run",
        "pipeline.runner.stages.skipped",
        "pipeline.runner.checkpoint.retries",
        "prefixspan.sequences.mined",
        "prefixspan.patterns.emitted",
        "prefixspan.candidates.pruned",
        "prefixspan.nodes.expanded",
        "prefixspan.patterns.merged",
        "prefixspan.patterns.aged_out",
        "recognition.batches",
        "recognition.stays.recognized",
        "recognition.stays.unmatched",
        "recognition.votes.cast",
        "serve.requests",
        "serve.rejected",
        "serve.errors",
        "serve.batches",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.reloads",
        "serve.reloads.skipped",
        "stream.epochs",
        "stream.trips.ingested",
        "stream.pois.ingested",
        "stream.sequences.added",
        "stream.sequences.retired",
        "stream.repairs",
        "stream.serve.notified",
    }
)

#: Point-in-time levels.
GAUGES: FrozenSet[str] = frozenset(
    {
        "incremental.added",
        "incremental.pending",
        "incremental.staleness",
        "incremental.units.dirty",
        "pipeline.runner.resumed",
        "serve.queue.depth",
        "serve.cache.size",
        "stream.window.sequences",
        "stream.window.epochs",
        "stream.patterns.live",
        "stream.runner.resumed",
    }
)

#: Bucketed distributions.
HISTOGRAMS: FrozenSet[str] = frozenset(
    {
        "recognition.batch_latency_s",
        "recognition.batch_size",
        "serve.request_latency_s",
        "serve.batch_size",
        "serve.batch_wait_s",
    }
)

#: Plain (non-span) timer aggregates.
TIMERS: FrozenSet[str] = frozenset(
    {
        "constructor.popularity",
        "constructor.clustering",
        "constructor.purification",
        "constructor.merging",
        "extraction.prefixspan",
        "extraction.refinement",
        "recognition.batch",
        "pipeline.runner.checkpoint",
        "serve.request",
        "incremental.repair",
        "stream.epoch",
        "stream.recognize",
        "stream.maintain",
        "stream.commit",
    }
)

#: Labels passed to ``registry.span(...)`` at call sites.  Spans nest,
#: so the label is only the leaf segment; the dotted names that land in
#: snapshots are in :data:`SPAN_NAMES`.
SPAN_LABELS: FrozenSet[str] = frozenset(
    {
        "pipeline",
        "pipeline.runner",
        "constructor",
        "recognition",
        "extraction",
    }
)

#: Fully-qualified span names as they appear in metric snapshots (the
#: dotted join of the open span stack).
SPAN_NAMES: FrozenSet[str] = frozenset(
    {
        "pipeline",
        "pipeline.constructor",
        "pipeline.recognition",
        "pipeline.extraction",
        "pipeline.runner",
        "pipeline.runner.constructor",
        "pipeline.runner.recognition",
        "pipeline.runner.extraction",
    }
)

#: Every name a ``counter``/``gauge``/``histogram``/``timer`` call may use.
METRIC_NAMES: FrozenSet[str] = COUNTERS | GAUGES | HISTOGRAMS | TIMERS

#: Every name ``docs/OBSERVABILITY.md`` must list (RPL010).
DOCUMENTED_NAMES: FrozenSet[str] = METRIC_NAMES | SPAN_NAMES
