"""Section 5's evaluation metrics (Equations 9-12).

Four benchmarks are reported for every approach:

- **#patterns** — fine-grained patterns detected;
- **coverage** — sum of pattern supports;
- **spatial sparsity** — mean pairwise distance inside each group,
  averaged over the pattern's positions (smaller is better);
- **semantic consistency** — mean pairwise cosine similarity of the
  group members' semantic properties (larger is better).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.extraction import FineGrainedPattern
from repro.data.trajectory import SemanticProperty, SemanticTrajectory, StayPoint
from repro.geo.projection import LocalProjection
from repro.geo.stats import mean_pairwise_distance
from repro.types import Float64Array, IndexArray


def semantic_cosine(a: SemanticProperty, b: SemanticProperty) -> float:
    """Cosine similarity of two tag sets as binary vectors (Eq. 11).

    ``|a & b| / sqrt(|a| * |b|)``; empty sets yield 0.
    """
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def pattern_spatial_sparsity(
    pattern: FineGrainedPattern, projection: LocalProjection
) -> float:
    """Equations 9-10: average within-group pairwise distance, metres."""
    if not pattern.groups:
        return 0.0
    per_group = [
        mean_pairwise_distance(
            projection.to_meters_array([(sp.lon, sp.lat) for sp in group])
        )
        for group in pattern.groups
    ]
    return float(np.mean(per_group))


#: Maps a stay point's identity ``(lon, lat, t)`` to its reference
#: semantic property.  Equation 11's note defines ``sp'.s`` as "the
#: semantic property queried by semantic recognition from CSD" — i.e.
#: consistency is judged against CSD labels even for ROI-based
#: approaches.  Build one with :func:`reference_semantics`.
ReferenceSemantics = Dict[Tuple[float, float, float], SemanticProperty]


def reference_semantics(
    database: Sequence[SemanticTrajectory],
) -> ReferenceSemantics:
    """Reference map from a CSD-recognised trajectory database."""
    out: ReferenceSemantics = {}
    for st in database:
        for sp in st.stay_points:
            out[(sp.lon, sp.lat, sp.t)] = sp.semantics
    return out


def pattern_semantic_consistency(
    pattern: FineGrainedPattern,
    reference: Optional[ReferenceSemantics] = None,
) -> float:
    """Equations 11-12: average within-group semantic cosine similarity.

    With ``reference`` supplied, each group member's semantics are
    looked up from the CSD reference (the paper's convention); without
    it, the approach's own labels are used.
    """
    if not pattern.groups:
        return 0.0

    def tags_of(sp: StayPoint) -> SemanticProperty:
        if reference is None:
            return sp.semantics
        return reference.get((sp.lon, sp.lat, sp.t), sp.semantics)

    per_group: List[float] = []
    for group in pattern.groups:
        n = len(group)
        if n < 2:
            per_group.append(1.0)
            continue
        total = 0.0
        pairs = 0
        for i in range(n - 1):
            for j in range(i + 1, n):
                total += semantic_cosine(tags_of(group[i]), tags_of(group[j]))
                pairs += 1
        per_group.append(total / pairs)
    return float(np.mean(per_group))


@dataclass
class ApproachMetrics:
    """All four benchmarks for one approach on one workload."""

    name: str
    n_patterns: int
    coverage: int
    sparsities: List[float]
    consistencies: List[float]

    @property
    def mean_sparsity(self) -> float:
        return float(np.mean(self.sparsities)) if self.sparsities else 0.0

    @property
    def mean_consistency(self) -> float:
        return float(np.mean(self.consistencies)) if self.consistencies else 0.0

    def as_row(self) -> Tuple[str, int, int, float, float]:
        return (
            self.name,
            self.n_patterns,
            self.coverage,
            self.mean_sparsity,
            self.mean_consistency,
        )


def summarize_patterns(
    name: str,
    patterns: Sequence[FineGrainedPattern],
    projection: LocalProjection,
    reference: Optional[ReferenceSemantics] = None,
) -> ApproachMetrics:
    """Compute the four benchmarks for one approach's output."""
    return ApproachMetrics(
        name=name,
        n_patterns=len(patterns),
        coverage=sum(p.support for p in patterns),
        sparsities=[
            pattern_spatial_sparsity(p, projection) for p in patterns
        ],
        consistencies=[
            pattern_semantic_consistency(p, reference) for p in patterns
        ],
    )


def sparsity_histogram(
    sparsities: Sequence[float],
    bin_width: float = 5.0,
    n_bins: int = 20,
) -> Tuple[Float64Array, IndexArray]:
    """Figure 9's frequency curve: 20 bins of width 5 m over [0, 100).

    Returns ``(bin_lefts, counts)``; values at or beyond the last edge
    accumulate into the final bin, as the paper's curves do not truncate
    mass silently.
    """
    if bin_width <= 0 or n_bins < 1:
        raise ValueError("bin_width and n_bins must be positive")
    edges = np.arange(n_bins + 1, dtype=np.float64) * bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for value in sparsities:
        idx = min(int(value // bin_width), n_bins - 1)
        counts[max(idx, 0)] += 1
    return edges[:-1], counts


def recognition_accuracy(
    recognized_tags: Sequence[Optional[SemanticProperty]],
    truths: Sequence[str],
) -> Tuple[float, float]:
    """(recognition rate, accuracy among recognised stay points).

    Ground truth only exists because the workload is synthetic — this is
    a metric the paper could not report; see DESIGN.md section 3.
    """
    if len(recognized_tags) != len(truths):
        raise ValueError("inputs must align")
    total = len(truths)
    if total == 0:
        return 0.0, 0.0
    labeled = 0
    hit = 0
    for tags, truth in zip(recognized_tags, truths):
        if tags:
            labeled += 1
            if truth in tags:
                hit += 1
    rate = labeled / total
    accuracy = hit / labeled if labeled else 0.0
    return rate, accuracy
