"""Post-processing utilities over mined fine-grained patterns.

Algorithm 4 emits one pattern per surviving counterpart set; downstream
applications (Section 6's demonstrations, the example scripts) need to
rank, bucket and summarise them.  These helpers operate purely
on :class:`~repro.core.extraction.FineGrainedPattern` objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.extraction import FineGrainedPattern
from repro.data.taxi import week_bucket
from repro.geo.projection import LocalProjection
from repro.types import LonLat

#: The six Figure 14(a-f) buckets in display order.
WEEK_BUCKETS = (
    "weekday-morning", "weekday-afternoon", "weekday-night",
    "weekend-morning", "weekend-afternoon", "weekend-night",
)


def pattern_time_bucket(pattern: FineGrainedPattern) -> str:
    """Majority time-of-week bucket over the first group's member times.

    The representative stay point carries the *averaged* absolute
    timestamp, which blurs across days; the member trips' actual
    departure times are the meaningful signal.
    """
    if not pattern.groups or not pattern.groups[0]:
        raise ValueError("pattern has no groups to bucket")
    votes = Counter(week_bucket(sp.t) for sp in pattern.groups[0])
    return votes.most_common(1)[0][0]


def bucket_patterns(
    patterns: Sequence[FineGrainedPattern],
) -> Dict[str, List[FineGrainedPattern]]:
    """Figure 14(a-f): patterns per time-of-week bucket."""
    out: Dict[str, List[FineGrainedPattern]] = {b: [] for b in WEEK_BUCKETS}
    for p in patterns:
        out[pattern_time_bucket(p)].append(p)
    return out


def rank_patterns(
    patterns: Sequence[FineGrainedPattern],
    by: str = "support",
) -> List[FineGrainedPattern]:
    """Stable ranking by ``support`` (default) or ``length``."""
    if by == "support":
        return sorted(patterns, key=lambda p: (-p.support, p.items))
    if by == "length":
        return sorted(patterns, key=lambda p: (-len(p), -p.support, p.items))
    raise ValueError(f"unknown ranking key {by!r}")


def route_label(pattern: FineGrainedPattern) -> str:
    """Human-readable route string, e.g. ``Residence -> Office``."""
    return " -> ".join(pattern.items)


@dataclass(frozen=True)
class PatternSummary:
    """Flat record of one pattern, convenient for tables and CSV."""

    route: str
    support: int
    length: int
    bucket: str
    start_lonlat: LonLat
    end_lonlat: LonLat
    span_m: float


def summarize(
    patterns: Sequence[FineGrainedPattern],
    projection: LocalProjection,
) -> List[PatternSummary]:
    """One :class:`PatternSummary` per pattern, support-ranked."""
    out: List[PatternSummary] = []
    for p in rank_patterns(patterns):
        a, b = p.representatives[0], p.representatives[-1]
        ax, ay = projection.to_meters(a.lon, a.lat)
        bx, by = projection.to_meters(b.lon, b.lat)
        out.append(
            PatternSummary(
                route=route_label(p),
                support=p.support,
                length=len(p),
                bucket=pattern_time_bucket(p),
                start_lonlat=(a.lon, a.lat),
                end_lonlat=(b.lon, b.lat),
                span_m=float(np.hypot(bx - ax, by - ay)),
            )
        )
    return out
