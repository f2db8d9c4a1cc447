"""Pattern-based next-activity prediction (the paper's LBS application).

The introduction motivates mining with live services: "commuters
traveling from Office -> Shop might be interested in receiving shopping
vouchers", "commuters traveling from Office -> Residence might want the
fastest route home".  Both need the same primitive: match a commuter's
current partial trajectory against the mined fine-grained patterns and
predict where they are heading.

:class:`PatternMatcher` indexes mined patterns by item prefix and
representative locations; :meth:`match` returns the patterns whose
prefix is spatially and semantically compatible with the observed stay
points, and :meth:`predict_next` aggregates their continuations into a
support-weighted forecast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.extraction import FineGrainedPattern
from repro.data.trajectory import SemanticProperty, SemanticTrajectory
from repro.geo.projection import LocalProjection
from repro.types import Float64Array, MetersArray


@dataclass(frozen=True)
class PatternMatch:
    """One pattern whose prefix matches the observed stay points."""

    pattern: FineGrainedPattern
    matched_positions: Tuple[int, ...]  # pattern positions hit, in order

    @property
    def is_complete(self) -> bool:
        """True when the observation already covers the whole pattern."""
        return len(self.matched_positions) == len(self.pattern)


@dataclass(frozen=True)
class NextStopForecast:
    """Support-weighted forecast of the next activity."""

    item: str
    lon: float
    lat: float
    support: int
    confidence: float  # share of total matched support


class PatternMatcher:
    """Matches partial trajectories against mined fine-grained patterns.

    Parameters
    ----------
    patterns:
        Output of :func:`repro.core.extraction.counterpart_cluster` (or
        a baseline extractor).
    projection:
        Shared local projection for metre arithmetic.
    radius_m:
        An observed stay point matches a pattern position when it lies
        within this distance of the position's representative point.
    """

    def __init__(
        self,
        patterns: Sequence[FineGrainedPattern],
        projection: LocalProjection,
        radius_m: float = 150.0,
    ) -> None:
        if radius_m <= 0:
            raise ValueError("radius_m must be positive")
        self.patterns = list(patterns)
        self.projection = projection
        self.radius_m = radius_m
        self._rep_xy: List[MetersArray] = [
            projection.to_meters_array(
                [(sp.lon, sp.lat) for sp in p.representatives]
            )
            for p in self.patterns
        ]

    # -- matching -----------------------------------------------------------

    def _position_matches(
        self, pattern_idx: int, position: int, sp_xy: Float64Array,
        tags: SemanticProperty,
    ) -> bool:
        pattern = self.patterns[pattern_idx]
        rep = self._rep_xy[pattern_idx][position]
        if ((rep - sp_xy) ** 2).sum() > self.radius_m ** 2:
            return False
        item = pattern.items[position]
        # Semantic compatibility: unknown tags (empty set) match any
        # item — the commuter's stop may simply be unrecognised.
        return not tags or item in tags

    def match(
        self, observed: SemanticTrajectory
    ) -> List[PatternMatch]:
        """Patterns whose leading positions align with ``observed``.

        Every observed stay point must match the pattern's next
        position in order (a strict prefix walk); patterns shorter than
        the observation never match.
        """
        if len(observed) == 0:
            return []
        obs_xy = self.projection.to_meters_array(
            [(sp.lon, sp.lat) for sp in observed.stay_points]
        )
        out: List[PatternMatch] = []
        for idx, pattern in enumerate(self.patterns):
            if len(pattern) < len(observed):
                continue
            positions: List[int] = []
            for k, sp in enumerate(observed.stay_points):
                if self._position_matches(idx, k, obs_xy[k], sp.semantics):
                    positions.append(k)
                else:
                    break
            if len(positions) == len(observed):
                out.append(PatternMatch(pattern, tuple(positions)))
        out.sort(key=lambda m: -m.pattern.support)
        return out

    # -- prediction -----------------------------------------------------------

    def predict_next(
        self, observed: SemanticTrajectory, top_k: int = 3
    ) -> List[NextStopForecast]:
        """Support-weighted forecast of the commuter's next stop.

        Aggregates the continuations of every matching (incomplete)
        pattern; forecasts pointing at the same item within the match
        radius merge, and confidences sum to 1 over all candidates.
        """
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        matches = [m for m in self.match(observed) if not m.is_complete]
        if not matches:
            return []

        buckets: Dict[Tuple[str, int, int], Dict[str, float]] = {}
        for m in matches:
            k = len(m.matched_positions)
            rep = m.pattern.representatives[k]
            x, y = self.projection.to_meters(rep.lon, rep.lat)
            key = (
                m.pattern.items[k],
                int(round(x / self.radius_m)),
                int(round(y / self.radius_m)),
            )
            bucket = buckets.setdefault(
                key, {"support": 0, "lon": rep.lon, "lat": rep.lat}
            )
            bucket["support"] += m.pattern.support

        # reprolint: allow-unordered -- integer support counts; integer
        # addition is exact, so iteration order cannot change the total.
        total = sum(b["support"] for b in buckets.values())
        forecasts = [
            NextStopForecast(
                item=key[0],
                lon=bucket["lon"],
                lat=bucket["lat"],
                support=bucket["support"],
                confidence=bucket["support"] / total,
            )
            for key, bucket in buckets.items()
        ]
        forecasts.sort(key=lambda f: (-f.support, f.item))
        return forecasts[:top_k]
