"""Trajectory data model: GPS points, trajectories, stay points (Def. 1, 5, 6).

Semantic properties are ``frozenset`` of category names so they hash,
compare, and support the set containment of Definition 7 condition iii.
Timestamps are POSIX seconds (float) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

SemanticProperty = FrozenSet[str]

#: The empty semantic property, used before recognition runs.
NO_SEMANTICS: SemanticProperty = frozenset()


@dataclass(frozen=True)
class GPSPoint:
    """One raw GPS fix ``(p, t)`` of Definition 1."""

    lon: float
    lat: float
    t: float

    def lonlat(self) -> Tuple[float, float]:
        return (self.lon, self.lat)


@dataclass(frozen=True)
class StayPoint:
    """A stay point ``sp = (x, y, t, s)`` (Definition 5).

    In the taxi experiments the pick-up and drop-off points are used as
    stay points directly; ``detect_stay_points`` derives them from dense
    trajectories instead.
    """

    lon: float
    lat: float
    t: float
    semantics: SemanticProperty = NO_SEMANTICS

    def lonlat(self) -> Tuple[float, float]:
        return (self.lon, self.lat)

    def with_semantics(self, semantics: SemanticProperty) -> "StayPoint":
        """Copy of this stay point carrying recognised semantics."""
        # Direct construction: ``dataclasses.replace`` re-reads every
        # field by name and costs twice as much per stay.
        return StayPoint(self.lon, self.lat, self.t, frozenset(semantics))


@dataclass
class Trajectory:
    """A raw GPS trajectory ``T`` (Definition 1)."""

    traj_id: int
    points: List[GPSPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[GPSPoint]:
        return iter(self.points)

    def is_time_ordered(self) -> bool:
        """True when timestamps never decrease along the trajectory."""
        pts = self.points
        return all(pts[i].t <= pts[i + 1].t for i in range(len(pts) - 1))


@dataclass
class SemanticTrajectory:
    """A semantic trajectory ``ST`` (Definition 6): stay points in time order.

    ``traj_id`` links back to the raw trajectory (or card-linked
    passenger) it was derived from.
    """

    traj_id: int
    stay_points: List[StayPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.stay_points)

    def __iter__(self) -> Iterator[StayPoint]:
        return iter(self.stay_points)

    def __getitem__(self, k: int) -> StayPoint:
        return self.stay_points[k]

    def point(self, k: int) -> StayPoint:
        """``Pt^k(ST)`` with 1-based ``k`` as written in the paper."""
        if not 1 <= k <= len(self.stay_points):
            raise IndexError(f"Pt^{k} out of range for length {len(self)}")
        return self.stay_points[k - 1]

    def is_time_ordered(self) -> bool:
        sps = self.stay_points
        return all(sps[i].t <= sps[i + 1].t for i in range(len(sps) - 1))


def dominant_tag(semantics: SemanticProperty) -> Optional[str]:
    """Canonical single tag for a semantic property.

    Semantic properties are unordered sets; PrefixSpan needs one hashable
    item per stay point, so we take the lexicographically smallest tag.
    Returns ``None`` for the empty property.
    """
    if not semantics:
        return None
    return min(semantics)


def as_tag_sequence(st: SemanticTrajectory) -> List[Optional[str]]:
    """Dominant-tag sequence of a semantic trajectory (PrefixSpan input)."""
    return [dominant_tag(sp.semantics) for sp in st.stay_points]


def validate_database(database: Sequence[SemanticTrajectory]) -> None:
    """Raise ``ValueError`` on malformed semantic trajectories.

    Checks time ordering and coordinate sanity; used by the public
    mining entry points to fail fast on corrupt input.
    """
    for st in database:
        if not st.is_time_ordered():
            raise ValueError(f"trajectory {st.traj_id} is not time ordered")
        for sp in st.stay_points:
            if not (-180.0 <= sp.lon <= 180.0 and -90.0 <= sp.lat <= 90.0):
                raise ValueError(
                    f"trajectory {st.traj_id} has out-of-range coordinate "
                    f"({sp.lon}, {sp.lat})"
                )
