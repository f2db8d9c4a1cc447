"""The City Semantic Diagram data structure (Definitions 3 and 4).

A :class:`CitySemanticDiagram` owns the POI dataset (projected once to
local metres), the per-POI popularity, and the partition of clustered
POIs into :class:`SemanticUnit` objects.  It answers the two queries the
recognizer needs: circular range search over POIs and
``find_semantic_unit`` (Algorithm 3 line 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.data.poi import POI, poi_lonlat_array
from repro.data.trajectory import SemanticProperty
from repro.geo.index import GridIndex
from repro.geo.projection import LocalProjection
from repro.types import Float64Array, IndexArray, MetersArray

UNASSIGNED = -1


@array_contract(ret=ArraySpec(dtype="int64", ndim=1, item=1))
def tag_codes(tags: Sequence[str]) -> Tuple[List[str], IndexArray]:
    """Integer codes for string tags: ``(names, codes)`` with
    ``names[codes[k]] == tags[k]``.

    ``names`` is ``sorted(set(tags))``, so ascending codes visit tags in
    string order — the order the tag-keyed scalar definitions iterate.
    """
    names = sorted(set(tags))
    lookup = {tag: code for code, tag in enumerate(names)}
    codes = np.fromiter(
        (lookup[tag] for tag in tags), dtype=np.int64, count=len(tags)
    )
    return names, codes


@dataclass
class SemanticUnit:
    """One fine-grained semantic unit: a set of POI indices.

    ``semantic_distribution`` is the popularity-weighted tag distribution
    of Equation (6); it drives unit merging and is also a convenient
    summary for inspection.
    """

    unit_id: int
    poi_indices: List[int]
    centroid_xy: Tuple[float, float]
    semantic_distribution: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.poi_indices)

    @property
    def tags(self) -> SemanticProperty:
        """All semantic tags present in the unit."""
        return frozenset(self.semantic_distribution)

    def dominant_tag(self) -> str:
        """Highest-weight tag (ties broken lexicographically)."""
        if not self.semantic_distribution:
            raise ValueError(f"unit {self.unit_id} has no semantics")
        return min(
            self.semantic_distribution,
            key=lambda t: (-self.semantic_distribution[t], t),
        )


class CitySemanticDiagram:
    """POIs + popularity + fine-grained semantic units (Definition 4)."""

    def __init__(
        self,
        pois: Sequence[POI],
        projection: LocalProjection,
        poi_xy: MetersArray,
        popularity: Float64Array,
        units: List[SemanticUnit],
        unit_of: IndexArray,
        tag_level: str = "major",
    ) -> None:
        n = len(pois)
        if len(poi_xy) != n or len(popularity) != n or len(unit_of) != n:
            raise ValueError("per-POI arrays must align with the POI list")
        if tag_level not in ("major", "minor"):
            raise ValueError("tag_level must be 'major' or 'minor'")
        self.pois = list(pois)
        self.projection = projection
        self.poi_xy = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
        self.popularity = np.asarray(popularity, dtype=float)
        self.units = units
        self.unit_of = np.asarray(unit_of, dtype=np.int64)
        self.tag_level = tag_level
        self._grid: Optional[GridIndex] = None
        self._poi_tags: Optional[List[str]] = None

    @property
    def _index(self) -> GridIndex:
        """The 100 m POI grid behind :meth:`range_query`, built on first
        use: recognition reads its own cell-window table, so a diagram
        that is only recognised against never needs it."""
        if self._grid is None:
            self._grid = GridIndex(self.poi_xy, cell_size=100.0)
        return self._grid

    def poi_tag(self, poi_index: int) -> str:
        """The semantic tag of a POI at this diagram's granularity."""
        return self.pois[poi_index].tag(self.tag_level)

    # -- queries -------------------------------------------------------

    @array_contract(ret=ArraySpec(dtype="int64", ndim=1))
    def range_query(self, x: float, y: float, radius: float) -> IndexArray:
        """POI indices within ``radius`` metres of ``(x, y)`` (metres)."""
        return self._index.query_radius(x, y, radius)

    def poi_tags(self) -> List[str]:
        """All POI tags at this diagram's granularity (cached)."""
        if self._poi_tags is None:
            # ``tag_level`` names the POI field (checked in __init__).
            self._poi_tags = list(map(attrgetter(self.tag_level), self.pois))
        return self._poi_tags

    def find_semantic_unit(self, poi_index: int) -> int:
        """Unit id of a POI, or ``UNASSIGNED`` (Algorithm 3 line 8)."""
        return int(self.unit_of[poi_index])

    def unit(self, unit_id: int) -> SemanticUnit:
        return self.units[unit_id]

    @property
    def n_pois(self) -> int:
        return len(self.pois)

    @property
    def n_units(self) -> int:
        return len(self.units)

    def assigned_fraction(self) -> float:
        """Fraction of POIs belonging to some unit."""
        if len(self.unit_of) == 0:
            return 0.0
        return float((self.unit_of != UNASSIGNED).mean())

    # -- summaries --------------------------------------------------------

    @array_contract(ret=ArraySpec(dtype="int64", ndim=1))
    def unit_sizes(self) -> IndexArray:
        return np.array([len(u) for u in self.units], dtype=np.int64)

    @array_contract(ret=ArraySpec(dtype="float64", ndim=1, finite=True))
    def unit_purities(self) -> Float64Array:
        """Max tag share per unit; 1.0 means single-semantic."""
        out = np.empty(len(self.units), dtype=np.float64)
        for i, u in enumerate(self.units):
            if not u.semantic_distribution:
                out[i] = 0.0
            else:
                out[i] = max(u.semantic_distribution.values())
        return out

    def describe(self) -> Dict[str, float]:
        """Headline statistics used by the Figure 6 bench."""
        sizes = self.unit_sizes()
        purity = self.unit_purities()
        return {
            "n_pois": float(self.n_pois),
            "n_units": float(self.n_units),
            "assigned_fraction": self.assigned_fraction(),
            "mean_unit_size": float(sizes.mean()) if len(sizes) else 0.0,
            "max_unit_size": float(sizes.max()) if len(sizes) else 0.0,
            "mean_unit_purity": float(purity.mean()) if len(purity) else 0.0,
            "single_semantic_fraction": (
                float((purity >= 1.0 - 1e-12).mean()) if len(purity) else 0.0
            ),
        }


@array_contract(ret=ArraySpec(dtype="float64", cols=2, item=1))
def project_pois(
    pois: Sequence[POI], projection: Optional[LocalProjection] = None
) -> Tuple[LocalProjection, MetersArray]:
    """Anchor (or reuse) a projection and project all POIs to metres."""
    lonlat = poi_lonlat_array(pois)
    if projection is None:
        projection = LocalProjection.for_points(lonlat)
    return projection, projection.to_meters_array(lonlat)
