"""ROI-based semantic recognition (Chen et al. [21]).

The hybrid algorithm the paper competes against: hot regions are
detected by clustering the *stay points* (DBSCAN), and each stay point
inside a hot region is annotated "based on the spatial overlapping
examination" against the POI background: it takes the tags of the POIs
overlapping its own neighbourhood.  This is the per-point database
query of [21]; in semantically complex areas nearby stay points see
different POI subsets and get *different* tags — the "uncontrolled
purity" / weak-consistency failure the paper attributes to ROI.

Stay points outside all hot regions, and those whose neighbourhood
holds no POI, fall back to the nearest POI's tag within
``fallback_radius_m``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.cluster.dbscan import dbscan
from repro.core.csd import project_pois
from repro.core.recognition import attach_semantics
from repro.data.poi import POI
from repro.data.trajectory import (
    NO_SEMANTICS,
    SemanticProperty,
    SemanticTrajectory,
)
from repro.geo.index import GridIndex
from repro.types import Float64Array


class ROIRecognizer:
    """Hot-region recogniser: DBSCAN regions + POI overlap annotation.

    Parameters
    ----------
    pois:
        The POI dataset providing semantic background information.
    eps_m / min_pts:
        DBSCAN parameters for hot-region detection over stay points.
    overlap_radius_m:
        Per-point annotation radius.
    fallback_radius_m:
        Nearest-POI search radius for stay points outside all regions.
    """

    def __init__(
        self,
        pois: Sequence[POI],
        eps_m: float = 100.0,
        min_pts: int = 10,
        overlap_radius_m: float = 50.0,
        fallback_radius_m: float = 100.0,
    ) -> None:
        if eps_m <= 0 or overlap_radius_m <= 0 or fallback_radius_m <= 0:
            raise ValueError("radii must be positive")
        if min_pts < 1:
            raise ValueError("min_pts must be at least 1")
        self.pois = list(pois)
        self.projection, self.poi_xy = project_pois(self.pois)
        self.eps_m = eps_m
        self.min_pts = min_pts
        self.overlap_radius_m = overlap_radius_m
        self.fallback_radius_m = fallback_radius_m
        self._poi_index = GridIndex(self.poi_xy, cell_size=100.0)

    def recognize(
        self, trajectories: Sequence[SemanticTrajectory]
    ) -> List[SemanticTrajectory]:
        """Annotate every stay point of the dataset.

        Hot regions are recomputed from the stay points of the given
        dataset — the baseline couples recognition to the corpus,
        unlike CSD which precomputes the diagram once.
        """
        stays = [sp for st in trajectories for sp in st.stay_points]
        stay_xy = self.projection.to_meters_array(
            [(sp.lon, sp.lat) for sp in stays]
        )
        labels = (
            dbscan(stay_xy, self.eps_m, self.min_pts)
            if len(stays)
            else np.empty(0, dtype=np.int64)
        )
        props: List[SemanticProperty] = []
        for label, xy in zip(labels, stay_xy):
            semantics = (
                self._overlap_tags(xy) if label != -1 else NO_SEMANTICS
            )
            props.append(semantics or self._nearest_poi_tags(xy))
        return attach_semantics(trajectories, props)

    # -- internals -------------------------------------------------------

    def _overlap_tags(self, xy: Float64Array) -> SemanticProperty:
        """Tags of POIs overlapping the stay point's own neighbourhood."""
        hits = self._poi_index.query_radius(
            float(xy[0]), float(xy[1]), self.overlap_radius_m
        )
        if len(hits) == 0:
            return NO_SEMANTICS
        return frozenset(self.pois[int(i)].major for i in hits)

    def _nearest_poi_tags(self, xy: Float64Array) -> SemanticProperty:
        hits = self._poi_index.query_radius(
            float(xy[0]), float(xy[1]), self.fallback_radius_m
        )
        if len(hits) == 0:
            return NO_SEMANTICS
        d = ((self.poi_xy[hits] - xy) ** 2).sum(axis=1)
        nearest = int(hits[int(np.argmin(d))])
        return self.pois[nearest].semantics
