"""T-pattern-style spatiotemporal mining (Giannotti et al. [13]).

The related-work family the paper contrasts in Section 2: grid-based
Region-of-Interest mining that needs no semantics at all.  Space is
partitioned into uniform cells; cells with enough stay points become
popular, connected popular cells merge into ROIs, trajectories map to
ROI-id sequences, and PrefixSpan mines the frequent sequences together
with the typical transition time (the T-pattern's temporal annotation).

It demonstrates exactly the limitation the paper names: the output
patterns are spatiotemporally sound but carry *no semantic property* —
"these approaches only focus on spatiotemporal regularity … and cannot
support semantic related queries or services".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MiningConfig
from repro.core.extraction import (
    FineGrainedPattern,
    Occurrence,
    matched_columns,
    representative_stay_point,
)
from repro.data.trajectory import SemanticTrajectory
from repro.geo.projection import LocalProjection
from repro.mining.prefixspan import prefixspan
from repro.types import Float64Array, MetersArray

#: Edge of the uniform grid cells, metres, from the projection origin.
CELL_M = 200.0
#: Stay points a cell needs to be popular.
MIN_VISITS = 20


@dataclass
class RegionOfInterest:
    """One ROI: a connected component of popular grid cells."""

    roi_id: int
    cells: List[Tuple[int, int]]
    centroid_xy: Tuple[float, float]
    visits: int


def detect_rois(
    stay_xy: MetersArray,
    cell_m: float = CELL_M,
    min_visits: int = MIN_VISITS,
) -> Tuple[List[RegionOfInterest], Dict[Tuple[int, int], int]]:
    """Popular-cell ROI detection.

    Returns the ROIs and a cell -> roi_id map for fast point lookup.
    """
    if cell_m <= 0:
        raise ValueError("cell_m must be positive")
    if min_visits < 1:
        raise ValueError("min_visits must be at least 1")
    counts: Dict[Tuple[int, int], int] = defaultdict(int)
    sums: Dict[Tuple[int, int], Float64Array] = defaultdict(
        lambda: np.zeros(2, dtype=np.float64)
    )
    for x, y in np.asarray(stay_xy, dtype=float).reshape(-1, 2):
        key = (int(np.floor(x / cell_m)), int(np.floor(y / cell_m)))
        counts[key] += 1
        sums[key] += (x, y)

    popular = {key for key, n in counts.items() if n >= min_visits}
    # Connected components over 4-neighbourhood adjacency.
    roi_of: Dict[Tuple[int, int], int] = {}
    rois: List[RegionOfInterest] = []
    for start in sorted(popular):
        if start in roi_of:
            continue
        component = []
        stack = [start]
        roi_of[start] = len(rois)
        while stack:
            cell = stack.pop()
            component.append(cell)
            cx, cy = cell
            for neighbour in (
                (cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)
            ):
                if neighbour in popular and neighbour not in roi_of:
                    roi_of[neighbour] = len(rois)
                    stack.append(neighbour)
        visits = sum(counts[c] for c in component)
        centroid = sum((sums[c] for c in component), np.zeros(2, dtype=np.float64)) / visits
        rois.append(
            RegionOfInterest(
                roi_id=len(rois),
                cells=sorted(component),
                centroid_xy=(float(centroid[0]), float(centroid[1])),
                visits=visits,
            )
        )
    return rois, roi_of


def tpattern_extract(
    database: Sequence[SemanticTrajectory],
    config: MiningConfig,
    projection: LocalProjection,
) -> List[FineGrainedPattern]:
    """Mine ROI-sequence patterns from (semantics-free) trajectories.

    Output items are synthetic ROI labels (``"roi-3"``); groups and
    representatives work like the other extractors so the standard
    metrics apply — semantic consistency is of course degenerate, which
    is the point of this baseline.  The grid is anchored on
    ``projection``'s origin, so the patterns depend on the projection.
    """
    all_xy = [
        projection.to_meters_array([(sp.lon, sp.lat) for sp in st.stay_points])
        for st in database
    ]
    # The empty block keeps a corpus without stays well formed: no ROIs.
    stay_xy = np.vstack([np.empty((0, 2), dtype=np.float64), *all_xy])
    _rois, roi_of = detect_rois(stay_xy, CELL_M, MIN_VISITS)

    sequences: List[List[Optional[str]]] = []
    for xy in all_xy:
        rois = [
            roi_of.get((int(cx), int(cy))) for cx, cy in np.floor(xy / CELL_M)
        ]
        sequences.append([None if r is None else f"roi-{r}" for r in rois])

    coarse = prefixspan(
        sequences,
        min_support=config.support,
        min_length=config.min_length,
        max_length=config.max_length,
    )
    out: List[FineGrainedPattern] = []
    for pattern in coarse:
        members: List[Occurrence] = []
        for seq_idx, positions in pattern.occurrences:
            times = [database[seq_idx][p].t for p in positions]
            if all(
                times[k + 1] - times[k] <= config.delta_t_s
                for k in range(len(times) - 1)
            ):
                members.append((seq_idx, positions))
        if len(members) < config.support:
            continue
        groups, xy = matched_columns(members, database, projection)
        out.append(
            FineGrainedPattern(
                items=pattern.items,
                representatives=[
                    representative_stay_point(group, group_xy)
                    for group, group_xy in zip(groups, xy)
                ],
                member_ids=[seq_idx for seq_idx, _p in members],
                groups=groups,
            )
        )
    return out
