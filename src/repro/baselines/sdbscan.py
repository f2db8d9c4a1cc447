"""SDBSCAN-style pattern extraction (Jiang et al. [19]).

The modified Splitter: after PrefixSpan, coarse patterns are broken by
density-based clustering (DBSCAN) instead of the top-down Mean Shift.
The radius is fixed rather than self-tuned, so groups are tighter than
Splitter's but cannot adapt to per-pattern density the way Algorithm 4's
OPTICS step does.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.refinement import refine_with_labeler
from repro.cluster.dbscan import dbscan
from repro.core.config import MiningConfig
from repro.core.extraction import FineGrainedPattern
from repro.data.trajectory import SemanticTrajectory
from repro.geo.projection import LocalProjection
from repro.types import IndexArray, MetersArray

#: Fixed DBSCAN radius of the refinement step, metres.
SDBSCAN_EPS_M = 100.0


def _dbscan_labeler(xy: MetersArray, config: MiningConfig) -> IndexArray:
    return dbscan(xy, eps=SDBSCAN_EPS_M, min_pts=config.support)


def sdbscan_extract(
    database: Sequence[SemanticTrajectory],
    config: MiningConfig,
    projection: LocalProjection,
) -> List[FineGrainedPattern]:
    """SDBSCAN over a recognised semantic-trajectory database."""
    return refine_with_labeler(database, config, _dbscan_labeler, projection)
