"""Splitter-style pattern extraction (Zhang et al. [17]).

Splitter mines spatially coarse patterns with PrefixSpan and refines
each one *top-down* with Mean Shift — hence the name: the k-th stay
points of all supporters are clustered at a wide, data-driven bandwidth,
and every cluster that still has ``sigma`` supporters is re-split at
half the bandwidth, recursively, until splitting would destroy support
or the bandwidth reaches the GPS-noise floor.  Clusters that stop early
stay loose, which is why Splitter's sparsity distribution keeps a fat
tail in Figure 9.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.baselines.refinement import refine_with_labeler
from repro.cluster.meanshift import estimate_bandwidth, mean_shift
from repro.core.config import MiningConfig
from repro.core.extraction import FineGrainedPattern
from repro.data.trajectory import SemanticTrajectory
from repro.geo.projection import LocalProjection
from repro.types import IndexArray, MetersArray

#: Initial bandwidth selection quantile over pairwise distances.
BANDWIDTH_QUANTILE = 0.3
#: Splitting stops once the bandwidth reaches the GPS-noise scale.
MIN_BANDWIDTH_M = 40.0


def _split_recursive(
    xy: MetersArray,
    idxs: IndexArray,
    bandwidth: float,
    sigma: int,
    labels: IndexArray,
    next_label: List[int],
) -> None:
    """Split ``idxs`` at ``bandwidth``; recurse into viable subclusters.

    A subcluster is viable when it keeps at least ``sigma`` supporters.
    If no viable subcluster emerges the parent stays one cluster
    (stopping the descent); otherwise viable subclusters recurse at half
    bandwidth and the rest become noise — the support Splitter sheds
    while sharpening patterns.
    """
    sub_labels, _modes = mean_shift(xy[idxs], bandwidth=bandwidth)
    clusters = [idxs[sub_labels == c] for c in np.unique(sub_labels)]
    viable = [c for c in clusters if len(c) >= sigma]
    if not viable or (len(viable) == 1 and len(viable[0]) == len(idxs)):
        # No split possible (or it changed nothing): accept as one cluster.
        label = next_label[0]
        next_label[0] += 1
        labels[idxs] = label
        return
    for members in viable:
        if bandwidth / 2.0 >= MIN_BANDWIDTH_M:
            _split_recursive(
                xy, members, bandwidth / 2.0, sigma, labels, next_label
            )
        else:
            label = next_label[0]
            next_label[0] += 1
            labels[members] = label


def _splitter_labeler(xy: MetersArray, config: MiningConfig) -> IndexArray:
    bandwidth = max(
        estimate_bandwidth(xy, quantile=BANDWIDTH_QUANTILE), MIN_BANDWIDTH_M
    )
    labels = np.full(len(xy), -1, dtype=np.int64)
    if len(xy) == 0:
        return labels
    _split_recursive(
        np.asarray(xy, dtype=float),
        np.arange(len(xy), dtype=np.int64),
        bandwidth,
        config.support,
        labels,
        [0],
    )
    return labels


def splitter_extract(
    database: Sequence[SemanticTrajectory],
    config: MiningConfig,
    projection: LocalProjection,
) -> List[FineGrainedPattern]:
    """Splitter over a recognised semantic-trajectory database."""
    return refine_with_labeler(database, config, _splitter_labeler, projection)
