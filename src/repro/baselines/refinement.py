"""The combination sweep Splitter and SDBSCAN share.

Both baselines take Algorithm 4's front half from
:mod:`repro.core.extraction` and replace its OPTICS step and seed sweep
with an exchangeable per-position clusterer (``labeler``) and a count of
label combinations; they differ only in the clusterer.  Per the paper,
the support threshold ``sigma``, temporal constraint ``delta_t`` and
density threshold ``rho`` are universal across all six approaches; here
``rho`` acts as a post-filter on the mean group density.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import MiningConfig
from repro.core.extraction import (
    FineGrainedPattern,
    coarse_patterns,
    matched_columns,
    representative_stay_point,
    temporal_occurrences,
)
from repro.data.trajectory import SemanticTrajectory
from repro.geo.projection import LocalProjection
from repro.geo.stats import spatial_density
from repro.types import IndexArray, MetersArray

#: A labeler maps the k-th matched points (metres) to cluster labels;
#: ``-1`` marks noise (clusterers without a noise concept never emit it).
Labeler = Callable[[MetersArray, MiningConfig], IndexArray]


def refine_with_labeler(
    database: Sequence[SemanticTrajectory],
    config: MiningConfig,
    labeler: Labeler,
    projection: LocalProjection,
) -> List[FineGrainedPattern]:
    """PrefixSpan + per-position clustering + combination counting.

    A fine-grained pattern is a maximal set of supporters that share the
    same cluster label at *every* position; combinations with at least
    ``sigma`` members and mean group density at least ``rho`` survive.
    """
    out: List[FineGrainedPattern] = []
    for pattern in coarse_patterns(database, config):
        occurrences = temporal_occurrences(
            pattern, database, config.delta_t_s
        )
        if len(occurrences) < config.support:
            continue
        m = len(pattern.items)
        stays, xy = matched_columns(occurrences, database, projection)
        labels = [labeler(xy[k], config) for k in range(m)]

        combos: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
        for j in range(len(occurrences)):
            key = tuple(int(labels[k][j]) for k in range(m))
            if -1 in key:
                continue
            combos[key].append(j)

        for _key, members in sorted(combos.items()):
            if len(members) < config.support:
                continue
            groups = [[stays[k][j] for j in members] for k in range(m)]
            group_xy = [xy[k][members] for k in range(m)]
            # rho is universal across the six approaches (Section 5).
            # The baselines enforce it as Definition 11 states it — on
            # the mean group density — which is why their sparse tail
            # survives in Figure 9 while Algorithm 4's stricter
            # per-position gate prunes it for PM.
            mean_density = float(
                np.mean([spatial_density(g) for g in group_xy])
            )
            if mean_density < config.rho:
                continue
            out.append(
                FineGrainedPattern(
                    items=pattern.items,
                    representatives=[
                        representative_stay_point(groups[k], group_xy[k])
                        for k in range(m)
                    ],
                    member_ids=[occurrences[j][0] for j in members],
                    groups=groups,
                )
            )
    return out
