"""Mean Shift (Comaniciu & Meer, 2002) with a flat kernel.

Splitter [17] refines each coarse pattern top-down with Mean Shift; we
implement the standard mode-seeking procedure: every point ascends to
the mean of its ``bandwidth`` neighbourhood until convergence, and modes
closer than the bandwidth merge into one cluster.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.geo.distance import pairwise_distances
from repro.geo.index import GridIndex
from repro.types import Float64Array, IndexArray, MetersArray, MetersXY

#: Mode-ascent steps per point before it stops where it is.
MAX_ITER = 100
#: A shift shorter than this (metres) counts as converged.
TOL_M = 1e-3


def mean_shift(
    xy: MetersArray,
    bandwidth: float,
) -> Tuple[IndexArray, Float64Array]:
    """Cluster by mode seeking; returns ``(labels, modes)``.

    ``labels[i]`` indexes into ``modes`` (an ``(k, 2)`` array).  Every
    point receives a label — Mean Shift has no noise concept.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
    index = GridIndex(pts, cell_size=bandwidth)

    shifted = pts.copy()
    for i in range(n):
        x, y = pts[i]
        for _ in range(MAX_ITER):
            hits = index.query_radius(x, y, bandwidth)
            if len(hits) == 0:
                break
            mx, my = pts[hits].mean(axis=0)
            if (mx - x) ** 2 + (my - y) ** 2 < TOL_M * TOL_M:
                x, y = mx, my
                break
            x, y = mx, my
        shifted[i] = (x, y)

    # Merge modes closer than the bandwidth (greedy, deterministic order).
    modes: list[MetersXY] = []
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        for m, (mx, my) in enumerate(modes):
            if (shifted[i, 0] - mx) ** 2 + (shifted[i, 1] - my) ** 2 <= bandwidth ** 2:
                labels[i] = m
                break
        else:
            modes.append((shifted[i, 0], shifted[i, 1]))
            labels[i] = len(modes) - 1
    return labels, np.asarray(modes, dtype=float)


def estimate_bandwidth(xy: MetersArray, quantile: float = 0.3) -> float:
    """Pairwise-distance quantile heuristic for the Mean Shift bandwidth.

    Mirrors the common sklearn heuristic; clamped below by 1 m so
    degenerate inputs (coincident points) stay usable.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    return max(float(np.quantile(pairwise_distances(pts)[iu], quantile)), 1.0)
