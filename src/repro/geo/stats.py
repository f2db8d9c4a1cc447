"""Spatial statistics: variance (Eq. 1), density ``Den``, centroid, medoid.

All functions operate on ``(n, 2)`` arrays of local metre coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.geo.distance import pairwise_distances
from repro.types import Float64Array, MetersArray

#: Floor on the mean radius used by :func:`spatial_density`, in metres.
#: Prevents the density of near-coincident points from exploding; one
#: metre is below GPS resolution so the floor never changes a comparison
#: the paper's thresholds could make.
MIN_DENSITY_RADIUS_M = 1.0


def centroid(xy: MetersArray) -> Float64Array:
    """Arithmetic mean point of an ``(n, 2)`` array."""
    pts = np.asarray(xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("centroid needs a non-empty (n, 2) array")
    return pts.mean(axis=0)


def medoid_index(xy: MetersArray) -> int:
    """Index of the point closest to the centroid (Alg. 4 line 19)."""
    pts = np.asarray(xy, dtype=float)
    c = centroid(pts)
    return int(np.argmin(((pts - c) ** 2).sum(axis=1)))


def spatial_variance(xy: MetersArray) -> float:
    """Spatial variance ``Var(S)`` of Equation (1), in square metres.

    Defined with an ``n - 1`` denominator; a singleton set has zero
    variance by convention (the paper never evaluates Var on singletons,
    but purification can momentarily produce them).
    """
    pts = np.asarray(xy, dtype=float)
    n = len(pts)
    if n <= 1:
        return 0.0
    c = pts.mean(axis=0)
    return float(((pts - c) ** 2).sum() / (n - 1))


def mean_pairwise_distance(xy: MetersArray) -> float:
    """Average pairwise Euclidean distance; the ``ss`` kernel of Eq. (9).

    Returns 0.0 for groups of fewer than two points.
    """
    n = len(xy)
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, k=1)
    return float(pairwise_distances(xy)[iu].mean())


def spatial_density(xy: MetersArray) -> float:
    """Spatial density ``Den(S)`` in points per square metre.

    The paper uses ``Den`` without a closed form (Definition 11,
    Algorithm 4 line 13) and reports the threshold rho = 0.002 m^-2.  We
    define density as the point count divided by the area of the disc
    whose radius is the mean distance to the centroid:

        Den(S) = |S| / (pi * max(r_mean, 1 m)^2)

    With this definition a group of 50 points spread over a ~60 m radius
    has density ~0.004 m^-2, so rho = 0.002 discriminates at exactly the
    tens-of-metres sparsity scale the paper reports.
    """
    pts = np.asarray(xy, dtype=float)
    n = len(pts)
    if n == 0:
        return 0.0
    c = pts.mean(axis=0)
    r_mean = float(np.sqrt(((pts - c) ** 2).sum(axis=1)).mean())
    r = max(r_mean, MIN_DENSITY_RADIUS_M)
    return n / (np.pi * r * r)
