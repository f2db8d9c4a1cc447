"""Distance functions and the Gaussian distribution coefficient (Eq. 2).

The paper measures every distance with the Haversine formula over WGS-84
coordinates.  At city scale (Shanghai spans roughly 60 km) the
equirectangular approximation agrees with Haversine to better than 0.1%,
so performance-sensitive code first projects to local metres (see
:mod:`repro.geo.projection`) and uses plain Euclidean arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.types import Float64Array, MetersArray

#: Mean Earth radius in metres (IUGG value, same constant AMAP uses).
EARTH_RADIUS_M = 6_371_008.8


def haversine_distance(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres between two lon/lat points.

    >>> round(haversine_distance(121.47, 31.23, 121.47, 31.23), 6)
    0.0
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def equirectangular_distance(
    lon1: float, lat1: float, lon2: float, lat2: float
) -> float:
    """Fast flat-Earth distance in metres; accurate at city scale."""
    mean_phi = math.radians((lat1 + lat2) / 2.0)
    dx = math.radians(lon2 - lon1) * math.cos(mean_phi)
    dy = math.radians(lat2 - lat1)
    return EARTH_RADIUS_M * math.hypot(dx, dy)


def pairwise_distances(xy: MetersArray) -> Float64Array:
    """Full Euclidean distance matrix for an ``(n, 2)`` array of metres.

    Intended for the small per-group computations of Equations (9) and
    (11); the O(n^2) memory is deliberate and fine at group sizes.
    """
    pts = np.asarray(xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
    delta = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def _check_r3sigma(r3sigma: float) -> None:
    if not 0.0 < r3sigma < math.inf:  # also rejects NaN
        raise ValueError("r3sigma must be positive and finite")


def gaussian_coefficient(distance_m: float, r3sigma: float) -> float:
    """Gaussian distribution coefficient ``||p, p'||`` of Equation (2).

    ``r3sigma`` is the 3-sigma radius: the kernel standard deviation is
    ``r3sigma / 3`` so that 99.7% of the mass falls within ``r3sigma``.
    The coefficient models GPS noise around the true location; a stay
    point contributes to the popularity of every POI within ``r3sigma``.
    """
    _check_r3sigma(r3sigma)
    sigma = r3sigma / 3.0
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return norm * math.exp(-(distance_m ** 2) / (2.0 * sigma ** 2))


def gaussian_coefficients(distances_m: Float64Array, r3sigma: float) -> Float64Array:
    """Vectorised :func:`gaussian_coefficient` over an array of metres."""
    _check_r3sigma(r3sigma)
    d = np.asarray(distances_m, dtype=float)
    sigma = r3sigma / 3.0
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return norm * np.exp(-(d ** 2) / (2.0 * sigma ** 2))

