"""Local tangent-plane projection between lon/lat and east/north metres.

The synthetic datasets carry WGS-84 coordinates for realism, but every
algorithm in the pipeline (range search, clustering, variance, density)
projects once to local metres and then runs plain Euclidean geometry.
An equirectangular projection anchored at the dataset centroid is within
0.1% of Haversine at the <= 60 km extent of a city, which is far below
the 15-100 m thresholds used by the paper.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.geo.distance import EARTH_RADIUS_M
from repro.types import LonLat, LonLatArray, MetersArray, MetersXY


class LocalProjection:
    """Equirectangular projection anchored at ``(origin_lon, origin_lat)``.

    ``to_meters`` maps lon/lat to (east, north) metre offsets from the
    origin; ``to_lonlat`` is the exact inverse.
    """

    def __init__(self, origin_lon: float, origin_lat: float) -> None:
        if not -89.0 <= origin_lat <= 89.0:
            raise ValueError(
                f"origin latitude {origin_lat} out of range; the "
                "equirectangular projection degenerates near the poles"
            )
        self.origin_lon = float(origin_lon)
        self.origin_lat = float(origin_lat)
        self._cos_phi = math.cos(math.radians(origin_lat))
        self._m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
        self._m_per_deg_lon = self._m_per_deg_lat * self._cos_phi

    @classmethod
    def for_points(cls, lonlat: Iterable[LonLat]) -> "LocalProjection":
        """Build a projection anchored at the centroid of ``lonlat`` pairs."""
        arr = np.asarray(list(lonlat), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot anchor a projection on zero points")
        return cls(float(arr[:, 0].mean()), float(arr[:, 1].mean()))

    def to_meters(self, lon: float, lat: float) -> MetersXY:
        """Project one lon/lat pair to (east, north) metres."""
        x = (lon - self.origin_lon) * self._m_per_deg_lon
        y = (lat - self.origin_lat) * self._m_per_deg_lat
        return x, y

    def to_lonlat(self, x: float, y: float) -> LonLat:
        """Invert :meth:`to_meters` for one metre pair."""
        lon = self.origin_lon + x / self._m_per_deg_lon
        lat = self.origin_lat + y / self._m_per_deg_lat
        return lon, lat

    @array_contract(
        lonlat=ArraySpec(dtype="float64", cols=2, coerced=True),
        ret=ArraySpec(dtype="float64", cols=2, same_length_as="lonlat"),
    )
    def to_meters_array(self, lonlat: Sequence[LonLat]) -> MetersArray:
        """Project an ``(n, 2)`` lon/lat array to an ``(n, 2)`` metre array."""
        arr = np.asarray(lonlat, dtype=float)
        if arr.size == 0:
            return np.empty((0, 2), dtype=float)
        out = np.empty_like(arr)
        out[:, 0] = (arr[:, 0] - self.origin_lon) * self._m_per_deg_lon
        out[:, 1] = (arr[:, 1] - self.origin_lat) * self._m_per_deg_lat
        return out

    @array_contract(
        xy=ArraySpec(dtype="float64", cols=2, coerced=True),
        ret=ArraySpec(dtype="float64", cols=2, same_length_as="xy"),
    )
    def to_lonlat_array(self, xy: Sequence[MetersXY]) -> LonLatArray:
        """Invert :meth:`to_meters_array`."""
        arr = np.asarray(xy, dtype=float)
        if arr.size == 0:
            return np.empty((0, 2), dtype=float)
        out = np.empty_like(arr)
        out[:, 0] = self.origin_lon + arr[:, 0] / self._m_per_deg_lon
        out[:, 1] = self.origin_lat + arr[:, 1] / self._m_per_deg_lat
        return out

    def __repr__(self) -> str:
        return (
            f"LocalProjection(origin_lon={self.origin_lon:.6f}, "
            f"origin_lat={self.origin_lat:.6f})"
        )
