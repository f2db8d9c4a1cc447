"""GeoJSON export of CSD units and mined patterns.

Figure 6 (the CSD map) and Figure 14 (pattern maps) are rendered from
exactly this data in the paper; exporting standard GeoJSON lets a
downstream user drop the output into any map viewer (kepler.gl, QGIS,
geojson.io).  Only the stdlib ``json`` module is used.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from repro.core.csd import CitySemanticDiagram
from repro.core.extraction import FineGrainedPattern
from repro.core.patterns import pattern_time_bucket, route_label
from repro.ioutil import strict_json_dump
from repro.types import Float64Array, LonLatArray

PathLike = Union[str, Path]

#: Units with fewer POIs than this export (and render) as points.
MIN_HULL_SIZE = 3


def _convex_hull(xy: LonLatArray) -> LonLatArray:
    """Andrew's monotone chain convex hull of an ``(n, 2)`` array."""
    pts = np.unique(np.asarray(xy, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o: Float64Array, a: Float64Array, b: Float64Array) -> float:
        return float(
            (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        )

    lower: List[Float64Array] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Float64Array] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.float64)


def csd_to_geojson(csd: CitySemanticDiagram) -> dict:
    """FeatureCollection of unit hull polygons (the Figure 6 view).

    Units smaller than :data:`MIN_HULL_SIZE` export as points.
    """
    features = []
    for unit in csd.units:
        lonlat = np.array(
            [[csd.pois[i].lon, csd.pois[i].lat] for i in unit.poi_indices],
            dtype=np.float64,
        )
        properties = {
            "unit_id": unit.unit_id,
            "size": len(unit),
            "dominant_tag": unit.dominant_tag(),
            "tags": sorted(unit.tags),
        }
        if len(unit) >= MIN_HULL_SIZE:
            hull = _convex_hull(lonlat)
            if len(hull) >= 3:
                ring = hull.tolist() + [hull[0].tolist()]
                geometry = {"type": "Polygon", "coordinates": [ring]}
            else:
                geometry = {
                    "type": "Point",
                    "coordinates": lonlat.mean(axis=0).tolist(),
                }
        else:
            geometry = {
                "type": "Point",
                "coordinates": lonlat.mean(axis=0).tolist(),
            }
        features.append(
            {"type": "Feature", "geometry": geometry, "properties": properties}
        )
    return {"type": "FeatureCollection", "features": features}


def patterns_to_geojson(
    patterns: Sequence[FineGrainedPattern],
) -> dict:
    """FeatureCollection of pattern LineStrings (the Figure 14 view)."""
    features = []
    for idx, p in enumerate(patterns):
        coords = [[sp.lon, sp.lat] for sp in p.representatives]
        geometry = (
            {"type": "LineString", "coordinates": coords}
            if len(coords) >= 2
            else {"type": "Point", "coordinates": coords[0]}
        )
        features.append(
            {
                "type": "Feature",
                "geometry": geometry,
                "properties": {
                    "pattern_id": idx,
                    "route": route_label(p),
                    "support": p.support,
                    "length": len(p),
                    "bucket": pattern_time_bucket(p),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def write_geojson(path: PathLike, collection: dict) -> None:
    """Write a FeatureCollection with stable key order, atomically.

    Strict JSON (``allow_nan=False``): a non-finite coordinate raises
    instead of emitting tokens map viewers reject.
    """
    if collection.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    strict_json_dump(path, collection, indent=2)
