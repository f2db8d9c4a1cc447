"""Unit tests for GeoJSON export."""

import numpy as np
import pytest

from repro.data.geojson import (
    _convex_hull,
    csd_to_geojson,
    patterns_to_geojson,
    write_geojson,
)
from repro.ioutil import strict_json_load
from tests.test_patterns import make_pattern


class TestConvexHull:
    def test_square_hull(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float
        )
        hull = _convex_hull(pts)
        assert len(hull) == 4
        assert {tuple(p) for p in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_collinear_points(self):
        pts = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
        hull = _convex_hull(pts)
        assert len(hull) <= 2 or np.allclose(
            np.cross(hull[1] - hull[0], hull[-1] - hull[0]), 0
        )

    def test_two_points(self):
        pts = np.array([[0, 0], [5, 5]], dtype=float)
        assert len(_convex_hull(pts)) == 2


class TestCSDExport:
    def test_feature_per_unit(self, small_csd):
        collection = csd_to_geojson(small_csd)
        assert collection["type"] == "FeatureCollection"
        assert len(collection["features"]) == small_csd.n_units
        f = collection["features"][0]
        assert f["geometry"]["type"] in ("Polygon", "Point")
        assert "dominant_tag" in f["properties"]

    def test_polygons_closed(self, small_csd):
        for feature in csd_to_geojson(small_csd)["features"]:
            geometry = feature["geometry"]
            if geometry["type"] == "Polygon":
                ring = geometry["coordinates"][0]
                assert ring[0] == ring[-1]
                assert len(ring) >= 4


class TestPatternExport:
    def test_linestrings(self):
        p = make_pattern(["A", "B"], [0, 1000])
        collection = patterns_to_geojson([p])
        f = collection["features"][0]
        assert f["geometry"]["type"] == "LineString"
        assert len(f["geometry"]["coordinates"]) == 2
        assert f["properties"]["route"] == "A -> B"
        assert f["properties"]["support"] == 5


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        p = make_pattern(["A", "B"], [0, 1000])
        collection = patterns_to_geojson([p])
        path = tmp_path / "patterns.geojson"
        write_geojson(path, collection)
        back = strict_json_load(path)
        assert back == collection

    def test_write_rejects_non_collection(self, tmp_path):
        with pytest.raises(ValueError):
            write_geojson(tmp_path / "x.geojson", {"type": "Feature"})
