"""Cross-module edge cases not covered by the per-module suites."""

import numpy as np
import pytest

from repro.core.config import MiningConfig
from repro.core.containment import contains
from repro.core.extraction import counterpart_cluster
from repro.data.io import read_pois, write_pois
from repro.data.poi import POI
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.geo.distance import haversine_distance
from repro.geo.index import GridIndex
from repro.mining.prefixspan import prefixspan

DEG_PER_M = 1.0 / 111_195.0


class TestGeoEdges:
    def test_haversine_never_nan_near_antipodes(self):
        # asin argument can float above 1 without the clamp.
        d = haversine_distance(0.0, 89.999999, 180.0, -89.999999)
        assert np.isfinite(d)

    def test_index_with_duplicate_points(self):
        xy = np.tile([5.0, 5.0], (10, 1))
        idx = GridIndex(xy, cell_size=10)
        assert len(idx.query_radius(5, 5, 1)) == 10

    def test_index_zero_radius_query(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = GridIndex(xy, cell_size=10)
        assert list(idx.query_radius(0.0, 0.0, 0.0)) == [0]


class TestPrefixSpanEdges:
    def test_min_equals_max_length(self):
        seqs = [list("abc")] * 3
        patterns = prefixspan(seqs, 2, min_length=2, max_length=2)
        assert all(len(p.items) == 2 for p in patterns)

    def test_all_empty_sequences(self):
        assert prefixspan([[], [], []], 1, min_length=1) == []

    def test_single_sequence_support_one(self):
        patterns = prefixspan([list("ab")], 1, min_length=2)
        assert any(p.items == ("a", "b") for p in patterns)


class TestContainmentEdges:
    def _st(self, stops):
        return SemanticTrajectory(0, [
            StayPoint(x * DEG_PER_M, 0.0, t, frozenset(tags))
            for x, t, tags in stops
        ])

    def test_identical_timestamps_allowed(self):
        host = self._st([(0, 100.0, {"A"}), (10, 100.0, {"B"})])
        pattern = self._st([(0, 100.0, {"A"}), (10, 100.0, {"B"})])
        assert contains(host, pattern, 50.0, 3600.0) == (0, 1)

    def test_empty_pattern_never_contained(self):
        host = self._st([(0, 0.0, {"A"})])
        empty = SemanticTrajectory(1, [])
        assert contains(host, empty, 50.0, 3600.0) is None

    def test_exact_epsilon_boundary_inclusive(self):
        host = self._st([(100, 0.0, {"A"})])
        pattern = self._st([(0, 0.0, {"A"})])
        # 100 m apart with eps exactly 100: Definition 7 uses <=.
        match = contains(host, pattern, 100.001, 3600.0)
        assert match == (0,)


class TestExtractionEdges:
    def test_min_length_filters_short_patterns(self):
        from tests.test_extraction import planted_database

        db = planted_database(20)
        config = MiningConfig(
            support=10, rho=0.0, min_length=3, max_length=5
        )
        # Only two-stop structure exists; min_length=3 finds nothing.
        assert counterpart_cluster(db, config) == []

    def test_all_unrecognised_stays_yield_nothing(self):
        db = [
            SemanticTrajectory(i, [
                StayPoint(121.47, 31.23, 0.0),
                StayPoint(121.48, 31.23, 600.0),
            ])
            for i in range(30)
        ]
        assert counterpart_cluster(db, MiningConfig(support=10)) == []


class TestIOEdges:
    def test_unicode_poi_names_roundtrip(self, tmp_path):
        pois = [POI(0, 121.47, 31.23, "Restaurant", "Cafe", name="老城隍庙小吃")]
        path = tmp_path / "pois.csv"
        write_pois(path, pois)
        assert read_pois(path) == pois

    def test_poi_name_with_comma_roundtrip(self, tmp_path):
        pois = [POI(0, 121.47, 31.23, "Restaurant", "Cafe", name="a, b & c")]
        path = tmp_path / "pois.csv"
        write_pois(path, pois)
        assert read_pois(path) == pois
