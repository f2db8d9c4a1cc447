"""Unit tests for the ROI recognizer and the Splitter/SDBSCAN extractors."""

import numpy as np
import pytest

from repro.baselines.roi import ROIRecognizer
from repro.baselines.sdbscan import sdbscan_extract
from repro.baselines.splitter import splitter_extract
from repro.core.config import MiningConfig
from repro.data.poi import POI
from repro.data.trajectory import SemanticTrajectory, StayPoint

from tests.test_extraction import planted_database

DEG_PER_M = 1.0 / 111_195.0


def make_pois(lon0, major, count, start_id, spacing=1e-5):
    minors = {
        "Restaurant": "Cafe", "Sports": "Gym",
        "Shop & Market": "Supermarket", "Business & Office": "Company",
        "Residence": "Residential Quarter",
    }
    return [
        POI(start_id + i, lon0 + i * spacing, 31.23, major, minors[major])
        for i in range(count)
    ]


class TestROIRecognizer:
    def _trajs(self, lon, n=20):
        return [
            SemanticTrajectory(i, [StayPoint(lon, 31.23, float(i))])
            for i in range(n)
        ]

    def test_overlap_mode_labels_hot_region(self):
        pois = make_pois(121.47, "Restaurant", 8, 0)
        rec = ROIRecognizer(pois, eps_m=100, min_pts=5)
        out = rec.recognize(self._trajs(121.47))
        assert all(
            st.stay_points[0].semantics == {"Restaurant"} for st in out
        )

    def test_overlap_mode_mixes_in_complex_area(self):
        """Nearby different-tag POIs leak into the overlap annotation —
        the semantic-complexity failure the paper criticises."""
        pois = make_pois(121.47, "Restaurant", 6, 0) + make_pois(
            121.4703, "Sports", 6, 6
        )
        rec = ROIRecognizer(pois, eps_m=100, min_pts=5, overlap_radius_m=50)
        out = rec.recognize(self._trajs(121.4701))
        tags = out[0].stay_points[0].semantics
        assert tags == {"Restaurant", "Sports"}

    def test_fallback_to_nearest_poi(self):
        pois = make_pois(121.47, "Restaurant", 5, 0)
        rec = ROIRecognizer(pois, eps_m=50, min_pts=30)  # no hot region
        out = rec.recognize(self._trajs(121.47, n=3))
        assert out[0].stay_points[0].semantics == {"Restaurant"}

    def test_no_poi_in_range_is_empty(self):
        pois = make_pois(121.47, "Restaurant", 5, 0)
        rec = ROIRecognizer(pois, eps_m=50, min_pts=30)
        out = rec.recognize(self._trajs(122.0, n=2))
        assert out[0].stay_points[0].semantics == frozenset()

    def test_rejects_bad_args(self):
        pois = make_pois(121.47, "Restaurant", 3, 0)
        with pytest.raises(ValueError):
            ROIRecognizer(pois, eps_m=0)
        with pytest.raises(ValueError):
            ROIRecognizer(pois, min_pts=0)


class TestBaselineExtractors:
    def test_sdbscan_recovers_planted_pattern(self):
        db = planted_database(25)
        patterns = sdbscan_extract(db, MiningConfig(support=10, rho=0.0005))
        assert len(patterns) == 1
        assert patterns[0].items == ("Office", "Home")
        assert patterns[0].support == 25

    def test_splitter_recovers_planted_pattern(self):
        db = planted_database(25)
        patterns = splitter_extract(db, MiningConfig(support=10, rho=0.0005))
        assert len(patterns) == 1
        assert patterns[0].support == 25

    def test_extractors_respect_support(self):
        db = planted_database(8)
        cfg = MiningConfig(support=10, rho=0.0)
        assert sdbscan_extract(db, cfg) == []
        assert splitter_extract(db, cfg) == []

    def test_extractors_respect_rho(self):
        db = planted_database(25, jitter_m=800.0)
        cfg = MiningConfig(support=10, rho=0.002)
        assert sdbscan_extract(db, cfg) == []
        assert splitter_extract(db, cfg) == []

    def test_splitter_separates_two_venues(self):
        a = planted_database(15, seed=3)
        b = [
            SemanticTrajectory(100 + st.traj_id, [
                StayPoint(sp.lon + 0.05, sp.lat, sp.t, sp.semantics)
                for sp in st.stay_points
            ])
            for st in planted_database(15, seed=4)
        ]
        patterns = splitter_extract(a + b, MiningConfig(support=10, rho=0.0005))
        assert len(patterns) == 2
        assert sorted(p.support for p in patterns) == [15, 15]
