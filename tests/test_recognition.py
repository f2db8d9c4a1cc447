"""Unit tests for semantic recognition (Algorithm 3)."""

import math

import numpy as np
import pytest

from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.core.recognition import CSDRecognizer
from repro.data.poi import POI
from repro.data.trajectory import SemanticTrajectory, StayPoint


def cluster_pois(lon0, lat0, major, minor, count, start_id, spacing=1e-5):
    return [
        POI(start_id + i, lon0 + i * spacing, lat0, major, minor)
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def two_unit_csd():
    """A restaurant plaza at lon 121.470 and a gym plaza ~300 m east."""
    pois = (
        cluster_pois(121.4700, 31.23, "Restaurant", "Cafe", 6, 0)
        + cluster_pois(121.4732, 31.23, "Sports", "Gym", 6, 6)
    )
    # Stay points concentrated at the restaurant plaza -> higher pop there.
    stays = [StayPoint(121.4700, 31.23, float(i)) for i in range(10)]
    stays += [StayPoint(121.4732, 31.23, float(i)) for i in range(4)]
    return build_csd(pois, stays, CSDConfig(min_pts=3))


class TestRecognizePoint:
    def test_point_at_plaza_gets_its_tag(self, two_unit_csd):
        recognizer = CSDRecognizer(two_unit_csd, 100.0)
        sp = StayPoint(121.4700, 31.23, 0.0)
        assert recognizer.recognize_point(sp) == {"Restaurant"}
        sp2 = StayPoint(121.4732, 31.23, 0.0)
        assert recognizer.recognize_point(sp2) == {"Sports"}

    def test_far_away_point_unrecognised(self, two_unit_csd):
        recognizer = CSDRecognizer(two_unit_csd, 100.0)
        sp = StayPoint(121.60, 31.40, 0.0)
        assert recognizer.recognize_point(sp) == frozenset()

    def test_noisy_point_still_recognised(self, two_unit_csd):
        """GPS noise within R_3sigma of the plaza must not break voting."""
        recognizer = CSDRecognizer(two_unit_csd, 100.0)
        # ~40 m north of the restaurant plaza.
        sp = StayPoint(121.4700, 31.23036, 0.0)
        assert recognizer.recognize_point(sp) == {"Restaurant"}

    def test_popularity_breaks_ties(self):
        """Equidistant plazas: the more popular unit wins the vote."""
        pois = (
            cluster_pois(121.4700, 31.23, "Restaurant", "Cafe", 5, 0)
            + cluster_pois(121.47105, 31.23, "Sports", "Gym", 5, 5)
        )
        stays = [StayPoint(121.4700, 31.23, float(i)) for i in range(30)]
        csd = build_csd(pois, stays, CSDConfig(min_pts=3))
        recognizer = CSDRecognizer(csd, 100.0)
        # Midpoint between the plazas (~50 m from each).
        mid = StayPoint(121.47052, 31.23, 0.0)
        assert recognizer.recognize_point(mid) == {"Restaurant"}

    def test_rejects_bad_radius(self, two_unit_csd):
        with pytest.raises(ValueError):
            CSDRecognizer(two_unit_csd, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, two_unit_csd, bad):
        with pytest.raises(ValueError, match="r3sigma_m"):
            CSDRecognizer(two_unit_csd, bad)

    def test_rejects_bad_tag_share(self, two_unit_csd):
        with pytest.raises(ValueError):
            CSDRecognizer(two_unit_csd, 100.0, min_tag_share=1.5)

    def test_minority_tag_filtered(self):
        """A stray off-category POI inside a near-pure unit must not
        pollute the recognised semantic property."""
        pois = cluster_pois(121.4700, 31.23, "Medical Service", "Clinic", 9, 0)
        # One stray office POI inside the same cluster footprint; the
        # d_v branch of Algorithm 1 pulls it into the cluster.
        pois.append(POI(9, 121.47001, 31.23, "Business & Office", "Company"))
        stays = [StayPoint(121.4700, 31.23, float(i)) for i in range(10)]
        csd = build_csd(pois, stays, CSDConfig(min_pts=3, v_min_m2=1e9))
        recognizer = CSDRecognizer(csd, 100.0, min_tag_share=0.15)
        tags = recognizer.recognize_point(StayPoint(121.4700, 31.23, 0.0))
        assert tags == {"Medical Service"}

    def test_balanced_mixed_unit_keeps_both_tags(self):
        """A genuinely mixed unit (skyscraper stack) keeps all its
        major tags above the share threshold."""
        pois = cluster_pois(121.4700, 31.23, "Restaurant", "Cafe", 5, 0,
                            spacing=1e-6)
        pois += cluster_pois(121.470004, 31.23, "Shop & Market",
                             "Shopping Mall", 5, 5, spacing=1e-6)
        stays = [StayPoint(121.4700, 31.23, float(i)) for i in range(10)]
        csd = build_csd(pois, stays, CSDConfig(min_pts=3, v_min_m2=1e9))
        recognizer = CSDRecognizer(csd, 100.0)
        tags = recognizer.recognize_point(StayPoint(121.4700, 31.23, 0.0))
        assert tags == {"Restaurant", "Shop & Market"}


class TestRecognizeDataset:
    def test_inputs_not_mutated(self, two_unit_csd):
        recognizer = CSDRecognizer(two_unit_csd, 100.0)
        st = SemanticTrajectory(0, [StayPoint(121.4700, 31.23, 0.0)])
        out = recognizer.recognize([st])
        assert st.stay_points[0].semantics == frozenset()
        assert out[0].stay_points[0].semantics == {"Restaurant"}
        assert out[0].traj_id == 0

    def test_recognition_accuracy_on_workload(
        self, small_csd, small_taxi, small_csd_config
    ):
        """Against ground truth the CSD recogniser must be very accurate
        on the stay points it labels — the headline synthetic-only metric."""
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        linked = small_taxi.linked_trajectories()
        truths = small_taxi.linked_truths()
        recognized = recognizer.recognize(linked)
        total = labeled = hit = 0
        for st, truth in zip(recognized, truths):
            for sp, true_cat in zip(st.stay_points, truth):
                total += 1
                if sp.semantics:
                    labeled += 1
                    if true_cat in sp.semantics:
                        hit += 1
        assert labeled / total > 0.5
        assert hit / labeled > 0.9
