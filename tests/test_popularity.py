"""Unit tests for the popularity model (Eq. 2-3)."""

import numpy as np
import pytest

from repro.core.popularity import compute_popularity
from repro.geo.distance import gaussian_coefficient


class TestPopularity:
    def test_single_stay_point_at_poi(self):
        pop = compute_popularity(
            np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), r3sigma=100.0
        )
        assert pop[0] == pytest.approx(gaussian_coefficient(0.0, 100.0))

    def test_sums_over_stay_points(self):
        stays = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 40.0]])
        pop = compute_popularity(np.array([[0.0, 0.0]]), stays, 100.0)
        expected = sum(
            gaussian_coefficient(d, 100.0) for d in (0.0, 30.0, 40.0)
        )
        assert pop[0] == pytest.approx(expected)

    def test_radius_cutoff(self):
        stays = np.array([[150.0, 0.0]])  # beyond R_3sigma
        pop = compute_popularity(np.array([[0.0, 0.0]]), stays, 100.0)
        assert pop[0] == 0.0

    def test_closer_poi_more_popular(self):
        pois = np.array([[0.0, 0.0], [80.0, 0.0]])
        stays = np.tile([0.0, 0.0], (20, 1))
        pop = compute_popularity(pois, stays, 100.0)
        assert pop[0] > pop[1] > 0.0

    def test_empty_inputs(self):
        assert len(compute_popularity(np.empty((0, 2)), np.zeros((3, 2)), 100.0)) == 0
        pop = compute_popularity(np.zeros((2, 2)), np.empty((0, 2)), 100.0)
        assert np.all(pop == 0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            compute_popularity(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
