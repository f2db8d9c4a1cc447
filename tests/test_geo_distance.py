"""Unit tests for repro.geo.distance."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geo.distance import (
    EARTH_RADIUS_M,
    equirectangular_distance,
    gaussian_coefficient,
    gaussian_coefficients,
    haversine_distance,
    pairwise_distances,
)

SHANGHAI = (121.47, 31.23)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_distance(*SHANGHAI, *SHANGHAI) == 0.0

    def test_one_degree_latitude(self):
        d = haversine_distance(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-9)

    def test_symmetry(self):
        a = haversine_distance(121.47, 31.23, 121.50, 31.25)
        b = haversine_distance(121.50, 31.25, 121.47, 31.23)
        assert a == pytest.approx(b)

    def test_antipodal_is_half_circumference(self):
        d = haversine_distance(0.0, 0.0, 180.0, 0.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)

    def test_known_city_scale_value(self):
        # ~1 km east at Shanghai's latitude.
        dlon = 1000.0 / (EARTH_RADIUS_M * math.pi / 180.0 * math.cos(math.radians(31.23)))
        d = haversine_distance(121.47, 31.23, 121.47 + dlon, 31.23)
        assert d == pytest.approx(1000.0, rel=1e-6)


class TestEquirectangular:
    @given(
        st.floats(-0.05, 0.05),
        st.floats(-0.05, 0.05),
    )
    def test_agrees_with_haversine_at_city_scale(self, dlon, dlat):
        lon, lat = SHANGHAI
        h = haversine_distance(lon, lat, lon + dlon, lat + dlat)
        e = equirectangular_distance(lon, lat, lon + dlon, lat + dlat)
        assert e == pytest.approx(h, rel=2e-3, abs=0.5)


class TestPairwise:
    def test_matrix_shape_and_diagonal(self):
        xy = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        d = pairwise_distances(xy)
        assert d.shape == (3, 3)
        assert np.allclose(np.diag(d), 0.0)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[0, 2] == pytest.approx(10.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        xy = rng.normal(size=(10, 2))
        d = pairwise_distances(xy)
        assert np.allclose(d, d.T)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 3)))


class TestGaussianCoefficient:
    def test_peak_at_zero(self):
        assert gaussian_coefficient(0.0, 100.0) > gaussian_coefficient(10.0, 100.0)

    def test_matches_normal_pdf(self):
        sigma = 100.0 / 3.0
        expected = 1.0 / (sigma * math.sqrt(2 * math.pi))
        assert gaussian_coefficient(0.0, 100.0) == pytest.approx(expected)

    def test_three_sigma_is_small(self):
        ratio = gaussian_coefficient(100.0, 100.0) / gaussian_coefficient(0.0, 100.0)
        assert ratio == pytest.approx(math.exp(-4.5), rel=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            gaussian_coefficient(10.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_coefficients(np.array([1.0]), -5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, bad):
        """A NaN radius compared False against ``<= 0`` and returned NaN
        weights; an infinite one returned all-zero weights."""
        with pytest.raises(ValueError, match="r3sigma"):
            gaussian_coefficient(10.0, bad)
        with pytest.raises(ValueError, match="r3sigma"):
            gaussian_coefficients(np.array([1.0]), bad)

    def test_vectorised_matches_scalar(self):
        d = np.array([0.0, 25.0, 50.0, 99.0])
        vec = gaussian_coefficients(d, 100.0)
        scalar = [gaussian_coefficient(x, 100.0) for x in d]
        assert np.allclose(vec, scalar)

    @given(st.floats(0.0, 500.0), st.floats(1.0, 500.0))
    def test_non_negative_and_monotone(self, distance, r3sigma):
        value = gaussian_coefficient(distance, r3sigma)
        closer = gaussian_coefficient(distance / 2.0, r3sigma)
        assert value >= 0.0
        assert closer >= value
        if distance <= 3.0 * r3sigma:  # beyond that exp() underflows
            assert value > 0.0
