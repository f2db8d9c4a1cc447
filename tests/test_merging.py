"""Unit tests for semantic unit merging (Eq. 6-8)."""

import numpy as np
import pytest

from repro.core.merging import (
    cosine_similarity,
    merge_units,
    unit_distributions,
)


class TestDistribution:
    def test_popularity_weighted(self):
        pop = np.array([3.0, 1.0])
        dist = unit_distributions([[0, 1]], ["A", "B"], pop)[0]
        assert dist["A"] == pytest.approx(0.75, abs=1e-6)
        assert dist["B"] == pytest.approx(0.25, abs=1e-6)

    def test_zero_popularity_floor(self):
        dist = unit_distributions([[0, 1]], ["A", "B"], np.zeros(2))[0]
        assert dist["A"] == pytest.approx(0.5)


class TestCosine:
    def test_identical_is_one(self):
        p = {"A": 0.7, "B": 0.3}
        assert cosine_similarity(p, dict(p)) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert cosine_similarity({"A": 1.0}, {"B": 1.0}) == 0.0

    def test_empty_is_zero(self):
        assert cosine_similarity({}, {"A": 1.0}) == 0.0

    def test_symmetric(self):
        p = {"A": 0.6, "B": 0.4}
        q = {"A": 0.2, "C": 0.8}
        assert cosine_similarity(p, q) == pytest.approx(cosine_similarity(q, p))

    def test_range(self):
        p = {"A": 0.5, "B": 0.5}
        q = {"A": 0.9, "B": 0.1}
        assert 0.0 < cosine_similarity(p, q) <= 1.0


class TestMerge:
    def _xy(self, *points):
        return np.array(points, dtype=float)

    def test_similar_nearby_units_merge(self):
        xy = self._xy([0, 0], [10, 0], [25, 0], [35, 0])
        tags = ["A", "A", "A", "A"]
        pop = np.ones(4)
        merged = merge_units(
            [[0, 1], [2, 3]], [], xy, tags, pop, cos_threshold=0.9, radius=30.0
        )
        assert merged == [[0, 1, 2, 3]]

    def test_dissimilar_nearby_units_stay_apart(self):
        xy = self._xy([0, 0], [10, 0], [25, 0], [35, 0])
        tags = ["A", "A", "B", "B"]
        pop = np.ones(4)
        merged = merge_units(
            [[0, 1], [2, 3]], [], xy, tags, pop, 0.9, 30.0
        )
        assert sorted(map(tuple, merged)) == [(0, 1), (2, 3)]

    def test_far_similar_units_stay_apart(self):
        xy = self._xy([0, 0], [10, 0], [500, 0], [510, 0])
        tags = ["A"] * 4
        merged = merge_units(
            [[0, 1], [2, 3]], [], xy, tags, np.ones(4), 0.9, 30.0
        )
        assert sorted(map(tuple, merged)) == [(0, 1), (2, 3)]

    def test_leftover_absorbed_into_similar_unit(self):
        xy = self._xy([0, 0], [10, 0], [20, 0])
        tags = ["A", "A", "A"]
        merged = merge_units(
            [[0, 1]], [2], xy, tags, np.ones(3), 0.9, 30.0
        )
        assert merged == [[0, 1, 2]]

    def test_leftover_with_other_tag_not_absorbed(self):
        xy = self._xy([0, 0], [10, 0], [20, 0])
        tags = ["A", "A", "B"]
        merged = merge_units(
            [[0, 1]], [2], xy, tags, np.ones(3), 0.9, 30.0
        )
        assert merged == [[0, 1]]

    def test_leftover_only_groups_dropped(self):
        xy = self._xy([0, 0], [10, 0])
        tags = ["A", "A"]
        merged = merge_units([], [0, 1], xy, tags, np.ones(2), 0.9, 30.0)
        assert merged == []

    def test_transitive_merging(self):
        # A-B within radius, B-C within radius, A-C not: union-find chains.
        xy = self._xy([0, 0], [25, 0], [50, 0])
        tags = ["A", "A", "A"]
        merged = merge_units(
            [[0], [1], [2]], [], xy, tags, np.ones(3), 0.9, 30.0
        )
        assert merged == [[0, 1, 2]]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            merge_units([], [], np.empty((0, 2)), [], np.empty(0), 1.5, 30.0)
