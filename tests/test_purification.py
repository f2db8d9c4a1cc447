"""Unit tests for semantic purification (Algorithm 2, Eq. 4-5)."""

import numpy as np
import pytest

from repro.core.purification import (
    is_fine_grained,
    kl_divergences,
    purify,
    semantic_distributions,
)


class TestDistributions:
    def test_single_tag_distribution(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0]])
        dists = semantic_distributions(xy, np.array([0, 0]), 1, r3sigma=100.0)
        assert dists.shape == (2, 1)
        assert dists == pytest.approx(np.ones((2, 1)))

    def test_distribution_normalised(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        dists = semantic_distributions(xy, np.array([0, 1, 0]), 2, 100.0)
        assert dists.sum(axis=1) == pytest.approx(np.ones(3))

    def test_nearby_tags_weigh_more(self):
        xy = np.array([[0.0, 0.0], [5.0, 0.0], [90.0, 0.0]])
        dists = semantic_distributions(xy, np.array([0, 1, 2]), 3, 100.0)
        # From POI 0's view, B (5 m) outweighs C (90 m).
        assert dists[0, 1] > dists[0, 2]

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            semantic_distributions(np.zeros((2, 2)), np.array([0]), 1, 100.0)


class TestKL:
    def test_identical_distributions_zero(self):
        dists = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert kl_divergences(dists, 1) == pytest.approx([0.0, 0.0], abs=1e-6)

    def test_diverging_distributions_positive(self):
        dists = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert kl_divergences(dists, 1)[0] > 0.5

    def test_zero_probability_is_finite(self):
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        value = kl_divergences(dists, 1)[0]
        assert np.isfinite(value)
        assert value > 0


class TestQualification:
    def test_single_semantic_qualifies(self):
        xy = np.random.default_rng(0).uniform(0, 1000, (10, 2))
        assert is_fine_grained(xy, ["A"] * 10, v_min=1.0)

    def test_tight_mixed_cluster_qualifies(self):
        xy = np.zeros((4, 2))
        assert is_fine_grained(xy, ["A", "B", "C", "D"], v_min=10.0)

    def test_spread_mixed_cluster_fails(self):
        xy = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        assert not is_fine_grained(xy, ["A", "B", "C"], v_min=10.0)


class TestPurify:
    def test_pure_cluster_untouched(self):
        xy = np.array([[i * 10.0, 0.0] for i in range(6)])
        units = purify([[0, 1, 2, 3, 4, 5]], xy, ["A"] * 6, 1.0, 100.0)
        assert units == [[0, 1, 2, 3, 4, 5]]

    def test_mixed_spread_cluster_splits_by_tag(self):
        # Tags segregated in space: A's on the left, B's 300 m right.
        xy = np.vstack([
            np.array([[i * 5.0, 0.0] for i in range(5)]),
            np.array([[300.0 + i * 5.0, 0.0] for i in range(5)]),
        ])
        tags = ["A"] * 5 + ["B"] * 5
        units = purify([list(range(10))], xy, tags, v_min=50.0, r3sigma=100.0)
        tag_sets = sorted(
            frozenset(tags[i] for i in unit) for unit in units
        )
        assert all(len(ts) == 1 for ts in tag_sets)
        assert len(units) >= 2

    def test_preserves_every_index(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 400, (30, 2))
        tags = [("A", "B", "C")[i % 3] for i in range(30)]
        units = purify([list(range(30))], xy, tags, 100.0, 100.0)
        flat = sorted(i for u in units for i in u)
        assert flat == list(range(30))

    def test_terminates_on_degenerate_input(self):
        # All points coincident but mixed: KL profile is flat; the
        # no-progress guard must accept instead of looping forever.
        xy = np.zeros((6, 2))
        tags = ["A", "B"] * 3
        units = purify([list(range(6))], xy, tags, v_min=0.0, r3sigma=100.0)
        flat = sorted(i for u in units for i in u)
        assert flat == list(range(6))

    def test_empty_and_blank_clusters(self):
        assert purify([], np.empty((0, 2)), [], 1.0, 100.0) == []
        assert purify([[]], np.empty((0, 2)), [], 1.0, 100.0) == []

    def test_rejects_negative_v_min(self):
        with pytest.raises(ValueError):
            purify([[0]], np.zeros((1, 2)), ["A"], -1.0, 100.0)
