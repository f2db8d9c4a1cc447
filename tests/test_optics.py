"""Unit tests for OPTICS and its cluster extractions."""

import numpy as np
import pytest

from repro.cluster.dbscan import dbscan
from repro.cluster.optics import (
    extract_dbscan_clustering,
    extract_valley_clusters,
    optics,
    optics_auto_clusters,
)


def make_blobs(seed=0, sigmas=(10.0, 10.0, 10.0), n=50):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [600, 0], [0, 600]])
    return np.vstack(
        [c + rng.normal(0, s, (n, 2)) for c, s in zip(centers, sigmas)]
    )


class TestOrdering:
    def test_ordering_is_permutation(self):
        pts = make_blobs()
        result = optics(pts, min_pts=5, max_eps=1000)
        assert sorted(result.ordering) == list(range(len(pts)))

    def test_core_distances_positive(self):
        pts = make_blobs()
        result = optics(pts, min_pts=5, max_eps=1000)
        finite = result.core_distance[np.isfinite(result.core_distance)]
        assert len(finite) == len(pts)  # every point is core here
        assert np.all(finite > 0)

    def test_isolated_point_unreachable(self):
        pts = np.vstack([make_blobs(), [[10_000.0, 10_000.0]]])
        result = optics(pts, min_pts=5, max_eps=500)
        assert np.isinf(result.reachability[-1])

    def test_empty_input(self):
        result = optics(np.empty((0, 2)), min_pts=3)
        assert len(result) == 0

    def test_rejects_bad_min_pts(self):
        with pytest.raises(ValueError):
            optics(make_blobs(), min_pts=0)

    def test_rejects_nan_max_eps(self):
        with pytest.raises(ValueError, match="max_eps"):
            optics(make_blobs(), min_pts=5, max_eps=float("nan"))

    def test_rejects_nan_coordinate(self):
        pts = make_blobs()
        pts[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            optics(pts, min_pts=5, max_eps=1000)


class TestExtraction:
    def test_cut_matches_dbscan_cluster_count(self):
        pts = make_blobs()
        result = optics(pts, min_pts=5, max_eps=1000)
        labels = extract_dbscan_clustering(result, eps_prime=60.0, min_pts=5)
        ref = dbscan(pts, eps=60.0, min_pts=5)
        assert len(set(labels) - {-1}) == len(set(ref) - {-1})

    def test_auto_threshold_separates_blobs(self):
        pts = make_blobs()
        labels = optics_auto_clusters(pts, min_pts=5)
        assert len(set(labels) - {-1}) == 3


class TestValleyExtraction:
    def test_heterogeneous_densities(self):
        """The fixed-eps failure case: one tight, one wide cluster."""
        pts = make_blobs(sigmas=(8.0, 80.0, 15.0), n=60)
        labels = optics_auto_clusters(pts, min_pts=20)
        clusters = set(labels) - {-1}
        assert len(clusters) == 3
        # Each true blob maps dominantly to a single label.
        for b in range(3):
            blob = labels[b * 60 : (b + 1) * 60]
            values, counts = np.unique(blob[blob >= 0], return_counts=True)
            assert counts.max() >= 50

    def test_small_segments_are_noise(self):
        pts = np.vstack([make_blobs(n=40), [[3000.0, 3000.0], [3001.0, 3001.0]]])
        labels = optics_auto_clusters(pts, min_pts=10)
        assert labels[-1] == -1 and labels[-2] == -1

    def test_rejects_bad_split_ratio(self):
        result = optics(make_blobs(), min_pts=5)
        with pytest.raises(ValueError):
            extract_valley_clusters(result, min_pts=5, split_ratio=1.0)

    def test_empty(self):
        result = optics(np.empty((0, 2)), min_pts=3)
        assert len(extract_valley_clusters(result, min_pts=3)) == 0

    def test_single_dense_cluster_not_split(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 20, (100, 2))
        labels = optics_auto_clusters(pts, min_pts=10)
        assert len(set(labels) - {-1}) == 1
