"""Unit and property tests for repro.geo.index: GridIndex and CellWindowTable."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.index import CellWindowTable, GridIndex


def brute_force(xy, x, y, r):
    d2 = (xy[:, 0] - x) ** 2 + (xy[:, 1] - y) ** 2
    return np.flatnonzero(d2 <= r * r)


class TestBasics:
    def test_empty_index(self):
        idx = GridIndex(np.empty((0, 2)))
        assert len(idx) == 0
        assert len(idx.query_radius(0, 0, 100)) == 0

    def test_single_point_hit_and_miss(self):
        idx = GridIndex(np.array([[10.0, 10.0]]), cell_size=5.0)
        assert list(idx.query_radius(10, 10, 1)) == [0]
        assert list(idx.query_radius(100, 100, 1)) == []

    def test_boundary_inclusive(self):
        idx = GridIndex(np.array([[0.0, 0.0], [10.0, 0.0]]), cell_size=10)
        hits = idx.query_radius(0.0, 0.0, 10.0)
        assert list(hits) == [0, 1]

    def test_results_sorted(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(0, 100, (200, 2))
        idx = GridIndex(xy, cell_size=20)
        hits = idx.query_radius(50, 50, 30)
        assert list(hits) == sorted(hits)

    def test_rejects_bad_args(self):
        for cell in (0.0, np.nan):
            with pytest.raises(ValueError, match="cell_size"):
                GridIndex(np.zeros((1, 2)), cell_size=cell)
        idx = GridIndex(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            idx.query_radius(0, 0, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_radius(self, bad):
        """NaN died in ``int(np.ceil(...))`` with "cannot convert float
        NaN to integer" and inf with an OverflowError."""
        idx = GridIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="radius"):
            idx.query_radius_many(np.zeros((2, 2)), bad)
        with pytest.raises(ValueError, match="radius"):
            idx.query_radius(0.0, 0.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        xy = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            GridIndex(xy)

    def test_points_view_is_readonly(self):
        idx = GridIndex(np.zeros((3, 2)))
        with pytest.raises((ValueError, RuntimeError)):
            idx.points[0, 0] = 1.0

    def test_count_within(self):
        xy = np.array([[0.0, 0.0], [5.0, 0.0], [50.0, 0.0]])
        idx = GridIndex(xy, cell_size=10)
        assert idx.count_within(0, 0, 10) == 2

    def test_query_many_csr(self):
        xy = np.array([[0.0, 0.0], [100.0, 100.0]])
        idx = GridIndex(xy, cell_size=10)
        indices, offsets = idx.query_radius_many(
            np.array([[0, 0], [100, 100], [50, 50]]), 5.0
        )
        assert list(offsets) == [0, 1, 2, 2]
        assert list(indices) == [0, 1]

    def test_query_many_rejects_negative_radius(self):
        idx = GridIndex(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            idx.query_radius_many(np.zeros((1, 2)), -1.0)


class TestAgainstBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 60),
        st.floats(1.0, 300.0),
        st.floats(5.0, 200.0),
        st.integers(0, 10_000),
    )
    def test_matches_brute_force(self, n, radius, cell, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-500, 500, (n, 2))
        idx = GridIndex(xy, cell_size=cell)
        x, y = rng.uniform(-500, 500, 2)
        got = idx.query_radius(x, y, radius)
        want = brute_force(xy, x, y, radius)
        assert list(got) == list(want)

    def test_negative_coordinates(self):
        xy = np.array([[-250.0, -250.0], [-260.0, -250.0], [250.0, 250.0]])
        idx = GridIndex(xy, cell_size=100)
        assert list(idx.query_radius(-255, -250, 10)) == [0, 1]


def unpack_csr(indices, offsets):
    return [indices[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


class TestBatchedCSR:
    """query_radius_many must equal per-point query_radius, row by row."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 80),
        st.integers(1, 20),
        st.floats(0.0, 400.0),
        st.floats(5.0, 200.0),
        st.integers(0, 10_000),
    )
    def test_csr_matches_scalar(self, n, m, radius, cell, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-500, 500, (n, 2))
        centers = rng.uniform(-600, 600, (m, 2))
        idx = GridIndex(xy, cell_size=cell)
        indices, offsets = idx.query_radius_many(centers, radius)
        assert offsets[0] == 0
        assert offsets[-1] == len(indices)
        rows = unpack_csr(indices, offsets)
        assert len(rows) == m
        for (cx, cy), row in zip(centers, rows):
            assert list(row) == list(idx.query_radius(cx, cy, radius))
            assert list(row) == list(brute_force(xy, cx, cy, radius))

    def test_empty_index(self):
        idx = GridIndex(np.empty((0, 2)))
        indices, offsets = idx.query_radius_many(np.zeros((3, 2)), 50.0)
        assert len(indices) == 0
        assert list(offsets) == [0, 0, 0, 0]

    def test_no_centers(self):
        idx = GridIndex(np.zeros((4, 2)))
        indices, offsets = idx.query_radius_many(np.empty((0, 2)), 50.0)
        assert len(indices) == 0
        assert list(offsets) == [0]

    def test_radius_zero_hits_exact_points_only(self):
        xy = np.array([[0.0, 0.0], [0.0, 0.0], [1e-9, 0.0], [5.0, 5.0]])
        idx = GridIndex(xy, cell_size=10.0)
        indices, offsets = idx.query_radius_many(
            np.array([[0.0, 0.0], [5.0, 5.0], [2.0, 2.0]]), 0.0
        )
        rows = unpack_csr(indices, offsets)
        assert [list(r) for r in rows] == [[0, 1], [3], []]

    def test_huge_radius_all_buckets_fallback(self):
        """A window larger than the occupied-cell count takes the
        scan-everything path; results must still match per point."""
        rng = np.random.default_rng(3)
        xy = rng.uniform(-200, 200, (150, 2))
        idx = GridIndex(xy, cell_size=10.0)
        centers = rng.uniform(-250, 250, (7, 2))
        radius = 10_000.0  # window >> occupied cells
        indices, offsets = idx.query_radius_many(centers, radius)
        rows = unpack_csr(indices, offsets)
        for (cx, cy), row in zip(centers, rows):
            assert list(row) == list(idx.query_radius(cx, cy, radius))
            assert len(row) == 150

    def test_far_away_centers_empty_rows(self):
        xy = np.zeros((5, 2))
        idx = GridIndex(xy, cell_size=10.0)
        indices, offsets = idx.query_radius_many(
            np.array([[1e6, 1e6], [-1e6, 0.0]]), 50.0
        )
        assert len(indices) == 0
        assert list(offsets) == [0, 0, 0]

    def test_chunked_path_matches_unchunked(self, monkeypatch):
        import repro.geo.index as index_mod

        rng = np.random.default_rng(11)
        xy = rng.uniform(0, 300, (300, 2))
        centers = rng.uniform(0, 300, (97, 2))
        idx = GridIndex(xy, cell_size=30.0)
        want = idx.query_radius_many(centers, 45.0)
        monkeypatch.setattr(index_mod, "_CHUNK_BUDGET", 64)
        got = idx.query_radius_many(centers, 45.0)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestCellWindowTable:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 150),
        m=st.integers(0, 40),
        radius=st.sampled_from([0.5, 7.0, 25.0, 100.0]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_grid_index_restricted_to_members(self, n, m, radius, seed):
        rng = np.random.default_rng(seed)
        xy = np.round(rng.uniform(-200, 200, (n, 2)), 1)
        members = np.flatnonzero(rng.random(n) < 0.7)
        centers = np.round(rng.uniform(-260, 260, (m, 2)), 1)
        hits, center_of, d2 = CellWindowTable(xy, radius, members).query(centers)
        want, offsets = GridIndex(xy, cell_size=radius).query_radius_many(
            centers, radius
        )
        want_center = np.repeat(np.arange(m), np.diff(offsets))
        keep = np.isin(want, members)
        assert hits.tolist() == want[keep].tolist()
        assert center_of.tolist() == want_center[keep].tolist()
        dx = xy[hits, 0] - centers[center_of, 0]
        dy = xy[hits, 1] - centers[center_of, 1]
        assert np.array_equal(d2, dx * dx + dy * dy)

    def test_no_members(self):
        table = CellWindowTable(np.ones((3, 2)), 10.0, np.empty(0, dtype=np.int64))
        hits, center_of, d2 = table.query(np.ones((2, 2)))
        assert len(table) == 0
        assert len(hits) == len(center_of) == len(d2) == 0

    def test_non_finite_centres_have_no_hits(self):
        table = CellWindowTable(np.zeros((1, 2)), 10.0, np.array([0]))
        centers = np.array([[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]])
        assert len(table.query(centers)[0]) == 0
        assert table.query(np.zeros((1, 2)))[0].tolist() == [0]

    def test_size_follows_members_not_extent(self):
        xy = np.array([[0.0, 0.0], [60_000.0, 60_000.0], [5.0, 5.0]])
        table = CellWindowTable(xy, 1.0, np.array([0, 1]))
        assert len(table) == 18

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_radius(self, bad):
        with pytest.raises(ValueError, match="radius"):
            CellWindowTable(np.zeros((1, 2)), bad, np.array([0]))
