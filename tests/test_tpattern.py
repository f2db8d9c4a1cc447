"""Tests for the T-pattern-style related-work baseline."""

import numpy as np
import pytest

from repro.baselines import tpattern
from repro.baselines.tpattern import detect_rois, tpattern_extract
from repro.core.config import MiningConfig
from repro.eval.metrics import pattern_semantic_consistency

from tests.test_extraction import PROJECTION, planted_database


class TestROIDetection:
    def test_two_hot_cells_two_rois(self):
        rng = np.random.default_rng(0)
        xy = np.vstack([
            rng.normal(100, 10, (50, 2)),
            np.array([2100, 2100]) + rng.normal(0, 10, (50, 2)),
        ])
        rois, roi_of = detect_rois(xy, cell_m=200, min_visits=20)
        assert len(rois) == 2
        assert sum(r.visits for r in rois) >= 90

    def test_adjacent_cells_merge(self):
        # Points straddling a cell boundary form one connected ROI.
        xy = np.vstack([
            np.column_stack([np.full(30, 195.0), np.linspace(0, 50, 30)]),
            np.column_stack([np.full(30, 205.0), np.linspace(0, 50, 30)]),
        ])
        rois, _ = detect_rois(xy, cell_m=200, min_visits=20)
        assert len(rois) == 1
        assert len(rois[0].cells) == 2

    def test_sparse_cells_ignored(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 50_000, (100, 2))
        rois, _ = detect_rois(xy, cell_m=200, min_visits=20)
        assert rois == []

    def test_centroid_near_mass(self):
        rng = np.random.default_rng(2)
        xy = np.array([500.0, 500.0]) + rng.normal(0, 15, (60, 2))
        rois, _ = detect_rois(xy, cell_m=200, min_visits=20)
        cx, cy = rois[0].centroid_xy
        assert abs(cx - 500) < 50 and abs(cy - 500) < 50

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            detect_rois(np.zeros((1, 2)), cell_m=0)
        with pytest.raises(ValueError):
            detect_rois(np.zeros((1, 2)), min_visits=0)


class TestTPatternExtraction:
    def test_recovers_planted_flow(self, monkeypatch):
        monkeypatch.setattr(tpattern, "MIN_VISITS", 5)
        db = planted_database(30)
        patterns = tpattern_extract(
            db, MiningConfig(support=10, rho=0.0), PROJECTION
        )
        assert len(patterns) >= 1
        top = max(patterns, key=lambda p: p.support)
        # Grid methods shed fringe points into unpopular cells (the
        # granularity artefact the paper's §2 criticises), so support
        # lands below the planted 30 but remains dominant.
        assert 15 <= top.support <= 30
        assert all(item.startswith("roi-") for item in top.items)

    def test_no_semantics_in_output(self, monkeypatch):
        """The Semantic Absence limitation: groups carry the raw (empty)
        semantics, so the consistency metric collapses."""
        monkeypatch.setattr(tpattern, "MIN_VISITS", 5)
        db = planted_database(30)
        # Strip semantics to simulate raw GPS input.
        from repro.data.trajectory import SemanticTrajectory, StayPoint

        raw = [
            SemanticTrajectory(st.traj_id, [
                StayPoint(sp.lon, sp.lat, sp.t) for sp in st.stay_points
            ])
            for st in db
        ]
        patterns = tpattern_extract(
            raw, MiningConfig(support=10, rho=0.0), PROJECTION
        )
        assert patterns
        assert pattern_semantic_consistency(patterns[0]) == 0.0

    def test_temporal_constraint_applies(self, monkeypatch):
        monkeypatch.setattr(tpattern, "MIN_VISITS", 10)
        db = planted_database(30, gap_minutes=120.0)
        patterns = tpattern_extract(
            db, MiningConfig(support=10, delta_t_s=3600.0), PROJECTION
        )
        assert all(len(p) < 2 or p.support < 10 for p in patterns) or not patterns

    def test_support_threshold(self, monkeypatch):
        monkeypatch.setattr(tpattern, "MIN_VISITS", 3)
        db = planted_database(5)
        assert tpattern_extract(db, MiningConfig(support=10), PROJECTION) == []
