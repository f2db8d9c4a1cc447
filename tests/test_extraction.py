"""Unit tests for Algorithm 4 (CounterpartCluster) on planted workloads."""

import numpy as np
import pytest

from repro.baselines.sdbscan import sdbscan_extract
from repro.baselines.splitter import splitter_extract
from repro.baselines.tpattern import tpattern_extract
from repro.core.config import MiningConfig
from repro.core.extraction import (
    _temporal_occurrence,
    counterpart_cluster,
    representative_stay_point,
)
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.geo.projection import LocalProjection

DEG_PER_M = 1.0 / 111_195.0
#: The metre frame of the planted corpora, anchored at their first venue.
PROJECTION = LocalProjection(0.0, 0.0)


def planted_database(
    n_trajs=30, jitter_m=10.0, gap_minutes=20.0, seed=0, tags=("Office", "Home")
):
    """``n_trajs`` two-stop trajectories between two fixed venues."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_trajs):
        stops = []
        for k, (x_m, tag) in enumerate(zip((0.0, 2000.0), tags)):
            jx = rng.normal(0, jitter_m)
            stops.append(
                StayPoint(
                    (x_m + jx) * DEG_PER_M,
                    rng.normal(0, jitter_m) * DEG_PER_M,
                    i * 86_400.0 + k * gap_minutes * 60.0,
                    frozenset({tag}),
                )
            )
        out.append(SemanticTrajectory(i, stops))
    return out


def config(**kw):
    defaults = dict(support=10, rho=0.0005, delta_t_s=3600.0)
    defaults.update(kw)
    return MiningConfig(**defaults)


class TestPlantedPattern:
    def test_recovers_planted_pattern(self):
        db = planted_database(30)
        patterns = counterpart_cluster(db, config(), PROJECTION)
        assert len(patterns) == 1
        p = patterns[0]
        assert p.items == ("Office", "Home")
        assert p.support == 30
        assert len(p.representatives) == 2
        assert len(p.groups) == 2 and all(len(g) == 30 for g in p.groups)

    def test_support_threshold_filters(self):
        db = planted_database(8)
        assert counterpart_cluster(db, config(support=10), PROJECTION) == []

    def test_temporal_constraint_filters(self):
        db = planted_database(30, gap_minutes=120.0)
        assert counterpart_cluster(
            db, config(delta_t_s=3600.0), PROJECTION
        ) == []

    def test_density_threshold_filters(self):
        # Very loose venue (jitter 500 m) fails rho = 0.002 m^-2.
        db = planted_database(30, jitter_m=500.0)
        assert counterpart_cluster(db, config(rho=0.002), PROJECTION) == []

    def test_two_distinct_venues_two_patterns(self):
        a = planted_database(20, seed=1)
        b = [
            SemanticTrajectory(100 + st.traj_id, [
                StayPoint(sp.lon + 0.05, sp.lat, sp.t, sp.semantics)
                for sp in st.stay_points
            ])
            for st in planted_database(20, seed=2)
        ]
        patterns = counterpart_cluster(a + b, config(), PROJECTION)
        two_stop = [p for p in patterns if p.items == ("Office", "Home")]
        assert len(two_stop) == 2
        assert sorted(p.support for p in two_stop) == [20, 20]

    @pytest.mark.parametrize(
        "extract",
        [counterpart_cluster, splitter_extract, sdbscan_extract,
         tpattern_extract],
        ids=["PM", "Splitter", "SDBSCAN", "TPattern"],
    )
    @pytest.mark.parametrize(
        "database", [[], [SemanticTrajectory(0, [])]], ids=["empty", "no-stays"]
    )
    def test_corpus_without_stays_mines_nothing(self, extract, database):
        assert extract(database, config(), PROJECTION) == []

    def test_representatives_carry_semantics_and_mean_time(self):
        db = planted_database(15)
        p = counterpart_cluster(db, config(), PROJECTION)[0]
        assert p.representatives[0].semantics == {"Office"}
        mean_t = np.mean([g.t for g in p.groups[0]])
        assert p.representatives[0].t == pytest.approx(mean_t)


class TestTemporalOccurrence:
    def _st(self, entries):
        return SemanticTrajectory(
            0,
            [
                StayPoint(0.0, 0.0, t * 60.0, frozenset({tag}))
                for tag, t in entries
            ],
        )

    def test_leftmost_valid_occurrence(self):
        st = self._st([("A", 0), ("B", 600), ("A", 620), ("B", 640)])
        # A@0 -> B@600 violates 60 min; must pick A@620 -> B@640.
        occ = _temporal_occurrence(st, ("A", "B"), 3600.0)
        assert occ == (2, 3)

    def test_no_valid_occurrence(self):
        st = self._st([("A", 0), ("B", 600)])
        assert _temporal_occurrence(st, ("A", "B"), 3600.0) is None

    def test_simple_match(self):
        st = self._st([("A", 0), ("C", 10), ("B", 20)])
        assert _temporal_occurrence(st, ("A", "B"), 3600.0) == (0, 2)

    def test_missing_item(self):
        st = self._st([("A", 0), ("C", 10)])
        assert _temporal_occurrence(st, ("A", "B"), 3600.0) is None


class TestRepresentative:
    def test_medoid_selection(self):
        group = [
            StayPoint(0.0, 0.0, 0.0, frozenset({"X"})),
            StayPoint(0.001, 0.0, 10.0, frozenset({"Y"})),
            StayPoint(0.0005, 0.0, 20.0, frozenset({"Z"})),
        ]
        xy = np.array([[0.0, 0.0], [100.0, 0.0], [50.0, 0.0]])
        rep = representative_stay_point(group, xy)
        assert rep.semantics == {"Z"}  # medoid is the middle point
        assert rep.t == pytest.approx(10.0)
