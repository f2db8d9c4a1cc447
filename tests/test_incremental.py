"""Tests for incremental CSD maintenance."""

import pytest

from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.core.csd import UNASSIGNED
from repro.core.incremental import IncrementalCSD
from repro.data.poi import POI
from repro.data.trajectory import StayPoint


def cluster(lon0, major, minor, count, start_id):
    return [
        POI(start_id + i, lon0 + i * 1e-5, 31.23, major, minor)
        for i in range(count)
    ]


@pytest.fixture()
def base_csd():
    pois = (
        cluster(121.4700, "Restaurant", "Cafe", 6, 0)
        + cluster(121.4760, "Sports", "Gym", 6, 6)
    )
    stays = [StayPoint(121.4700, 31.23, float(i)) for i in range(8)]
    stays += [StayPoint(121.4760, 31.23, float(i)) for i in range(8)]
    return build_csd(pois, stays, CSDConfig(min_pts=3))


class TestOnlineInsertion:
    def test_compatible_poi_joins_nearest_unit(self, base_csd):
        updater = IncrementalCSD(base_csd)
        new = POI(100, 121.47002, 31.23, "Restaurant", "Bakery")
        unit_id = updater.add_poi(new)
        assert unit_id != UNASSIGNED
        assert unit_id == base_csd.find_semantic_unit(0)
        assert updater.n_pending == 0

    def test_incompatible_tag_stays_pending(self, base_csd):
        updater = IncrementalCSD(base_csd)
        new = POI(100, 121.47002, 31.23, "Industry", "Factory")
        assert updater.add_poi(new) == UNASSIGNED
        assert updater.n_pending == 1

    def test_isolated_poi_stays_pending(self, base_csd):
        updater = IncrementalCSD(base_csd)
        new = POI(100, 121.60, 31.40, "Restaurant", "Cafe")
        assert updater.add_poi(new) == UNASSIGNED

    def test_chained_insertions_extend_reach(self, base_csd):
        """A second POI can join through the first absorbed one."""
        updater = IncrementalCSD(base_csd, merge_radius_m=30.0)
        first = POI(100, 121.47008, 31.23, "Restaurant", "Cafe")
        second = POI(101, 121.47030, 31.23, "Restaurant", "Cafe")
        uid1 = updater.add_poi(first)
        uid2 = updater.add_poi(second)
        assert uid1 != UNASSIGNED
        assert uid2 == uid1
        # One batch: the second POI still reaches the unit through the
        # first, which was placed earlier in the same call.
        batched = IncrementalCSD(base_csd, merge_radius_m=30.0)
        assert batched.add_pois([first, second]) == [uid1, uid2]

    def test_batch_insertion(self, base_csd):
        updater = IncrementalCSD(base_csd)
        news = [
            POI(100, 121.47003, 31.23, "Restaurant", "Cafe"),
            POI(101, 121.60, 31.40, "Restaurant", "Cafe"),
        ]
        ids = updater.add_pois(news)
        assert len(ids) == 2 and ids[1] == UNASSIGNED
        assert updater.n_added == 2

    def test_rejects_bad_thresholds(self, base_csd):
        with pytest.raises(ValueError):
            IncrementalCSD(base_csd, merge_radius_m=0.0)
        with pytest.raises(ValueError):
            IncrementalCSD(base_csd, merge_cos=1.5)


class TestStalenessAndViews:
    def test_staleness_tracks_pending(self, base_csd):
        updater = IncrementalCSD(base_csd)
        updater.add_poi(POI(100, 121.60, 31.40, "Industry", "Factory"))
        assert updater.staleness() > 0.0
        assert not updater.needs_rebuild(threshold=0.5)
        for i in range(12):
            updater.add_poi(
                POI(101 + i, 121.60 + i * 0.001, 31.40, "Industry", "Factory")
            )
        assert updater.needs_rebuild(threshold=0.5)

    def test_diagram_view_includes_absorbed_poi(self, base_csd):
        updater = IncrementalCSD(base_csd)
        new = POI(100, 121.47002, 31.23, "Restaurant", "Bakery")
        unit_id = updater.add_poi(new)
        updated = updater.diagram()
        assert updated.n_pois == base_csd.n_pois + 1
        assert updated.find_semantic_unit(updated.n_pois - 1) == unit_id
        member_count = len(updated.unit(unit_id))
        assert member_count == len(base_csd.unit(unit_id)) + 1

    def test_base_diagram_untouched(self, base_csd):
        n_before = base_csd.n_pois
        unit_sizes = [len(u) for u in base_csd.units]
        updater = IncrementalCSD(base_csd)
        updater.add_poi(POI(100, 121.47002, 31.23, "Restaurant", "Cafe"))
        assert base_csd.n_pois == n_before
        assert [len(u) for u in base_csd.units] == unit_sizes

    def test_recognition_uses_updated_diagram(self, base_csd):
        """An absorbed POI immediately contributes to recognition."""
        from repro.core.recognition import CSDRecognizer

        updater = IncrementalCSD(base_csd)
        updater.add_poi(POI(100, 121.47002, 31.23, "Restaurant", "Cafe"))
        recognizer = CSDRecognizer(updater.diagram(), 100.0)
        tags = recognizer.recognize_point(StayPoint(121.47002, 31.23, 0.0))
        assert tags == {"Restaurant"}


class TestBufferGrowth:
    def test_views_track_buffer_growth(self, base_csd):
        updater = IncrementalCSD(base_csd)
        n0 = base_csd.n_pois
        for i in range(50):
            updater.add_poi(POI(1000 + i, 121.6 + i * 0.002, 31.4,
                                "Industry", "Factory"))
        xy, popularity, unit_of = updater.array_state()
        assert xy.shape == (n0 + 50, 2)
        assert popularity.shape == (n0 + 50,)
        assert unit_of.shape == (n0 + 50,)


class TestDeterministicAssignment:
    def test_equidistant_candidates_break_tie_on_unit_id(self):
        """A POI exactly midway between two same-tag units sees both at
        bit-identical d2 and joins the one with the smaller unit id."""
        import numpy as np

        mid, delta = 121.4730, 0.00390625  # 2^-8: offsets stay exact
        a = [POI(i, mid - delta - i * 1e-5, 31.23, "Restaurant", "Cafe")
             for i in range(6)]
        b = [POI(6 + i, mid + delta + i * 1e-5, 31.23, "Restaurant", "Cafe")
             for i in range(6)]
        stays = [StayPoint(mid - delta, 31.23, float(i)) for i in range(8)]
        stays += [StayPoint(mid + delta, 31.23, float(i)) for i in range(8)]
        csd = build_csd(a + b, stays, CSDConfig(min_pts=3))
        assert len(csd.units) == 2
        updater = IncrementalCSD(csd, merge_radius_m=500.0)
        unit_id = updater.add_poi(POI(99, mid, 31.23, "Restaurant", "Cafe"))
        assert unit_id == 0
        assert updater.dirty_units() == [0, 1]
        candidates = updater._candidate_units(
            csd.n_pois, np.arange(csd.n_pois)
        )
        assert len(candidates) == 2
        (d2_a, uid_a), (d2_b, uid_b) = candidates
        assert d2_a == d2_b  # exact tie by construction
        assert uid_a < uid_b

    def test_assignment_invariant_under_insertion_order(self, base_csd):
        """Well-separated inserts (no chaining possible) must land in
        the same units whatever order the batch arrives in."""
        import random

        pois = (
            [POI(200 + i, 121.47001 + i * 1e-5, 31.23,
                 "Restaurant", "Cafe") for i in range(4)]
            + [POI(300 + i, 121.47601 + i * 1e-5, 31.23,
                   "Sports", "Gym") for i in range(4)]
        )
        rng = random.Random(7)
        assignments = []
        for _ in range(4):
            order = list(pois)
            rng.shuffle(order)
            updater = IncrementalCSD(base_csd)
            by_poi = {p.poi_id: updater.add_poi(p) for p in order}
            assignments.append(by_poi)
        assert all(a == assignments[0] for a in assignments[1:])
        assert all(uid != UNASSIGNED for uid in assignments[0].values())


class TestArrayStateAndRestore:
    def test_array_state_dtypes_stay_pinned(self, base_csd):
        import numpy as np

        updater = IncrementalCSD(base_csd)
        updater.add_pois(
            [POI(1000 + i, 121.6 + i * 0.002, 31.4, "Industry", "Factory")
             for i in range(20)]
        )
        xy, popularity, unit_of = updater.array_state()
        assert xy.dtype == np.float64
        assert popularity.dtype == np.float64
        assert unit_of.dtype == np.int64

    def test_restore_roundtrip(self, base_csd):
        """Pending/dirty bookkeeping survives a save/rehydrate cycle."""
        updater = IncrementalCSD(base_csd)
        updater.add_pois(
            [POI(1000 + i, 121.6 + i * 0.002, 31.4, "Industry", "Factory")
             for i in range(5)]
            + [POI(2000, 121.47002, 31.23, "Restaurant", "Bakery")]
        )
        pending = updater.pending_indices()
        dirty = updater.dirty_units()
        assert pending and dirty
        fresh = IncrementalCSD(updater.diagram())
        fresh.restore_online_state(pending, dirty, n_added=updater.n_added)
        assert fresh.pending_indices() == pending
        assert fresh.dirty_units() == dirty
        assert fresh.staleness() == pytest.approx(updater.staleness())

    def test_restore_rejects_stale_state(self, base_csd):
        updater = IncrementalCSD(base_csd)
        with pytest.raises(ValueError, match="out of range"):
            updater.restore_online_state([base_csd.n_pois + 5], [])
        with pytest.raises(ValueError, match="stale"):
            updater.restore_online_state([0], [])  # index 0 is assigned
        with pytest.raises(ValueError, match="out of range"):
            updater.restore_online_state([], [999])
