"""Tests for incremental CSD maintenance."""

import random

import pytest

from repro.core.config import CSDConfig
from repro.core.constructor import build_csd, semantic_units
from repro.core.csd import UNASSIGNED, CitySemanticDiagram
from repro.core.incremental import IncrementalCSD
from repro.core.merging import cosine_similarity, unit_distributions
from repro.data.persistence import load_csd, save_csd
from repro.data.poi import POI
from repro.data.trajectory import StayPoint
from tests.conftest import diagram_key


def diagram_oracle(updater):
    """The full rebuild ``IncrementalCSD.diagram`` replaced: every
    unit's record from its members, with one ``semantic_units`` call."""
    popularity = updater._popularity.copy()
    xy_all = updater._xy.copy()
    return CitySemanticDiagram(
        pois=list(updater._pois),
        projection=updater.base.projection,
        poi_xy=xy_all,
        popularity=popularity,
        units=semantic_units(
            updater._members, xy_all, updater._tags, popularity
        ),
        unit_of=updater._unit_of.copy(),
        tag_level=updater.base.tag_level,
    )


class PlacementOracle(IncrementalCSD):
    """Places each POI on distributions recomputed from the members, as
    the updater did before it kept unit records."""

    def _find_compatible_unit(self, candidates, tag):
        for _d2, unit_id in candidates:
            distribution = unit_distributions(
                [self._members[unit_id]], self._tags, self._popularity
            )[0]
            if cosine_similarity({tag: 1.0}, distribution) >= self.merge_cos:
                return unit_id
        return UNASSIGNED


def unit_key(units):
    """Every field of every unit, distribution items in their order."""
    return [
        (
            u.unit_id,
            list(u.poi_indices),
            tuple(u.centroid_xy),
            list(u.semantic_distribution.items()),
        )
        for u in units
    ]


def fresh_units(csd):
    """The units a ``semantic_units`` call over ``csd``'s own
    membership lists gives."""
    return semantic_units(
        [u.poi_indices for u in csd.units],
        csd.poi_xy,
        csd.poi_tags(),
        csd.popularity,
    )


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


N_BASE = 2_400


@pytest.fixture(scope="module", params=["major", "minor"])
def stream_setup(request, small_pois, small_trajectories, small_city):
    """A diagram over the first POIs at one tag level, and the rest of
    the POIs to stream on top of it."""
    stays = [sp for st in small_trajectories for sp in st.stay_points]
    config = CSDConfig(alpha=0.7, semantic_level=request.param)
    base = build_csd(
        small_pois[:N_BASE], stays, config, small_city.projection
    )
    return base, config, list(small_pois[N_BASE:])


def stream_batches(pois, seed):
    """The held-out POIs, a fifth of them jittered by up to ~20 m and a
    tenth given another POI's tags (so some stay pending), in seeded
    random batches of 1-60."""
    rng = random.Random(seed)
    moved = []
    for k, p in enumerate(pois):
        lon, lat, major, minor = p.lon, p.lat, p.major, p.minor
        if rng.random() < 0.2:
            lon += rng.uniform(-2e-4, 2e-4)
            lat += rng.uniform(-2e-4, 2e-4)
        if rng.random() < 0.1:
            other = rng.choice(pois)
            major, minor = other.major, other.minor
        moved.append(POI(10**6 + k, lon, lat, major, minor, p.name))
    batches = []
    while moved:
        size = rng.randint(1, 60)
        batches.append(moved[:size])
        moved = moved[size:]
    return batches


class TestUnitRecords:
    """``diagram()`` rebuilds only the units whose membership changed;
    every diagram must equal the full rebuild."""

    def test_base_units_equal_a_fresh_recomputation(
        self, stream_setup, tmp_path
    ):
        """Seeding the records from ``base.units`` is exact for a built
        diagram and for a saved and reloaded one."""
        base, _config, _rest = stream_setup
        assert unit_key(base.units) == unit_key(fresh_units(base))
        save_csd(tmp_path / "csd.json", base)
        loaded = load_csd(tmp_path / "csd.json")
        assert unit_key(loaded.units) == unit_key(base.units)
        assert unit_key(loaded.units) == unit_key(fresh_units(loaded))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_diagram_equals_the_full_rebuild(
        self, stream_setup, seed, tmp_path
    ):
        """Random batches with repairs interleaved and one resume from a
        saved diagram: placements and repairs match an updater that
        recomputes every distribution, and every diagram matches the
        full rebuild field by field."""
        base, config, rest = stream_setup
        rng = random.Random(100 + seed)
        batches = stream_batches(rest, seed)
        resume_at = len(batches) // 2
        updater = IncrementalCSD(
            base, config.merge_radius_m, config.merge_cos
        )
        oracle = PlacementOracle(
            base, config.merge_radius_m, config.merge_cos
        )
        taken = []
        repairs = 0
        for step, batch in enumerate(batches):
            if step == resume_at:
                # Resume from the saved diagram as the stream runner
                # does; the reloaded records must carry on exactly.
                path = tmp_path / "csd.json"
                save_csd(path, updater.diagram())
                resumed = IncrementalCSD(
                    load_csd(path), config.merge_radius_m, config.merge_cos
                )
                resumed.restore_online_state(
                    updater.pending_indices(),
                    updater.dirty_units(),
                    updater.n_added,
                )
                assert diagram_key(resumed.diagram()) == diagram_key(
                    updater.diagram()
                )
                updater = resumed
            assert updater.add_pois(batch) == oracle.add_pois(batch)
            if rng.random() < 0.4 and updater.dirty_units():
                report = updater.repair(config.v_min_m2, config.r3sigma_m)
                assert report == oracle.repair(
                    config.v_min_m2, config.r3sigma_m
                )
                repairs += report.repaired
            diagram = updater.diagram()
            want = diagram_oracle(oracle)
            assert unit_key(diagram.units) == unit_key(want.units)
            assert diagram_key(diagram) == diagram_key(want)
            taken.append((diagram, unit_key(diagram.units)))
        assert repairs >= 3 and len(batches) >= 8
        # Later add_pois and repair calls never touch a diagram already
        # handed out, although successive diagrams share unit records.
        for diagram, key in taken:
            assert unit_key(diagram.units) == key
