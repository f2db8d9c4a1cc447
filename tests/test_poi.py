"""Unit tests for POI generation."""

from collections import Counter

import numpy as np
import pytest

from repro.data.categories import (
    MAJOR_CATEGORIES,
    MINOR_CATEGORIES,
    category_distribution,
)
from repro.data.city import CityModel
from repro.data.poi import POI, POIGenerator, poi_lonlat_array


class TestPOIDataclass:
    def test_semantics_is_major_singleton(self):
        poi = POI(0, 121.47, 31.23, "Restaurant", "Cafe")
        assert poi.semantics == frozenset({"Restaurant"})

    def test_lonlat(self):
        poi = POI(0, 121.0, 31.0, "Sports", "Gym")
        assert poi.lonlat() == (121.0, 31.0)

    def test_lonlat_array(self):
        pois = [POI(i, 121.0 + i, 31.0, "Sports", "Gym") for i in range(3)]
        arr = poi_lonlat_array(pois)
        assert arr.shape == (3, 2)
        assert arr[2, 0] == pytest.approx(123.0)


class TestGenerator:
    def test_count_includes_skyscrapers(self, small_city, small_pois):
        expected_towers = len(small_city.skyscrapers) * 12
        assert len(small_pois) == 3_000 + expected_towers

    def test_category_mix_tracks_table3(self, small_pois):
        counts = Counter(p.major for p in small_pois)
        dist = category_distribution()
        total = len(small_pois)
        for category in ("Residence", "Shop & Market", "Restaurant"):
            observed = counts[category] / total
            assert observed == pytest.approx(dist[category], abs=0.05)

    def test_minor_consistent_with_major(self, small_pois):
        for poi in small_pois[:500]:
            assert poi.minor in MINOR_CATEGORIES[poi.major]

    def test_unique_ids(self, small_pois):
        ids = [p.poi_id for p in small_pois]
        assert len(ids) == len(set(ids))

    def test_deterministic(self, small_city):
        a = POIGenerator(small_city, seed=5).generate(200)
        b = POIGenerator(small_city, seed=5).generate(200)
        assert [(p.lon, p.lat, p.major) for p in a] == [
            (p.lon, p.lat, p.major) for p in b
        ]

    def test_within_city_bounds(self, small_city, small_pois):
        proj = small_city.projection
        half = small_city.extent_m / 2
        xy = proj.to_meters_array(poi_lonlat_array(small_pois))
        margin = 50.0  # skyscraper jitter can poke slightly out
        assert np.all(np.abs(xy) <= half + margin)

    def test_rejects_negative_count(self, small_city):
        with pytest.raises(ValueError):
            POIGenerator(small_city).generate(-1)

    def test_rejects_bad_fractions(self, small_city):
        with pytest.raises(ValueError):
            POIGenerator(small_city, stray_fraction=1.5)
        with pytest.raises(ValueError):
            POIGenerator(small_city, mixing_fraction=-0.1)

    def test_custom_category_mix(self, small_city):
        gen = POIGenerator(small_city, seed=1)
        pois = gen.generate(300, category_mix={"Sports": 1.0})
        zoned = [p for p in pois if not p.name.startswith("tower")]
        assert {p.major for p in zoned} == {"Sports"}

    def test_unknown_category_mix_rejected(self, small_city):
        with pytest.raises(ValueError):
            POIGenerator(small_city).generate(10, category_mix={"Nope": 1.0})

    def test_zero_weight_mix_rejected(self, small_city):
        with pytest.raises(ValueError):
            POIGenerator(small_city).generate(
                10, category_mix={"Sports": 0.0}
            )

    def test_skyscraper_pois_tight_and_mixed(self, small_city, small_pois):
        proj = small_city.projection
        for tower in small_city.skyscrapers[:3]:
            members = [
                p for p in small_pois
                if p.name.startswith(f"tower{tower.tower_id}-")
            ]
            assert len(members) == 12
            assert len({p.major for p in members}) >= 3
            xy = proj.to_meters_array(poi_lonlat_array(members))
            d = np.sqrt((xy[:, 0] - tower.x) ** 2 + (xy[:, 1] - tower.y) ** 2)
            assert d.max() < 25.0  # within the d_v scale of Algorithm 1
