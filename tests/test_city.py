"""Unit tests for the synthetic city model."""

import numpy as np
import pytest

from repro.data.categories import MAJOR_CATEGORIES
from repro.data.city import CityModel


class TestGeneration:
    def test_block_grid_size(self, small_city):
        n_side = int(small_city.extent_m // small_city.block_size_m)
        assert len(small_city.blocks) == n_side * n_side

    def test_every_category_has_a_block(self, small_city):
        for category in MAJOR_CATEGORIES:
            assert small_city.blocks_of(category), category

    def test_special_venues_exist(self, small_city):
        venues = small_city.venues
        assert set(venues) == {
            "airport", "railway_station", "childrens_hospital", "university"
        }
        assert venues["airport"].category == "Traffic Stations"
        assert venues["childrens_hospital"].category == "Medical Service"

    def test_venue_lookup_unknown_raises(self, small_city):
        with pytest.raises(KeyError):
            small_city.venue_block("moon_base")

    def test_deterministic(self):
        a = CityModel.generate(extent_m=2000, seed=42)
        b = CityModel.generate(extent_m=2000, seed=42)
        assert [blk.category for blk in a.blocks] == [
            blk.category for blk in b.blocks
        ]

    def test_different_seeds_differ(self):
        a = CityModel.generate(extent_m=4000, seed=1)
        b = CityModel.generate(extent_m=4000, seed=2)
        assert [blk.category for blk in a.blocks] != [
            blk.category for blk in b.blocks
        ]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CityModel.generate(extent_m=-1)
        with pytest.raises(ValueError):
            CityModel.generate(block_size_m=20, road_width_m=30)

    def test_skyscrapers_central_and_mixed(self, small_city):
        half = small_city.extent_m / 2
        for tower in small_city.skyscrapers:
            ring = max(abs(tower.x), abs(tower.y)) / half
            assert ring < 0.45
            assert len(set(tower.categories)) >= 3


class TestBlockGeometry:
    def test_block_contains_its_centre(self, small_city):
        block = small_city.blocks[0]
        assert block.contains(block.cx, block.cy)
        assert not block.contains(block.cx + 2 * block.half, block.cy)

    def test_sample_point_inside(self, small_city):
        rng = np.random.default_rng(0)
        block = small_city.blocks[3]
        for _ in range(50):
            x, y = block.sample_point(rng)
            assert block.contains(x, y)


class TestPlazas:
    def test_plazas_deterministic_and_cached(self, small_city):
        block = small_city.blocks[7]
        p1 = small_city.plazas(block)
        p2 = small_city.plazas(block)
        assert p1 is p2
        assert p1.shape == (small_city.plazas_per_block, 2)

    def test_plazas_inside_block(self, small_city):
        for block in small_city.blocks[:20]:
            for x, y in small_city.plazas(block):
                assert block.contains(x, y)
