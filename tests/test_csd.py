"""Unit tests for the CitySemanticDiagram structure."""

import numpy as np
import pytest

from repro.core.csd import CitySemanticDiagram, SemanticUnit, UNASSIGNED, project_pois
from repro.data.poi import POI
from repro.geo.projection import LocalProjection


def tiny_csd():
    pois = [
        POI(0, 121.470, 31.230, "Restaurant", "Cafe"),
        POI(1, 121.4701, 31.230, "Restaurant", "Cafe"),
        POI(2, 121.480, 31.230, "Sports", "Gym"),
    ]
    projection, xy = project_pois(pois)
    popularity = np.array([2.0, 1.0, 0.5])
    units = [
        SemanticUnit(0, [0, 1], (0.0, 0.0), {"Restaurant": 1.0}),
    ]
    unit_of = np.array([0, 0, UNASSIGNED])
    return CitySemanticDiagram(pois, projection, xy, popularity, units, unit_of)


class TestStructure:
    def test_counts(self):
        csd = tiny_csd()
        assert csd.n_pois == 3
        assert csd.n_units == 1
        assert csd.assigned_fraction() == pytest.approx(2 / 3)

    def test_find_semantic_unit(self):
        csd = tiny_csd()
        assert csd.find_semantic_unit(0) == 0
        assert csd.find_semantic_unit(2) == UNASSIGNED

    def test_range_query(self):
        csd = tiny_csd()
        x, y = csd.projection.to_meters(121.470, 31.230)
        hits = csd.range_query(x, y, 50.0)
        assert list(hits) == [0, 1]

    def test_misaligned_arrays_rejected(self):
        csd = tiny_csd()
        with pytest.raises(ValueError):
            CitySemanticDiagram(
                csd.pois, csd.projection, csd.poi_xy[:2],
                csd.popularity, csd.units, csd.unit_of,
            )

    def test_describe_keys(self):
        stats = tiny_csd().describe()
        assert stats["n_units"] == 1.0
        assert stats["single_semantic_fraction"] == 1.0
        assert 0 < stats["assigned_fraction"] < 1


class TestSemanticUnit:
    def test_tags_and_dominant(self):
        unit = SemanticUnit(0, [0], (0, 0), {"A": 0.3, "B": 0.7})
        assert unit.tags == {"A", "B"}
        assert unit.dominant_tag() == "B"

    def test_dominant_tag_tie_breaks_lexicographic(self):
        unit = SemanticUnit(0, [0], (0, 0), {"B": 0.5, "A": 0.5})
        assert unit.dominant_tag() == "A"

    def test_dominant_tag_empty_raises(self):
        unit = SemanticUnit(0, [0], (0, 0), {})
        with pytest.raises(ValueError):
            unit.dominant_tag()

    def test_unit_stats_on_real_csd(self, small_csd):
        sizes = small_csd.unit_sizes()
        assert len(sizes) == small_csd.n_units
        assert np.all(sizes >= 1)
