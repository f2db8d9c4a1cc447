"""Unit tests for the POI taxonomy (Table 3)."""

import pytest

from repro.data.categories import (
    CATEGORY_TABLE,
    MAJOR_CATEGORIES,
    MINOR_CATEGORIES,
    category_distribution,
)


class TestTaxonomyShape:
    def test_fifteen_major_categories(self):
        assert len(MAJOR_CATEGORIES) == 15

    def test_ninety_eight_minor_categories(self):
        assert sum(len(v) for v in MINOR_CATEGORIES.values()) == 98

    def test_minor_names_unique(self):
        all_minors = [m for v in MINOR_CATEGORIES.values() for m in v]
        assert len(all_minors) == len(set(all_minors))

    def test_every_major_has_minors(self):
        for major in MAJOR_CATEGORIES:
            assert MINOR_CATEGORIES[major], major

    def test_table3_counts_descending(self):
        counts = [c for c, _p in CATEGORY_TABLE.values()]
        assert counts == sorted(counts, reverse=True)

    def test_table3_percentages_match_counts(self):
        total = sum(c for c, _p in CATEGORY_TABLE.values())
        for name, (count, pct) in CATEGORY_TABLE.items():
            assert count / total * 100 == pytest.approx(pct, abs=0.25), name

    def test_table3_residence_is_top(self):
        assert MAJOR_CATEGORIES[0] == "Residence"
        assert CATEGORY_TABLE["Residence"][0] == 218_327


class TestLookups:
    def test_distribution_sums_to_one(self):
        dist = category_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
        assert set(dist) == set(MAJOR_CATEGORIES)

    def test_distribution_ordering(self):
        dist = category_distribution()
        assert dist["Residence"] > dist["Tourism"]
