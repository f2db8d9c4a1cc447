"""Tests for the ablation harness."""

import dataclasses

import pytest

from repro.core.config import MiningConfig
from repro.eval.ablation import (
    VARIANTS,
    NearestPOIRecognizer,
    build_csd_ablated,
    run_ablation,
)
from repro.eval.experiments import make_workload


@pytest.fixture(scope="module")
def ablation_workload():
    return make_workload(
        n_pois=2_500, n_passengers=60, days=5, extent_m=3_000.0, seed=2
    )


@pytest.fixture(scope="module")
def ablation_results(ablation_workload):
    return run_ablation(
        ablation_workload, MiningConfig(support=8, rho=0.0005)
    )


class TestBuildAblated:
    def test_full_matches_standard_constructor(self, ablation_workload):
        from repro.core.constructor import build_csd

        stays = [
            sp for st in ablation_workload.trajectories
            for sp in st.stay_points
        ]
        for level in ("major", "minor"):
            config = dataclasses.replace(
                ablation_workload.csd_config, semantic_level=level
            )
            standard = build_csd(
                ablation_workload.pois, stays,
                config, ablation_workload.projection,
            )
            ablated = build_csd_ablated(
                ablation_workload.pois, stays,
                config, ablation_workload.projection,
            )
            assert ablated.tag_level == standard.tag_level == level
            assert ablated.n_units == standard.n_units
            assert list(ablated.unit_of) == list(standard.unit_of)
            assert [u.semantic_distribution for u in ablated.units] == [
                u.semantic_distribution for u in standard.units
            ]

    def test_no_merging_assigns_fewer(self, ablation_workload):
        stays = [
            sp for st in ablation_workload.trajectories
            for sp in st.stay_points
        ]
        full = build_csd_ablated(
            ablation_workload.pois, stays,
            ablation_workload.csd_config, ablation_workload.projection,
        )
        no_merge = build_csd_ablated(
            ablation_workload.pois, stays,
            ablation_workload.csd_config, ablation_workload.projection,
            with_merging=False,
        )
        assert no_merge.assigned_fraction() <= full.assigned_fraction()


class TestRunAblation:
    def test_all_variants_present(self, ablation_results):
        assert set(ablation_results) == set(VARIANTS)

    def test_full_variant_is_accurate(self, ablation_results):
        full = ablation_results["full"]
        assert full.recognition_accuracy > 0.9
        assert full.n_patterns > 0

    def test_purity_high_with_and_without_purification(self, ablation_results):
        """On this geometry multi-purpose stacks qualify via V_min, so
        purification rarely splits; both variants must stay near-pure
        (the splitting behaviour itself is covered by
        tests/test_purification.py on spread mixed clusters)."""
        assert ablation_results["full"].unit_purity > 0.8
        assert ablation_results["no-purification"].unit_purity > 0.8

    def test_merging_protects_rate(self, ablation_results):
        assert (
            ablation_results["full"].recognition_rate
            >= ablation_results["no-merging"].recognition_rate
        )

    def test_unknown_variant_rejected(self, ablation_workload):
        with pytest.raises(ValueError):
            run_ablation(ablation_workload, variants=("full", "bogus"))


class TestNearestPOIRecognizer:
    def test_labels_nearest(self, ablation_workload):
        stays = [
            sp for st in ablation_workload.trajectories
            for sp in st.stay_points
        ]
        csd = build_csd_ablated(
            ablation_workload.pois, stays,
            ablation_workload.csd_config, ablation_workload.projection,
        )
        recognizer = NearestPOIRecognizer(
            csd, ablation_workload.csd_config.r3sigma_m
        )
        out = recognizer.recognize(ablation_workload.trajectories[:5])
        assert len(out) == 5
        labeled = sum(1 for st in out for sp in st if sp.semantics)
        assert labeled > 0
