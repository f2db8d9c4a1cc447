"""Unit tests for the six-approach registry."""

import pytest

from repro.baselines.registry import (
    APPROACHES,
    Approach,
    approach_by_name,
    recognize_for,
    run_approach,
)
from repro.core.config import MiningConfig


class TestRegistry:
    def test_six_approaches(self):
        assert len(APPROACHES) == 6
        names = {a.name for a in APPROACHES}
        assert names == {
            "CSD-PM", "CSD-Splitter", "CSD-SDBSCAN",
            "ROI-PM", "ROI-Splitter", "ROI-SDBSCAN",
        }

    def test_lookup_by_name(self):
        a = approach_by_name("ROI-Splitter")
        assert a.recognizer == "ROI" and a.extractor == "Splitter"

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            approach_by_name("CSD-Magic")
        with pytest.raises(KeyError):
            approach_by_name("XYZ-PM")

    def test_lookup_extra_extractor(self):
        a = approach_by_name("CSD-TPattern")
        assert a.extractor == "TPattern"
        assert a.name == "CSD-TPattern"

    def test_unknown_recognizer_raises(self, small_pois, small_trajectories):
        with pytest.raises(KeyError):
            recognize_for("XYZ", small_pois, small_trajectories[:5])


class TestRunApproach:
    @pytest.mark.parametrize("extractor", ["PM", "Splitter", "SDBSCAN"])
    def test_csd_approaches_run(
        self, extractor, small_pois, small_trajectories, small_csd,
        small_csd_config, small_mining_config,
    ):
        patterns = run_approach(
            Approach("CSD", extractor),
            small_pois,
            small_trajectories,
            small_csd_config,
            small_mining_config,
            csd=small_csd,
        )
        assert isinstance(patterns, list)
        for p in patterns:
            assert p.support >= small_mining_config.support
            assert len(p.representatives) == len(p.items)

    def test_roi_approach_runs(
        self, small_pois, small_trajectories, small_mining_config
    ):
        patterns = run_approach(
            Approach("ROI", "PM"),
            small_pois,
            small_trajectories,
            mining_config=small_mining_config,
        )
        assert isinstance(patterns, list)
