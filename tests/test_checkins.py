"""Unit tests for the biased check-in simulator (Table 1)."""

import math

import pytest

from repro.data.checkins import (
    NEW_YORK,
    PROFILES,
    TOKYO,
    CheckinSimulator,
)


def expected_observed(profile):
    """Expected check-in ratio per topic: share-weighted activity."""
    raw = {t: w * s for t, (w, s) in profile.topics.items()}
    total = sum(raw.values())
    return {t: v / total for t, v in raw.items()}


class TestProfiles:
    def test_profiles_registered(self):
        assert set(PROFILES) == {"New York", "Tokyo"}

    def test_activity_mix_normalised(self):
        for profile in PROFILES.values():
            assert sum(profile.activity_mix().values()) == pytest.approx(1.0)

    def test_expected_observed_matches_table1(self):
        expected = expected_observed(NEW_YORK)
        assert expected["Bar"] == pytest.approx(0.0703, abs=1e-4)
        assert expected["Home (private)"] == pytest.approx(0.068, abs=1e-4)
        tokyo = expected_observed(TOKYO)
        assert tokyo["Train Station"] == pytest.approx(0.3493, abs=1e-4)

    def test_private_topics_suppressed_in_expectation(self):
        mix = NEW_YORK.activity_mix()
        observed = expected_observed(NEW_YORK)
        # Hospital visits are much more common in truth than in check-ins.
        assert mix["Hospital"] > observed["Hospital"]


class TestSimulation:
    def test_observed_close_to_expected(self):
        study = CheckinSimulator(NEW_YORK, seed=1).run(200_000)
        expected = expected_observed(NEW_YORK)
        for topic in ("Bar", "Office", "Subway"):
            assert study.observed_ratio[topic] == pytest.approx(
                expected[topic], abs=0.005
            )

    def test_top_topics_match_table1_order(self):
        study = CheckinSimulator(NEW_YORK, seed=2).run(400_000)
        top = [t for t, _r in study.top_topics(3)]
        assert top == ["Bar", "Home (private)", "Office"]

    def test_tokyo_top_topic_is_train_station(self):
        study = CheckinSimulator(TOKYO, seed=3).run(100_000)
        assert study.top_topics(1)[0][0] == "Train Station"

    def test_other_excluded_from_ranking(self):
        study = CheckinSimulator(NEW_YORK, seed=4).run(50_000)
        assert "Other" not in [t for t, _r in study.top_topics(15)]

    def test_private_topics_not_in_top10(self):
        study = CheckinSimulator(NEW_YORK, seed=5).run(100_000)
        top10 = {t for t, _r in study.top_topics(10)}
        assert "Hospital" not in top10
        assert "Drug Store" not in top10

    def test_bias_under_one_for_private(self):
        study = CheckinSimulator(NEW_YORK, seed=6).run(100_000)
        assert study.bias_of("Hospital") < 0.2
        assert study.bias_of("Bar") > 1.0  # over-represented

    def test_bias_of_unknown_topic_is_nan(self):
        study = CheckinSimulator(NEW_YORK, seed=7).run(1_000)
        assert math.isnan(study.bias_of("Nonexistent"))

    def test_rejects_nonpositive_activities(self):
        with pytest.raises(ValueError):
            CheckinSimulator(NEW_YORK).run(0)

    def test_deterministic(self):
        a = CheckinSimulator(TOKYO, seed=11).run(10_000)
        b = CheckinSimulator(TOKYO, seed=11).run(10_000)
        assert a.observed_ratio == b.observed_ratio
