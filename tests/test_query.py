"""Tests for pattern matching and next-stop prediction."""

import pytest

from repro.core.query import PatternMatcher
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.geo.projection import LocalProjection

from tests.test_patterns import DEG_PER_M, make_pattern

PROJ = LocalProjection(0.0, 0.0)


def observed(stops):
    """stops: list of (east_m, tags)."""
    return SemanticTrajectory(
        0,
        [
            StayPoint(x * DEG_PER_M, 0.0, 100.0 * i, frozenset(tags))
            for i, (x, tags) in enumerate(stops)
        ],
    )


@pytest.fixture()
def matcher():
    patterns = [
        make_pattern(["Office", "Shop", "Home"], [0, 2000, 5000], support=30),
        make_pattern(["Office", "Home"], [0, 5000], support=50),
        make_pattern(["Office", "Bar"], [0, 3000], support=20),
        make_pattern(["Gym", "Home"], [8000, 5000], support=10),
    ]
    return PatternMatcher(patterns, PROJ, radius_m=150.0)


class TestMatching:
    def test_prefix_match(self, matcher):
        matches = matcher.match(observed([(0, {"Office"})]))
        routes = {m.pattern.items for m in matches}
        assert routes == {
            ("Office", "Shop", "Home"), ("Office", "Home"), ("Office", "Bar")
        }

    def test_spatial_mismatch_rejected(self, matcher):
        matches = matcher.match(observed([(20_000, {"Office"})]))
        assert matches == []

    def test_semantic_mismatch_rejected(self, matcher):
        matches = matcher.match(observed([(0, {"Residence"})]))
        assert matches == []

    def test_unrecognised_stop_matches_spatially(self, matcher):
        matches = matcher.match(observed([(0, set())]))
        assert len(matches) == 3

    def test_two_stop_prefix(self, matcher):
        matches = matcher.match(
            observed([(0, {"Office"}), (2000, {"Shop"})])
        )
        assert [m.pattern.items for m in matches] == [
            ("Office", "Shop", "Home")
        ]

    def test_complete_match_flag(self, matcher):
        matches = matcher.match(
            observed([(0, {"Office"}), (5000, {"Home"})])
        )
        complete = [m for m in matches if m.is_complete]
        assert len(complete) == 1
        assert complete[0].pattern.items == ("Office", "Home")

    def test_empty_observation(self, matcher):
        assert matcher.match(SemanticTrajectory(0, [])) == []

    def test_matches_sorted_by_support(self, matcher):
        matches = matcher.match(observed([(0, {"Office"})]))
        supports = [m.pattern.support for m in matches]
        assert supports == sorted(supports, reverse=True)


class TestPrediction:
    def test_forecast_aggregates_support(self, matcher):
        forecasts = matcher.predict_next(observed([(0, {"Office"})]))
        assert forecasts[0].item == "Home"      # support 50
        assert forecasts[0].support == 50
        assert forecasts[1].item == "Shop"      # support 30
        assert forecasts[2].item == "Bar"       # support 20
        assert sum(f.confidence for f in forecasts) == pytest.approx(1.0)

    def test_same_destination_merges(self):
        patterns = [
            make_pattern(["Office", "Home"], [0, 5000], support=30),
            make_pattern(["Office", "Home"], [0, 5010], support=20),
        ]
        matcher = PatternMatcher(patterns, PROJ, radius_m=150.0)
        forecasts = matcher.predict_next(observed([(0, {"Office"})]))
        assert len(forecasts) == 1
        assert forecasts[0].support == 50
        assert forecasts[0].confidence == pytest.approx(1.0)

    def test_top_k_limits(self, matcher):
        forecasts = matcher.predict_next(observed([(0, {"Office"})]), top_k=1)
        assert len(forecasts) == 1

    def test_no_match_no_forecast(self, matcher):
        assert matcher.predict_next(observed([(20_000, {"Office"})])) == []

    def test_rejects_bad_args(self, matcher):
        with pytest.raises(ValueError):
            matcher.predict_next(observed([(0, {"Office"})]), top_k=0)
        with pytest.raises(ValueError):
            PatternMatcher([], PROJ, radius_m=0.0)

    def test_end_to_end_on_mined_patterns(
        self, small_pois, small_trajectories, small_csd_config,
        small_mining_config,
    ):
        """Predict from real mined patterns: an Office prefix at a mined
        pattern's first venue must forecast something."""
        from repro import PervasiveMiner

        miner = PervasiveMiner(small_csd_config, small_mining_config)
        result = miner.mine(small_pois, small_trajectories)
        matcher = PatternMatcher(
            result.patterns, result.csd.projection, radius_m=200.0
        )
        # Use a mined pattern's own first representative as the query.
        source = result.patterns[0]
        query = SemanticTrajectory(0, [source.representatives[0]])
        forecasts = matcher.predict_next(query)
        assert forecasts
        assert all(0.0 < f.confidence <= 1.0 for f in forecasts)
