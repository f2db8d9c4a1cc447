"""Unit tests for pattern post-processing utilities."""

import pytest

from repro.core.extraction import FineGrainedPattern
from repro.core.patterns import (
    WEEK_BUCKETS,
    bucket_patterns,
    pattern_time_bucket,
    rank_patterns,
    route_label,
    summarize,
)
from repro.data.taxi import SECONDS_PER_DAY
from repro.data.trajectory import StayPoint
from repro.geo.projection import LocalProjection

DEG_PER_M = 1.0 / 111_195.0
PROJ = LocalProjection(0.0, 0.0)


def make_pattern(items, positions_m, support=5, t0=8 * 3600.0):
    """Pattern with ``support`` members jittered around ``positions_m``."""
    reps = []
    groups = []
    for k, x in enumerate(positions_m):
        group = [
            StayPoint(
                (x + j) * DEG_PER_M, 0.0, t0 + k * 600.0 + j,
                frozenset({items[k]}),
            )
            for j in range(support)
        ]
        groups.append(group)
        reps.append(group[0])
    return FineGrainedPattern(
        items=tuple(items),
        representatives=reps,
        member_ids=list(range(support)),
        groups=groups,
    )


class TestBuckets:
    def test_morning_weekday_bucket(self):
        p = make_pattern(["A", "B"], [0, 1000], t0=8 * 3600.0)
        assert pattern_time_bucket(p) == "weekday-morning"

    def test_weekend_bucket(self):
        sat = 3 * SECONDS_PER_DAY + 15 * 3600.0  # epoch day 0 = Wednesday
        p = make_pattern(["A", "B"], [0, 1000], t0=sat)
        assert pattern_time_bucket(p) == "weekend-afternoon"

    def test_bucket_patterns_partitions(self):
        ps = [
            make_pattern(["A", "B"], [0, 1000], t0=8 * 3600.0),
            make_pattern(["A", "B"], [0, 1000], t0=22 * 3600.0),
        ]
        buckets = bucket_patterns(ps)
        assert set(buckets) == set(WEEK_BUCKETS)
        assert sum(len(v) for v in buckets.values()) == 2
        assert len(buckets["weekday-morning"]) == 1
        assert len(buckets["weekday-night"]) == 1

    def test_empty_pattern_raises(self):
        p = FineGrainedPattern(items=("A",), representatives=[], member_ids=[])
        with pytest.raises(ValueError):
            pattern_time_bucket(p)


class TestRanking:
    def test_rank_by_support(self):
        a = make_pattern(["A", "B"], [0, 1000], support=3)
        b = make_pattern(["A", "B"], [0, 1000], support=9)
        assert rank_patterns([a, b])[0] is b

    def test_rank_by_length(self):
        short = make_pattern(["A", "B"], [0, 1000], support=9)
        long = make_pattern(["A", "B", "C"], [0, 1000, 2000], support=3)
        assert rank_patterns([short, long], by="length")[0] is long

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError):
            rank_patterns([], by="magic")

    def test_route_label(self):
        p = make_pattern(["Office", "Home"], [0, 1000])
        assert route_label(p) == "Office -> Home"


class TestSummaries:
    def test_summarize_fields(self):
        p = make_pattern(["A", "B"], [0, 3000], support=4)
        rows = summarize([p], PROJ)
        assert len(rows) == 1
        row = rows[0]
        assert row.route == "A -> B"
        assert row.support == 4
        assert row.length == 2
        assert row.span_m == pytest.approx(3000.0, rel=1e-3)

    def test_summarize_span_at_shanghai_latitude(self):
        """At 31.2 N a degree of longitude is cos(31.2) = 0.855 of a
        degree of latitude; a span taken as plain degrees x 111195 m
        reads an east-west 3 km as 3.5 km."""
        proj = LocalProjection(121.47, 31.2)
        reps = [
            StayPoint(*proj.to_lonlat(x, 0.0), 8 * 3600.0 + x / 5,
                      frozenset({tag}))
            for x, tag in ((0.0, "A"), (3000.0, "B"))
        ]
        p = FineGrainedPattern(
            items=("A", "B"),
            representatives=reps,
            member_ids=[0],
            groups=[[sp] for sp in reps],
        )
        (row,) = summarize([p], proj)
        assert row.span_m == pytest.approx(3000.0, rel=1e-9)
