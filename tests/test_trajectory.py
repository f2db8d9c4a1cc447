"""Unit tests for the trajectory data model."""

import pytest

from repro.data.trajectory import (
    NO_SEMANTICS,
    GPSPoint,
    SemanticTrajectory,
    StayPoint,
    Trajectory,
    as_tag_sequence,
    dominant_tag,
    validate_database,
)


def _st(points):
    return SemanticTrajectory(0, [StayPoint(*p) for p in points])


class TestStayPoint:
    def test_default_semantics_empty(self):
        sp = StayPoint(121.0, 31.0, 0.0)
        assert sp.semantics == NO_SEMANTICS

    def test_with_semantics_returns_copy(self):
        sp = StayPoint(121.0, 31.0, 0.0)
        sp2 = sp.with_semantics({"Restaurant"})
        assert sp.semantics == NO_SEMANTICS
        assert sp2.semantics == frozenset({"Restaurant"})
        assert (sp2.lon, sp2.lat, sp2.t) == (sp.lon, sp.lat, sp.t)

    def test_hashable(self):
        assert len({StayPoint(1, 2, 3), StayPoint(1, 2, 3)}) == 1


class TestTrajectory:
    def test_time_ordering(self):
        good = Trajectory(1, [GPSPoint(0, 0, 1.0), GPSPoint(0, 0, 2.0)])
        bad = Trajectory(2, [GPSPoint(0, 0, 2.0), GPSPoint(0, 0, 1.0)])
        assert good.is_time_ordered()
        assert not bad.is_time_ordered()

    def test_len_and_iter(self):
        t = Trajectory(1, [GPSPoint(0, 0, 1.0), GPSPoint(1, 1, 2.0)])
        assert len(t) == 2
        assert [p.t for p in t] == [1.0, 2.0]


class TestSemanticTrajectory:
    def test_point_is_one_based(self):
        st = _st([(1, 1, 10.0), (2, 2, 20.0)])
        assert st.point(1).t == 10.0
        assert st.point(2).t == 20.0
        with pytest.raises(IndexError):
            st.point(0)
        with pytest.raises(IndexError):
            st.point(3)

    def test_getitem_is_zero_based(self):
        st = _st([(1, 1, 10.0), (2, 2, 20.0)])
        assert st[0].t == 10.0


class TestTagHelpers:
    def test_dominant_tag_empty(self):
        assert dominant_tag(frozenset()) is None

    def test_dominant_tag_deterministic(self):
        assert dominant_tag(frozenset({"B", "A"})) == "A"

    def test_as_tag_sequence(self):
        st = SemanticTrajectory(
            0,
            [
                StayPoint(0, 0, 0, frozenset({"Office"})),
                StayPoint(0, 0, 1),
                StayPoint(0, 0, 2, frozenset({"Shop", "Bar"})),
            ],
        )
        assert as_tag_sequence(st) == ["Office", None, "Bar"]


class TestValidation:
    def test_accepts_valid(self):
        validate_database([_st([(121, 31, 0.0), (121, 31, 5.0)])])

    def test_rejects_time_disorder(self):
        with pytest.raises(ValueError, match="not time ordered"):
            validate_database([_st([(121, 31, 5.0), (121, 31, 0.0)])])

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError, match="out-of-range"):
            validate_database([_st([(500.0, 31, 0.0)])])
