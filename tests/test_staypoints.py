"""Unit tests for stay-point detection (Definition 5)."""

import pytest

from repro.core.config import StayPointConfig
from repro.core.staypoints import detect_stay_points
from repro.data.trajectory import GPSPoint, Trajectory

#: ~1 m in degrees of longitude at the equator-ish latitudes used here.
DEG_PER_M = 1.0 / 111_195.0


def track(segments):
    """Build a trajectory from (lon_m, duration_s, n_points) segments."""
    points = []
    t = 0.0
    for lon_m, duration, n in segments:
        for i in range(n):
            points.append(
                GPSPoint(lon_m * DEG_PER_M, 0.0, t + i * duration / max(n - 1, 1))
            )
        t += duration + 60.0
    return Trajectory(0, points)


class TestDetection:
    def test_long_dwell_detected(self):
        config = StayPointConfig(theta_d_m=200.0, theta_t_s=1200.0)
        traj = track([(0.0, 1800.0, 10)])  # 30 min at one spot
        stays = detect_stay_points(traj, config)
        assert len(stays) == 1
        assert stays[0].lon == pytest.approx(0.0, abs=1e-9)

    def test_short_dwell_ignored(self):
        config = StayPointConfig(theta_d_m=200.0, theta_t_s=1200.0)
        traj = track([(0.0, 600.0, 10)])  # only 10 min
        assert detect_stay_points(traj, config) == []

    def test_moving_track_has_no_stays(self):
        config = StayPointConfig(theta_d_m=100.0, theta_t_s=600.0)
        # Points 500 m apart every 2 minutes: never inside theta_d.
        points = [
            GPSPoint(i * 500.0 * DEG_PER_M, 0.0, i * 120.0) for i in range(20)
        ]
        assert detect_stay_points(Trajectory(0, points), config) == []

    def test_two_separate_stays(self):
        config = StayPointConfig(theta_d_m=200.0, theta_t_s=1200.0)
        traj = track([(0.0, 1800.0, 8), (5_000.0, 1800.0, 8)])
        stays = detect_stay_points(traj, config)
        assert len(stays) == 2
        assert stays[0].t < stays[1].t

    def test_stay_centroid_and_mean_time(self):
        config = StayPointConfig(theta_d_m=300.0, theta_t_s=100.0)
        points = [
            GPSPoint(0.0, 0.0, 0.0),
            GPSPoint(100.0 * DEG_PER_M, 0.0, 100.0),
            GPSPoint(200.0 * DEG_PER_M, 0.0, 200.0),
        ]
        stays = detect_stay_points(Trajectory(0, points), config)
        assert len(stays) == 1
        assert stays[0].lon == pytest.approx(100.0 * DEG_PER_M)
        assert stays[0].t == pytest.approx(100.0)

    def test_empty_trajectory(self):
        assert detect_stay_points(Trajectory(0, [])) == []

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            StayPointConfig(theta_d_m=0.0)
        with pytest.raises(ValueError):
            StayPointConfig(theta_t_s=-5.0)


class TestTimestampValidation:
    """Out-of-order clocks are corruption, not a silent no-op (a
    negative dwell can never satisfy theta_t, so before validation such
    tracks just produced no stays)."""

    def test_out_of_order_timestamps_raise(self):
        pts = [
            GPSPoint(0.0, 0.0, 100.0),
            GPSPoint(0.0, 0.0, 50.0),   # clock goes backwards
            GPSPoint(0.0, 0.0, 200.0),
        ]
        with pytest.raises(ValueError, match="out of order"):
            detect_stay_points(Trajectory(7, pts))

    def test_error_names_trajectory_and_point(self):
        pts = [GPSPoint(0.0, 0.0, 10.0), GPSPoint(0.0, 0.0, 5.0)]
        with pytest.raises(ValueError, match=r"trajectory 42.*point 1"):
            detect_stay_points(Trajectory(42, pts))

    def test_duplicate_timestamps_are_legal(self):
        """Two fixes in the same second: dwell maths stays defined."""
        config = StayPointConfig(theta_d_m=200.0, theta_t_s=1200.0)
        pts = [GPSPoint(0.0, 0.0, 0.0), GPSPoint(0.0, 0.0, 0.0)]
        pts += [GPSPoint(0.0, 0.0, t * 300.0) for t in range(1, 7)]
        stays = detect_stay_points(Trajectory(0, pts), config)
        assert len(stays) == 1

    def test_all_duplicate_timestamps_no_dwell(self):
        """Zero elapsed time can never satisfy a positive theta_t."""
        config = StayPointConfig(theta_d_m=200.0, theta_t_s=1200.0)
        pts = [GPSPoint(0.0, 0.0, 0.0)] * 5
        assert detect_stay_points(Trajectory(0, pts), config) == []

    def test_to_semantic_trajectory_propagates_validation(self):
        pts = [GPSPoint(0.0, 0.0, 10.0), GPSPoint(0.0, 0.0, 5.0)]
        with pytest.raises(ValueError, match="out of order"):
            detect_stay_points(Trajectory(3, pts))
