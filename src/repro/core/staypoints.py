"""Stay-point detection over dense GPS trajectories (Definition 5).

The taxi experiments use pick-up/drop-off events as stay points
directly, but Definition 5 and the SemanticTrajectory() function of
Algorithm 3 apply to any dense track (e.g. smartphone traces).  The
detector slides a window: a maximal sub-trajectory whose points all stay
within ``theta_d`` of its first point and that spans at least
``theta_t`` seconds collapses into one stay point at its centroid with
the average timestamp.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.config import StayPointConfig
from repro.data.trajectory import StayPoint, Trajectory
from repro.geo.distance import equirectangular_distance


def detect_stay_points(
    trajectory: Trajectory, config: Optional[StayPointConfig] = None
) -> List[StayPoint]:
    """Stay points of one raw trajectory per Definition 5.

    Uses the anchor-based formulation: every point of the candidate
    sub-trajectory must lie within ``theta_d`` of the sub-trajectory's
    first point (condition ii), and the window must span ``theta_t``
    seconds (condition i).  Windows are extended greedily and maximal.

    Raises ``ValueError`` when timestamps decrease along the
    trajectory: a backwards clock would make dwell durations negative,
    so windows could never satisfy ``theta_t`` and the track would be
    silently skipped instead of flagged as corrupt.  Duplicate
    timestamps are legal (two fixes in the same second).
    """
    config = config or StayPointConfig()
    pts = trajectory.points
    n = len(pts)
    for k in range(n - 1):
        if pts[k + 1].t < pts[k].t:
            raise ValueError(
                f"trajectory {trajectory.traj_id}: timestamps out of "
                f"order at point {k + 1} ({pts[k + 1].t!r} < "
                f"{pts[k].t!r}); sort the fixes before stay-point "
                "detection"
            )
    stays: List[StayPoint] = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and (
            equirectangular_distance(
                pts[i].lon, pts[i].lat, pts[j].lon, pts[j].lat
            )
            <= config.theta_d_m
        ):
            j += 1
        # Window is pts[i:j]; check the dwell-duration condition.
        if j - i >= 2 and pts[j - 1].t - pts[i].t >= config.theta_t_s:
            window = pts[i:j]
            lon = float(np.mean([p.lon for p in window]))
            lat = float(np.mean([p.lat for p in window]))
            t = float(np.mean([p.t for p in window]))
            stays.append(StayPoint(lon, lat, t))
            i = j
        else:
            i += 1
    return stays
