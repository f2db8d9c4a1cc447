"""Clustering algorithms implemented from scratch for the reproduction.

The paper and its baselines rely on three clustering strategies:

- **DBSCAN** — hot-region detection for the ROI baseline [21] and the
  SDBSCAN pattern refinement [19];
- **OPTICS** — Algorithm 4's per-position clustering ("without the
  configuration of distance threshold");
- **Mean Shift** — Splitter's top-down coarse-pattern splitting [17].

All operate on ``(n, 2)`` arrays of local metre coordinates and return
integer labels with ``-1`` marking noise (Mean Shift labels every
point).
"""

from repro.cluster.dbscan import dbscan
from repro.cluster.meanshift import mean_shift
from repro.cluster.optics import optics

__all__ = [
    "dbscan",
    "mean_shift",
    "optics",
]
