"""Parameter dataclasses with the paper's published defaults.

Section 4.1: "we set R_3sigma = 100m, the vertical overlapping distance
threshold d_v = 15m, MinPts_p = 5, eps_p = 30m and alpha = 0.8"; the
merge cosine threshold is 0.9 (Section 4.1, merging step).  Section 5:
"we set sigma = 50, delta_t = 60 mins and rho = 0.002 m^-2".

``V_min`` (Definition 3's spatial-variance bound) is never published;
we default to 300 m^2 (~17 m standard deviation), tight enough that a
whole plaza cluster does not auto-qualify while a skyscraper stack does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any


def _require_finite(config: Any) -> None:
    """Reject NaN and infinite float fields.  The range checks below
    are written ``not x > 0`` so NaN fails them as well; a NaN threshold
    would otherwise switch its filter off silently."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class CSDConfig:
    """Parameters of CSD construction and semantic recognition."""

    r3sigma_m: float = 100.0        # Gaussian 3-sigma radius (Eq. 2-3, Alg. 3)
    d_v_m: float = 15.0             # vertical overlap distance (Alg. 1 line 6)
    min_pts: int = 5                # MinPts_p (Alg. 1 line 9)
    eps_p_m: float = 30.0           # search radius (Alg. 1 line 3)
    alpha: float = 0.8              # popularity ratio threshold (Alg. 1 line 5)
    v_min_m2: float = 300.0         # spatial variance bound (Def. 3 / Alg. 2)
    merge_cos: float = 0.9          # unit-merge cosine threshold (Eq. 8)
    merge_radius_m: float = 30.0    # "nearby" for unit merging
    #: Semantic granularity: ``"major"`` (15 categories, the paper's
    #: evaluation level) or ``"minor"`` (98 categories — patterns like
    #: ``Residence -> Noodle House``).  Finer tags need denser POIs per
    #: venue before Algorithm 1's MinPts holds within one minor type.
    semantic_level: str = "major"

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.r3sigma_m > 0 and self.eps_p_m > 0 and self.merge_radius_m > 0):
            raise ValueError("radii must be positive")
        if not (self.d_v_m >= 0 and self.v_min_m2 >= 0):
            raise ValueError("d_v and V_min must be non-negative")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.merge_cos <= 1.0:
            raise ValueError("merge_cos must be in [0, 1]")
        if not self.min_pts >= 1:
            raise ValueError("min_pts must be at least 1")
        if self.semantic_level not in ("major", "minor"):
            raise ValueError("semantic_level must be 'major' or 'minor'")


@dataclass(frozen=True)
class MiningConfig:
    """Parameters of pattern extraction (Algorithm 4 / Definition 11)."""

    support: int = 50               # sigma, minimum supporting trajectories
    delta_t_s: float = 3600.0       # temporal constraint, seconds
    rho: float = 0.002              # density threshold, points per m^2
    min_length: int = 2             # shortest pattern to report
    max_length: int = 5             # PrefixSpan recursion bound

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.support >= 1:
            raise ValueError("support must be at least 1")
        if not self.delta_t_s > 0:
            raise ValueError("delta_t_s must be positive")
        if not self.rho >= 0:
            raise ValueError("rho must be non-negative")
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError("need 1 <= min_length <= max_length")


@dataclass(frozen=True)
class StayPointConfig:
    """Definition 5 thresholds for stay-point detection on dense tracks."""

    theta_d_m: float = 200.0        # spatial bound of a stay
    theta_t_s: float = 1200.0       # minimum dwell duration (20 min)

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.theta_d_m > 0 and self.theta_t_s > 0):
            raise ValueError("stay-point thresholds must be positive")
