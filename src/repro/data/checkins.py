"""Biased check-in simulator reproducing Table 1's semantic-bias study.

The paper motivates *Semantic Bias* with FourSquare data: users share
bars and restaurants but not hospital visits, so check-in topic ratios
are a distorted view of real activity.  We model a city profile as

- a ground-truth *activity mix* (how often residents really perform each
  topic), and
- a per-topic *sharing probability* (how willing users are to check in).

Observed check-ins are activities filtered by a Bernoulli share draw, so
the expected observed ratio of topic ``s`` is proportional to
``mix[s] * share[s]``.  The two bundled profiles are calibrated so the
observed top-10 reproduces Table 1's New York and Tokyo columns while
private topics (hospital, drug store) stay frequent in ground truth but
vanish from the observed ranking — the bias the CSD approach avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Sharing probability per topic class.  Private/medical topics are
#: rarely shared; mundane commuting topics are shared at intermediate
#: rates; social topics are shared eagerly.
_DEFAULT_SHARE = {
    "social": 0.9,
    "commute": 0.5,
    "private": 0.02,
    "home": 0.3,
}


@dataclass(frozen=True)
class CityCheckinProfile:
    """Ground-truth and sharing behaviour of one city's users."""

    name: str
    #: topic -> (ground-truth activity share, sharing probability)
    topics: Dict[str, Tuple[float, float]]

    def activity_mix(self) -> Dict[str, float]:
        total = sum(w for w, _s in self.topics.values())
        return {t: w / total for t, (w, _s) in self.topics.items()}


def _profile(name: str, rows: List[Tuple[str, float, str]]) -> CityCheckinProfile:
    """Build a profile from (topic, target observed %, share class) rows.

    The ground-truth activity weight is back-solved as
    ``target / share`` so the *expected observed* ratios equal the Table 1
    targets exactly, while ground truth keeps the suppressed mass.
    """
    topics: Dict[str, Tuple[float, float]] = {}
    for topic, target_pct, share_class in rows:
        share = _DEFAULT_SHARE[share_class]
        topics[topic] = (target_pct / share, share)
    return CityCheckinProfile(name, topics)


#: Calibrated to Table 1's New York column, plus the private topics the
#: paper says never surface.
NEW_YORK = _profile(
    "New York",
    [
        ("Bar", 7.03, "social"),
        ("Home (private)", 6.80, "home"),
        ("Office", 5.60, "commute"),
        ("Subway", 4.11, "commute"),
        ("Fitness Center", 4.03, "social"),
        ("Coffee Shop", 3.30, "social"),
        ("Food Drink Shop", 2.90, "social"),
        ("Train Station", 2.81, "commute"),
        ("Park", 2.11, "social"),
        ("Neighborhood", 2.02, "social"),
        ("Restaurant", 1.90, "social"),
        ("Shop", 1.80, "social"),
        ("Hospital", 0.08, "private"),
        ("Drug Store", 0.05, "private"),
        ("Doctor's Office", 0.04, "private"),
        # Long tail of minor venue types; keeps the named ratios on the
        # same whole-corpus scale Table 1 reports them on.
        ("Other", 55.42, "social"),
    ],
)

#: Calibrated to Table 1's Tokyo column; Tokyo users famously hide home.
TOKYO = _profile(
    "Tokyo",
    [
        ("Train Station", 34.93, "commute"),
        ("Subway", 7.26, "commute"),
        ("Noodle House", 3.01, "social"),
        ("Convenience Store", 2.93, "social"),
        ("Japanese Restaurant", 2.73, "social"),
        ("Bar", 2.60, "social"),
        ("Food & Drink Shop", 2.44, "social"),
        ("Electronics Store", 1.89, "social"),
        ("Mall", 1.88, "social"),
        ("Coffee Shop", 1.56, "social"),
        ("Office", 1.40, "commute"),
        ("Home (private)", 0.30, "home"),
        ("Hospital", 0.06, "private"),
        ("Drug Store", 0.05, "private"),
        ("Other", 36.96, "social"),
    ],
)

PROFILES: Dict[str, CityCheckinProfile] = {
    "New York": NEW_YORK,
    "Tokyo": TOKYO,
}


@dataclass
class CheckinStudy:
    """Result of one simulation: observed vs ground-truth topic shares."""

    profile: CityCheckinProfile
    n_activities: int
    n_checkins: int
    observed_ratio: Dict[str, float]
    truth_ratio: Dict[str, float]

    def top_topics(self, k: int = 10) -> List[Tuple[str, float]]:
        """Observed top-``k`` named topics, Table 1 style.

        The synthetic "Other" long-tail bucket is skipped — Table 1
        ranks concrete venue types only.
        """
        ranked = sorted(
            self.observed_ratio.items(), key=lambda kv: kv[1], reverse=True
        )
        return [(t, r) for t, r in ranked if t != "Other"][:k]

    def bias_of(self, topic: str) -> float:
        """Observed/truth ratio for a topic; < 1 means under-reported."""
        truth = self.truth_ratio.get(topic, 0.0)
        if truth == 0.0:
            return float("nan")
        return self.observed_ratio.get(topic, 0.0) / truth


class CheckinSimulator:
    """Monte-Carlo check-in generator for a :class:`CityCheckinProfile`."""

    def __init__(self, profile: CityCheckinProfile, seed: int = 5) -> None:
        self.profile = profile
        self.seed = seed

    def run(self, n_activities: int = 100_000) -> CheckinStudy:
        """Simulate ``n_activities`` real activities and their check-ins."""
        if n_activities <= 0:
            raise ValueError("n_activities must be positive")
        rng = np.random.default_rng(self.seed)
        topics = list(self.profile.topics)
        mix = self.profile.activity_mix()
        weights = np.array([mix[t] for t in topics], dtype=np.float64)
        share = np.array(
            [self.profile.topics[t][1] for t in topics], dtype=np.float64
        )

        draws = rng.choice(len(topics), size=n_activities, p=weights)
        shared = rng.random(n_activities) < share[draws]

        truth_counts = np.bincount(draws, minlength=len(topics)).astype(float)
        obs_counts = np.bincount(
            draws[shared], minlength=len(topics)
        ).astype(float)
        n_checkins = int(obs_counts.sum())
        truth_ratio = {
            t: truth_counts[i] / n_activities for i, t in enumerate(topics)
        }
        observed_ratio = {
            t: (obs_counts[i] / n_checkins if n_checkins else 0.0)
            for i, t in enumerate(topics)
        }
        return CheckinStudy(
            self.profile, n_activities, n_checkins, observed_ratio, truth_ratio
        )
