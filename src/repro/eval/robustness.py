"""GPS-noise robustness experiment (Section 4.2's robustness claim).

The paper argues that voting over fine-grained semantic units "enhances
the robustness to GPS noise and errors" compared to picking the single
POI with the largest visited probability.  With synthetic ground truth
we can measure exactly that: perturb every stay point with increasing
Gaussian noise (plus optional heavy-tailed outliers) and compare the
recognition accuracy of the CSD voting recogniser against the
nearest-POI baseline on the same diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.csd import CitySemanticDiagram
from repro.core.recognition import CSDRecognizer
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.eval.ablation import NearestPOIRecognizer
from repro.eval.experiments import ExperimentWorkload
from repro.eval.metrics import recognition_accuracy
from repro.geo.projection import LocalProjection


def perturb_trajectories(
    trajectories: Sequence[SemanticTrajectory],
    noise_m: float,
    projection: LocalProjection,
    seed: int = 0,
    outlier_rate: float = 0.0,
    outlier_m: float = 150.0,
) -> List[SemanticTrajectory]:
    """Add Gaussian position noise (and optional outlier jumps).

    ``outlier_rate`` is the probability that a stay point additionally
    receives a uniform offset of up to ``outlier_m`` — the multipath /
    urban-canyon error mode.
    """
    if noise_m < 0 or outlier_m < 0:
        raise ValueError("noise magnitudes must be non-negative")
    if not 0.0 <= outlier_rate <= 1.0:
        raise ValueError("outlier_rate must be a probability")
    rng = np.random.default_rng(seed)
    out: List[SemanticTrajectory] = []
    for st in trajectories:
        stays: List[StayPoint] = []
        for sp in st.stay_points:
            x, y = projection.to_meters(sp.lon, sp.lat)
            x += rng.normal(0.0, noise_m) if noise_m else 0.0
            y += rng.normal(0.0, noise_m) if noise_m else 0.0
            if outlier_rate and rng.random() < outlier_rate:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                radius = rng.uniform(0.0, outlier_m)
                x += radius * np.cos(angle)
                y += radius * np.sin(angle)
            lon, lat = projection.to_lonlat(x, y)
            stays.append(StayPoint(lon, lat, sp.t, sp.semantics))
        out.append(SemanticTrajectory(st.traj_id, stays))
    return out


@dataclass
class RobustnessPoint:
    """Accuracy of both recognisers at one noise level."""

    noise_m: float
    voting_rate: float
    voting_accuracy: float
    nearest_rate: float
    nearest_accuracy: float


def run_noise_sweep(
    workload: ExperimentWorkload,
    csd: CitySemanticDiagram,
    noise_levels_m: Sequence[float] = (0.0, 10.0, 25.0, 50.0),
    outlier_rate: float = 0.1,
    seed: int = 5,
) -> List[RobustnessPoint]:
    """Accuracy-vs-noise curves for unit voting vs nearest-POI lookup.

    Evaluated on the card-linked trajectories where ground truth exists.
    """
    config = workload.csd_config
    voting = CSDRecognizer(csd, config.r3sigma_m)
    nearest = NearestPOIRecognizer(csd, config.r3sigma_m)
    linked = workload.taxi.linked_trajectories()
    truths = workload.taxi.linked_truths()
    flat_truths = [t for row in truths for t in row]

    out: List[RobustnessPoint] = []
    for noise in noise_levels_m:
        noisy = perturb_trajectories(
            linked, noise, workload.projection,
            seed=seed, outlier_rate=outlier_rate,
        )
        v_tags = [
            sp.semantics for st in voting.recognize(noisy) for sp in st
        ]
        n_tags = [
            sp.semantics for st in nearest.recognize(noisy) for sp in st
        ]
        v_rate, v_acc = recognition_accuracy(v_tags, flat_truths)
        n_rate, n_acc = recognition_accuracy(n_tags, flat_truths)
        out.append(
            RobustnessPoint(noise, v_rate, v_acc, n_rate, n_acc)
        )
    return out
