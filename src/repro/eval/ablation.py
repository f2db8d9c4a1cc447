"""Ablations of the CSD design choices (Section 4.1/4.2 rationale).

The paper justifies four design decisions qualitatively; on synthetic
data we can measure each one by switching it off:

- ``no-purification`` — skip Algorithm 2: coarse clusters keep mixed
  semantics, so recognition mislabels and consistency drops (the
  Semantic Complexity failure CSD exists to fix);
- ``no-merging`` — skip the cosine merging step: fragmented units and
  stranded leftover POIs cut the recognition rate;
- ``uniform-popularity`` — replace the Gaussian coefficient of Eq. (2)
  with plain in-radius counting: popularity loses its noise robustness;
- ``nearest-poi`` — replace the unit-level voting of Algorithm 3 with
  a nearest-POI lookup: single noisy POIs flip labels.

``run_ablation`` evaluates every variant on one workload and reports
recognition rate/accuracy (against the simulator's ground truth) plus
the end-to-end pattern metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import popularity_based_clustering, semantic_units
from repro.core.csd import UNASSIGNED, CitySemanticDiagram, project_pois
from repro.core.extraction import counterpart_cluster
from repro.core.merging import flatten_units, merge_units
from repro.core.popularity import compute_popularity
from repro.core.purification import purify
from repro.core.recognition import CSDRecognizer, attach_semantics
from repro.data.poi import POI
from repro.data.trajectory import (
    NO_SEMANTICS,
    SemanticProperty,
    SemanticTrajectory,
    StayPoint,
)
from repro.eval.experiments import ExperimentWorkload
from repro.eval.metrics import recognition_accuracy, summarize_patterns
from repro.geo.index import GridIndex
from repro.geo.projection import LocalProjection


def build_csd_ablated(
    pois: Sequence[POI],
    stay_points: Sequence[StayPoint],
    config: CSDConfig,
    projection: Optional[LocalProjection] = None,
    with_purification: bool = True,
    with_merging: bool = True,
    gaussian_popularity: bool = True,
) -> CitySemanticDiagram:
    """The Section 4.1 constructor with individual steps switchable."""
    projection, poi_xy = project_pois(pois, projection)
    stay_lonlat = np.array(
        [[sp.lon, sp.lat] for sp in stay_points], dtype=float
    ).reshape(-1, 2)
    stay_xy = projection.to_meters_array(stay_lonlat)
    if gaussian_popularity:
        popularity = compute_popularity(poi_xy, stay_xy, config.r3sigma_m)
    else:
        index = GridIndex(stay_xy, cell_size=config.r3sigma_m) if len(stay_xy) else None
        popularity = np.zeros(len(pois), dtype=np.float64)
        if index is not None:
            for i, (x, y) in enumerate(poi_xy):
                popularity[i] = index.count_within(x, y, config.r3sigma_m)
    tags = [p.tag(config.semantic_level) for p in pois]

    clusters, leftovers = popularity_based_clustering(
        poi_xy, tags, popularity, config
    )
    if with_purification:
        clusters = purify(
            clusters, poi_xy, tags, config.v_min_m2, config.r3sigma_m
        )
    if with_merging:
        clusters = merge_units(
            clusters, leftovers, poi_xy, tags, popularity,
            config.merge_cos, config.merge_radius_m,
        )

    # The CSD contract is int64 unit ids; dtype=int is int32 on Windows.
    unit_of = np.full(len(pois), UNASSIGNED, dtype=np.int64)
    members, owner = flatten_units(clusters)
    unit_of[members] = owner
    units = semantic_units(clusters, poi_xy, tags, popularity)
    return CitySemanticDiagram(
        pois, projection, poi_xy, popularity, units, unit_of,
        tag_level=config.semantic_level,
    )


class NearestPOIRecognizer:
    """Ablation of Algorithm 3's voting: take the nearest POI's tag."""

    def __init__(self, csd: CitySemanticDiagram, r3sigma_m: float) -> None:
        self.csd = csd
        self.r3sigma_m = r3sigma_m

    def recognize_point(self, sp: StayPoint) -> SemanticProperty:
        x, y = self.csd.projection.to_meters(sp.lon, sp.lat)
        hits = self.csd.range_query(x, y, self.r3sigma_m)
        if len(hits) == 0:
            return NO_SEMANTICS
        d = ((self.csd.poi_xy[hits] - (x, y)) ** 2).sum(axis=1)
        nearest = int(hits[int(np.argmin(d))])
        return self.csd.pois[nearest].semantics

    def recognize(
        self, trajectories: Sequence[SemanticTrajectory]
    ) -> List[SemanticTrajectory]:
        return attach_semantics(
            trajectories,
            [
                self.recognize_point(sp)
                for st in trajectories
                for sp in st.stay_points
            ],
        )


@dataclass
class AblationResult:
    """Recognition and pattern metrics of one variant."""

    name: str
    recognition_rate: float
    recognition_accuracy: float
    n_patterns: int
    coverage: int
    mean_consistency: float
    unit_purity: float


VARIANTS = (
    "full",
    "no-purification",
    "no-merging",
    "uniform-popularity",
    "nearest-poi",
)


def run_ablation(
    workload: ExperimentWorkload,
    mining_config: Optional[MiningConfig] = None,
    variants: Sequence[str] = VARIANTS,
) -> Dict[str, AblationResult]:
    """Evaluate the ablation variants on one workload."""
    mining_config = mining_config or MiningConfig()
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown variants: {sorted(unknown)}")

    config = workload.csd_config
    trajectories = workload.trajectories
    stays = [sp for st in trajectories for sp in st.stay_points]
    linked = workload.taxi.linked_trajectories()
    truths = workload.taxi.linked_truths()
    flat_truths = [t for row in truths for t in row]

    out: Dict[str, AblationResult] = {}
    for name in variants:
        csd = build_csd_ablated(
            workload.pois, stays, config, workload.projection,
            with_purification=name != "no-purification",
            with_merging=name != "no-merging",
            gaussian_popularity=name != "uniform-popularity",
        )
        recognizer: Union[NearestPOIRecognizer, CSDRecognizer]
        if name == "nearest-poi":
            recognizer = NearestPOIRecognizer(csd, config.r3sigma_m)
        else:
            recognizer = CSDRecognizer(csd, config.r3sigma_m)

        rec_linked = recognizer.recognize(linked)
        flat_tags = [sp.semantics for st in rec_linked for sp in st]
        rate, accuracy = recognition_accuracy(flat_tags, flat_truths)

        recognized = recognizer.recognize(trajectories)
        patterns = counterpart_cluster(
            recognized, mining_config, workload.projection
        )
        metrics = summarize_patterns(name, patterns, workload.projection)
        purity = csd.unit_purities()
        out[name] = AblationResult(
            name=name,
            recognition_rate=rate,
            recognition_accuracy=accuracy,
            n_patterns=metrics.n_patterns,
            coverage=metrics.coverage,
            mean_consistency=metrics.mean_consistency,
            unit_purity=float(purity.mean()) if len(purity) else 0.0,
        )
    return out
