"""The six named approaches of Section 5 (recognizer x extractor grid).

``CSD-PM`` is the paper's full system; the other five swap in the ROI
recogniser and/or the Splitter / SDBSCAN extractors.  ``run_approach``
executes one approach over a shared (pois, trajectories) workload and
returns the mined fine-grained patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.roi import ROIRecognizer
from repro.baselines.sdbscan import sdbscan_extract
from repro.baselines.splitter import splitter_extract
from repro.baselines.tpattern import tpattern_extract
from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import build_csd
from repro.core.csd import CitySemanticDiagram
from repro.core.extraction import FineGrainedPattern, counterpart_cluster
from repro.core.recognition import CSDRecognizer
from repro.data.poi import POI, poi_lonlat_array
from repro.data.trajectory import SemanticTrajectory
from repro.geo.projection import LocalProjection
from repro.obs import get_registry

RecognizerName = str  # "CSD" | "ROI"
ExtractorName = str   # "PM" | "Splitter" | "SDBSCAN"

_EXTRACTORS: Dict[str, Callable] = {
    "PM": counterpart_cluster,
    "Splitter": splitter_extract,
    "SDBSCAN": sdbscan_extract,
    # Related-work extra (Section 2's grid family); not part of the
    # paper's six-approach evaluation grid.
    "TPattern": tpattern_extract,
}


@dataclass(frozen=True)
class Approach:
    """One recognizer/extractor combination, e.g. ``CSD-PM``."""

    recognizer: RecognizerName
    extractor: ExtractorName

    @property
    def name(self) -> str:
        return f"{self.recognizer}-{self.extractor}"


#: All six approaches, CSD-based first (the Figure 9 grouping).
APPROACHES: List[Approach] = [
    Approach("CSD", "PM"),
    Approach("CSD", "Splitter"),
    Approach("CSD", "SDBSCAN"),
    Approach("ROI", "PM"),
    Approach("ROI", "Splitter"),
    Approach("ROI", "SDBSCAN"),
]


def approach_by_name(name: str) -> Approach:
    """Look up e.g. ``"ROI-Splitter"``; raises ``KeyError`` if unknown.

    Beyond the paper's six-approach grid, any recognizer/extractor
    combination of known parts resolves too (e.g. ``"CSD-TPattern"``).
    """
    for approach in APPROACHES:
        if approach.name == name:
            return approach
    recognizer, _, extractor = name.partition("-")
    if recognizer in ("CSD", "ROI") and extractor in _EXTRACTORS:
        return Approach(recognizer, extractor)
    raise KeyError(f"unknown approach {name!r}")


def run_approach(
    approach: Approach,
    pois: Sequence[POI],
    trajectories: Sequence[SemanticTrajectory],
    csd_config: Optional[CSDConfig] = None,
    mining_config: Optional[MiningConfig] = None,
    csd: Optional[CitySemanticDiagram] = None,
) -> List[FineGrainedPattern]:
    """Run one approach end to end in ``mining_projection(pois, csd)``.

    A prebuilt ``csd`` skips the constructor of a CSD-based approach.
    """
    csd_config = csd_config or CSDConfig()
    mining_config = mining_config or MiningConfig()
    reg = get_registry()
    with reg.span("pipeline"):
        if csd is None and approach.recognizer == "CSD":
            with reg.span("constructor"):
                stays = [sp for st in trajectories for sp in st.stay_points]
                csd = build_csd(pois, stays, csd_config)
        recognized = recognize_for(
            approach.recognizer, pois, trajectories, csd_config, csd
        )
        with reg.span("extraction"):
            return extract(
                approach, recognized, mining_config,
                mining_projection(pois, csd),
            )


def extract(
    approach: Approach,
    recognized: Sequence[SemanticTrajectory],
    mining_config: MiningConfig,
    projection: LocalProjection,
) -> List[FineGrainedPattern]:
    """Extraction half of an approach, shared by every entry point."""
    return _EXTRACTORS[approach.extractor](recognized, mining_config, projection)


def mining_projection(
    pois: Sequence[POI], csd: Optional[CitySemanticDiagram] = None
) -> LocalProjection:
    """The metre frame an approach mines in: the diagram's, or without
    one the POI anchor :func:`build_csd` gives a diagram of ``pois``."""
    if csd is not None:
        return csd.projection
    return LocalProjection.for_points(poi_lonlat_array(pois))


def recognize_for(
    recognizer: RecognizerName,
    pois: Sequence[POI],
    trajectories: Sequence[SemanticTrajectory],
    csd_config: CSDConfig,
    csd: Optional[CitySemanticDiagram],
) -> List[SemanticTrajectory]:
    """Recognition half of an approach, reusable across extractors.

    ``csd`` is the diagram a CSD recognizer reads; the ROI recognizer
    ignores it.
    """
    with get_registry().span("recognition"):
        if recognizer == "CSD":
            if csd is None:
                raise ValueError("the CSD recognizer needs a diagram")
            return CSDRecognizer(
                csd, csd_config.r3sigma_m
            ).recognize(trajectories)
        if recognizer == "ROI":
            return ROIRecognizer(pois).recognize(trajectories)
    raise KeyError(f"unknown recognizer {recognizer!r}")
