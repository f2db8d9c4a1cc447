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
from repro.data.poi import POI
from repro.data.trajectory import SemanticTrajectory
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
    """Run one approach end to end.

    A prebuilt ``csd`` skips the constructor of a CSD-based approach.
    """
    csd_config = csd_config or CSDConfig()
    mining_config = mining_config or MiningConfig()
    reg = get_registry()
    with reg.span("pipeline"):
        recognized = recognize_for(
            approach.recognizer, pois, trajectories, csd_config, csd
        )
        extractor = _EXTRACTORS[approach.extractor]
        with reg.span("extraction"):
            return extractor(recognized, mining_config)


def recognize_for(
    recognizer: RecognizerName,
    pois: Sequence[POI],
    trajectories: Sequence[SemanticTrajectory],
    csd_config: Optional[CSDConfig] = None,
    csd: Optional[CitySemanticDiagram] = None,
) -> List[SemanticTrajectory]:
    """Recognition half of an approach, reusable across extractors."""
    csd_config = csd_config or CSDConfig()
    reg = get_registry()
    if recognizer == "CSD":
        if csd is None:
            with reg.span("constructor"):
                stays = [sp for st in trajectories for sp in st.stay_points]
                csd = build_csd(pois, stays, csd_config)
        with reg.span("recognition"):
            return CSDRecognizer(
                csd, csd_config.r3sigma_m
            ).recognize(trajectories)
    if recognizer == "ROI":
        with reg.span("recognition"):
            return ROIRecognizer(pois).recognize(trajectories)
    raise KeyError(f"unknown recognizer {recognizer!r}")
