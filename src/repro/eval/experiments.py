"""The shared experiment harness behind every figure bench.

One :class:`ExperimentWorkload` (city + POIs + trajectories + projection)
feeds all six approaches; recognition runs once per recognizer and the
extractors reuse it, exactly like the paper's sweeps vary only the
mining parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.baselines.registry import APPROACHES, Approach, extract, recognize_for
from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import build_csd
from repro.core.csd import CitySemanticDiagram
from repro.core.extraction import FineGrainedPattern
from repro.data.city import CityModel
from repro.data.poi import POI, POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator, TaxiDataset
from repro.data.trajectory import SemanticTrajectory
from repro.eval.metrics import (
    ApproachMetrics,
    ReferenceSemantics,
    reference_semantics,
    summarize_patterns,
)
from repro.geo.projection import LocalProjection


@dataclass
class ExperimentWorkload:
    """Everything the six approaches share for one experiment."""

    city: CityModel
    pois: List[POI]
    taxi: TaxiDataset
    trajectories: List[SemanticTrajectory]
    csd_config: CSDConfig

    @property
    def projection(self) -> LocalProjection:
        return self.city.projection

    def build_csd(self) -> CitySemanticDiagram:
        stays = [sp for st in self.trajectories for sp in st.stay_points]
        return build_csd(
            self.pois, stays, self.csd_config, self.projection
        )


def make_workload(
    n_pois: int = 12_000,
    n_passengers: int = 350,
    days: int = 7,
    extent_m: float = 6_000.0,
    seed: int = 7,
    csd_config: Optional[CSDConfig] = None,
) -> ExperimentWorkload:
    """Default benchmark workload (a 6 km downtown slice of the city).

    Sizes are the laptop-scale stand-in for the paper's 2.2e7 journeys
    and 1.2e6 POIs; every bench states the scale it ran at.  The default
    ``alpha`` is calibrated to 0.7 (paper: 0.8): the synthetic footfall
    field is steeper across a venue than real-city popularity, and the
    ratio test is data-dependent — see EXPERIMENTS.md.
    """
    city = CityModel.generate(extent_m=extent_m, seed=seed)
    if csd_config is None:
        csd_config = CSDConfig(alpha=0.7)
    pois = POIGenerator(city, seed=seed + 4).generate(n_pois)
    taxi = ShanghaiTaxiSimulator(city, seed=seed + 16).simulate(
        n_passengers=n_passengers, days=days
    )
    return ExperimentWorkload(
        city=city,
        pois=pois,
        taxi=taxi,
        trajectories=taxi.mining_trajectories(),
        csd_config=csd_config,
    )


class ApproachRunner:
    """Caches per-recognizer outputs so sweeps only re-run extraction."""

    def __init__(self, workload: ExperimentWorkload) -> None:
        self.workload = workload
        self._csd: Optional[CitySemanticDiagram] = None
        self._recognized: Dict[str, List[SemanticTrajectory]] = {}
        self._reference: Optional[ReferenceSemantics] = None

    @property
    def csd(self) -> CitySemanticDiagram:
        if self._csd is None:
            self._csd = self.workload.build_csd()
        return self._csd

    def recognized(self, recognizer: str) -> List[SemanticTrajectory]:
        if recognizer not in self._recognized:
            csd = self.csd if recognizer == "CSD" else None
            self._recognized[recognizer] = recognize_for(
                recognizer,
                self.workload.pois,
                self.workload.trajectories,
                self.workload.csd_config,
                csd,
            )
        return self._recognized[recognizer]

    def reference(self) -> ReferenceSemantics:
        """CSD reference labels for the consistency metric (Eq. 11)."""
        if self._reference is None:
            self._reference = reference_semantics(self.recognized("CSD"))
        return self._reference

    def run(
        self, approach: Approach, mining_config: MiningConfig
    ) -> List[FineGrainedPattern]:
        return extract(
            approach,
            self.recognized(approach.recognizer),
            mining_config,
            self.workload.projection,
        )

    def metrics(
        self,
        approach: Approach,
        mining_config: MiningConfig,
        use_reference: bool = False,
    ) -> ApproachMetrics:
        """Run and summarise one approach.

        By default semantic consistency uses each approach's own labels
        (the paper's criticism of ROI is precisely that *its* labels
        disagree for nearby stay points); pass ``use_reference=True`` to
        judge every approach against the CSD labels instead.
        """
        patterns = self.run(approach, mining_config)
        return summarize_patterns(
            approach.name,
            patterns,
            self.workload.projection,
            reference=self.reference() if use_reference else None,
        )


def run_all_approaches(
    workload: ExperimentWorkload,
    mining_config: Optional[MiningConfig] = None,
    approaches: Optional[Sequence[Approach]] = None,
    runner: Optional[ApproachRunner] = None,
) -> Dict[str, ApproachMetrics]:
    """All (or selected) approaches on one workload -> name -> metrics."""
    mining_config = mining_config or MiningConfig()
    runner = runner or ApproachRunner(workload)
    out: Dict[str, ApproachMetrics] = {}
    for approach in approaches or APPROACHES:
        out[approach.name] = runner.metrics(approach, mining_config)
    return out


def sweep_parameter(
    workload: ExperimentWorkload,
    parameter: str,
    values: Sequence,
    base_config: Optional[MiningConfig] = None,
    approaches: Optional[Sequence[Approach]] = None,
    runner: Optional[ApproachRunner] = None,
) -> Dict[str, List[ApproachMetrics]]:
    """Figures 11-13: vary one MiningConfig field, rerun all approaches.

    Returns ``name -> [metrics at values[0], metrics at values[1], ...]``.
    Recognition is computed once per recognizer and shared across the
    entire sweep (pass a ``runner`` to share it across sweeps too).
    """
    base_config = base_config or MiningConfig()
    if not hasattr(base_config, parameter):
        raise ValueError(f"MiningConfig has no field {parameter!r}")
    runner = runner or ApproachRunner(workload)
    out: Dict[str, List[ApproachMetrics]] = {
        a.name: [] for a in (approaches or APPROACHES)
    }
    for value in values:
        config = replace(base_config, **{parameter: value})
        for approach in approaches or APPROACHES:
            out[approach.name].append(runner.metrics(approach, config))
    return out
