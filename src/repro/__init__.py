"""Reproduction of "Extract Human Mobility Patterns Powered by City
Semantic Diagram" (Shan, Sun, Zheng) -- the Pervasive Miner system.

Quick start::

    from repro import CityModel, POIGenerator, ShanghaiTaxiSimulator
    from repro import PervasiveMiner

    city = CityModel.generate()
    pois = POIGenerator(city).generate(5000)
    data = ShanghaiTaxiSimulator(city).simulate(n_passengers=300, days=7)
    result = PervasiveMiner().mine(pois, data.mining_trajectories())
    for pattern in result.patterns:
        print(pattern.items, pattern.support)

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md``
for the paper-versus-measured record of every table and figure.
"""

from repro.core import (
    CSDConfig,
    CSDRecognizer,
    CitySemanticDiagram,
    FineGrainedPattern,
    MiningConfig,
    MiningResult,
    PervasiveMiner,
    SemanticUnit,
    build_csd,
    counterpart_cluster,
    detect_stay_points,
)
from repro.core.patterns import (
    bucket_patterns,
    rank_patterns,
    route_label,
)
from repro.core.query import PatternMatcher
from repro.data import (
    POI,
    CityModel,
    GPSPoint,
    POIGenerator,
    SemanticTrajectory,
    ShanghaiTaxiSimulator,
    StayPoint,
    TaxiDataset,
    Trajectory,
)

__version__ = "1.0.0"

__all__ = [
    "CSDConfig",
    "CSDRecognizer",
    "CityModel",
    "CitySemanticDiagram",
    "FineGrainedPattern",
    "GPSPoint",
    "MiningConfig",
    "MiningResult",
    "POI",
    "POIGenerator",
    "PatternMatcher",
    "PervasiveMiner",
    "SemanticTrajectory",
    "SemanticUnit",
    "ShanghaiTaxiSimulator",
    "StayPoint",
    "TaxiDataset",
    "Trajectory",
    "bucket_patterns",
    "build_csd",
    "counterpart_cluster",
    "detect_stay_points",
    "rank_patterns",
    "route_label",
    "__version__",
]
