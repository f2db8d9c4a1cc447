"""Synthetic Shanghai datasets standing in for the paper's proprietary data.

The paper evaluates on 2.2e7 Shanghai taxi journeys (April 2015) and a
1.2e6-entry AMAP POI snapshot, neither of which is publicly available.
This package builds the closest laptop-scale equivalents:

- :mod:`repro.data.categories` — the 15 major / 98 minor POI taxonomy
  with Table 3's category proportions;
- :mod:`repro.data.city` — a synthetic city plan with semantic blocks and
  multi-purpose skyscrapers (the two homogeneity cases of Definition 3);
- :mod:`repro.data.poi` — POI placement inside that plan;
- :mod:`repro.data.taxi` — an agent-based taxi-trip simulator producing
  pick-up/drop-off stay points with GPS noise and card-linked passengers;
- :mod:`repro.data.checkins` — a biased check-in simulator that recreates
  Table 1's semantic-bias phenomenon;
- :mod:`repro.data.io` — CSV round-trips for every dataset.
"""

from repro.data.categories import (
    CATEGORY_TABLE,
    MAJOR_CATEGORIES,
    MINOR_CATEGORIES,
    category_distribution,
)
from repro.data.city import CityModel, CityBlock, Skyscraper
from repro.data.checkins import CheckinSimulator, CityCheckinProfile
from repro.data.poi import POI, POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator, TaxiDataset, TaxiTrip
from repro.data.trajectory import (
    GPSPoint,
    SemanticTrajectory,
    StayPoint,
    Trajectory,
)

__all__ = [
    "CATEGORY_TABLE",
    "CheckinSimulator",
    "CityBlock",
    "CityCheckinProfile",
    "CityModel",
    "GPSPoint",
    "MAJOR_CATEGORIES",
    "MINOR_CATEGORIES",
    "POI",
    "POIGenerator",
    "SemanticTrajectory",
    "ShanghaiTaxiSimulator",
    "Skyscraper",
    "StayPoint",
    "TaxiDataset",
    "TaxiTrip",
    "Trajectory",
    "category_distribution",
]
