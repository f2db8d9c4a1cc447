"""Synthetic city plan used to place POIs and anchor passenger routines.

The plan models the two spatial regularities that motivate Definition 3:

- *semantic homogeneity* — the city is a road grid of rectangular blocks,
  each zoned for a dominant major category (a residential quarter, a
  shopping street, an office district, ...), so POIs near each other tend
  to share semantics;
- *spatial homogeneity* — selected blocks contain multi-purpose
  skyscrapers: vertical stacks of POIs of very different categories
  within a footprint smaller than the paper's ``d_v = 15 m`` threshold
  (the Shanghai Tower case).

A handful of special venues (airport, railway station, children's
hospital) reproduce the Figure 14(g)/(h) case studies.  All geometry is
generated in local metres and exposed in both metres and lon/lat through
the city's :class:`~repro.geo.LocalProjection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.categories import MAJOR_CATEGORIES
from repro.geo.projection import LocalProjection
from repro.types import MetersArray, MetersXY

#: Anchor of the synthetic city, roughly People's Square, Shanghai.
SHANGHAI_LON = 121.47
SHANGHAI_LAT = 31.23

#: Zoning mixture per ring distance from the centre (fractions of blocks).
_CENTRAL_ZONING = [
    ("Business & Office", 0.30),
    ("Shop & Market", 0.22),
    ("Restaurant", 0.16),
    ("Entertainment", 0.10),
    ("Financial Service", 0.07),
    ("Accommodation & Hotel", 0.06),
    ("Public Service", 0.05),
    ("Tourism", 0.04),
]
_MIDDLE_ZONING = [
    ("Residence", 0.38),
    ("Shop & Market", 0.14),
    ("Restaurant", 0.12),
    ("Business & Office", 0.10),
    ("Technology & Education", 0.08),
    ("Entertainment", 0.06),
    ("Public Service", 0.05),
    ("Sports", 0.04),
    ("Government Agency", 0.03),
]
_OUTER_ZONING = [
    ("Residence", 0.48),
    ("Industry", 0.16),
    ("Shop & Market", 0.10),
    ("Public Service", 0.08),
    ("Technology & Education", 0.06),
    ("Restaurant", 0.06),
    ("Traffic Stations", 0.06),
]


@dataclass(frozen=True)
class CityBlock:
    """One zoned rectangular block of the road grid."""

    block_id: int
    cx: float          # centre east offset, metres
    cy: float          # centre north offset, metres
    half: float        # half edge length of the buildable square, metres
    category: str      # dominant major category of the block
    venue: Optional[str] = None  # special venue label, e.g. "airport"

    def contains(self, x: float, y: float) -> bool:
        return abs(x - self.cx) <= self.half and abs(y - self.cy) <= self.half

    def sample_point(self, rng: np.random.Generator) -> MetersXY:
        """Uniform point inside the buildable square of this block."""
        x = self.cx + rng.uniform(-self.half, self.half)
        y = self.cy + rng.uniform(-self.half, self.half)
        return x, y


@dataclass(frozen=True)
class Skyscraper:
    """A multi-purpose tower: many categories stacked on one footprint."""

    tower_id: int
    x: float
    y: float
    categories: Tuple[str, ...]
    footprint_radius: float = 8.0  # POIs scatter within this radius (m)


@dataclass
class CityModel:
    """Zoned block grid + skyscrapers + special venues.

    Build one with :meth:`generate`; it is then shared by the POI
    generator and the taxi simulator so venues, homes, and workplaces
    all agree on geography.
    """

    projection: LocalProjection
    blocks: List[CityBlock]
    skyscrapers: List[Skyscraper]
    extent_m: float
    block_size_m: float
    blocks_by_category: Dict[str, List[CityBlock]] = field(default_factory=dict)
    seed: int = 7
    plazas_per_block: int = 5
    _plaza_cache: Dict[int, MetersArray] = field(default_factory=dict, repr=False)

    def plazas(self, block: CityBlock, clearance_m: float = 24.0) -> MetersArray:
        """Deterministic activity hot-spot centres of a block, ``(k, 2)`` m.

        Both the POI generator and the taxi simulator anchor to these
        plazas, so stay points land near the POIs that explain them —
        the correlation the recognition step exploits.
        """
        cached = self._plaza_cache.get(block.block_id)
        if cached is not None:
            return cached
        rng = np.random.default_rng(self.seed * 100_003 + block.block_id)
        margin = max(block.half - clearance_m, 1.0)
        xs = block.cx + rng.uniform(-margin, margin, self.plazas_per_block)
        ys = block.cy + rng.uniform(-margin, margin, self.plazas_per_block)
        plazas = np.stack([xs, ys], axis=1)
        self._plaza_cache[block.block_id] = plazas
        return plazas

    @classmethod
    def generate(
        cls,
        extent_m: float = 12_000.0,
        block_size_m: float = 400.0,
        road_width_m: float = 30.0,
        skyscraper_rate: float = 0.08,
        seed: int = 7,
        origin_lon: float = SHANGHAI_LON,
        origin_lat: float = SHANGHAI_LAT,
    ) -> "CityModel":
        """Generate a city plan.

        Parameters
        ----------
        extent_m:
            Edge length of the square city, metres.
        block_size_m:
            Grid pitch; each block's buildable square is the pitch minus
            the road width.
        skyscraper_rate:
            Fraction of central blocks hosting a mixed-use tower.
        """
        if extent_m <= 0 or block_size_m <= 0:
            raise ValueError("extent and block size must be positive")
        if block_size_m <= road_width_m:
            raise ValueError("block size must exceed road width")
        rng = np.random.default_rng(seed)
        n_side = max(3, int(extent_m // block_size_m))
        half_city = n_side * block_size_m / 2.0
        half_block = (block_size_m - road_width_m) / 2.0

        blocks: List[CityBlock] = []
        block_id = 0
        for gy in range(n_side):
            for gx in range(n_side):
                cx = -half_city + (gx + 0.5) * block_size_m
                cy = -half_city + (gy + 0.5) * block_size_m
                ring = max(abs(cx), abs(cy)) / half_city  # 0 centre .. 1 edge
                category = _draw_zone_category(ring, rng)
                blocks.append(
                    CityBlock(block_id, cx, cy, half_block, category)
                )
                block_id += 1

        blocks = _assign_special_venues(blocks, half_city, rng)
        skyscrapers = _place_skyscrapers(
            blocks, half_city, skyscraper_rate, rng
        )

        by_cat: Dict[str, List[CityBlock]] = {c: [] for c in MAJOR_CATEGORIES}
        for block in blocks:
            by_cat[block.category].append(block)
        # Guarantee every category has at least one home block so the POI
        # generator never strands a Table 3 category.
        homeless = [c for c, lst in by_cat.items() if not lst]
        ordinary = [b for b in blocks if b.venue is None]
        for cat in homeless:
            victim = ordinary[int(rng.integers(len(ordinary)))]
            replacement = CityBlock(
                victim.block_id, victim.cx, victim.cy, victim.half, cat
            )
            blocks[victim.block_id] = replacement
            by_cat[victim.category].remove(victim)
            by_cat[cat].append(replacement)
            ordinary = [b for b in blocks if b.venue is None]

        return cls(
            projection=LocalProjection(origin_lon, origin_lat),
            blocks=blocks,
            skyscrapers=skyscrapers,
            extent_m=n_side * block_size_m,
            block_size_m=block_size_m,
            blocks_by_category=by_cat,
            seed=seed,
        )

    # -- lookup helpers -------------------------------------------------

    def blocks_of(self, category: str) -> List[CityBlock]:
        """Blocks zoned for ``category`` (may be empty only for venues)."""
        return self.blocks_by_category.get(category, [])

    def venue_block(self, venue: str) -> CityBlock:
        """The special-venue block with label ``venue``.

        Raises ``KeyError`` when the venue does not exist.
        """
        for block in self.blocks:
            if block.venue == venue:
                return block
        raise KeyError(f"no venue named {venue!r}")

    @property
    def venues(self) -> Dict[str, CityBlock]:
        return {b.venue: b for b in self.blocks if b.venue is not None}


def _draw_zone_category(ring: float, rng: np.random.Generator) -> str:
    """Sample a block category for the given normalised ring distance."""
    if ring < 0.33:
        zoning = _CENTRAL_ZONING
    elif ring < 0.7:
        zoning = _MIDDLE_ZONING
    else:
        zoning = _OUTER_ZONING
    names = [n for n, _w in zoning]
    weights = np.array([w for _n, w in zoning], dtype=float)
    weights /= weights.sum()
    return str(rng.choice(names, p=weights))


def _assign_special_venues(
    blocks: List[CityBlock], half_city: float, rng: np.random.Generator
) -> List[CityBlock]:
    """Rezone fixed blocks into the Figure 14 case-study venues."""
    venue_specs = [
        # (venue label, category, preferred corner as sign pair)
        ("airport", "Traffic Stations", (1, 1)),
        ("railway_station", "Traffic Stations", (-1, 1)),
        ("childrens_hospital", "Medical Service", (-1, -1)),
        ("university", "Technology & Education", (1, -1)),
    ]
    out = list(blocks)
    for venue, category, (sx, sy) in venue_specs:
        target_x = sx * half_city * 0.82
        target_y = sy * half_city * 0.82
        best = min(
            range(len(out)),
            key=lambda i: (out[i].cx - target_x) ** 2
            + (out[i].cy - target_y) ** 2,
        )
        b = out[best]
        out[best] = CityBlock(b.block_id, b.cx, b.cy, b.half, category, venue)
    return out


def _place_skyscrapers(
    blocks: Sequence[CityBlock],
    half_city: float,
    rate: float,
    rng: np.random.Generator,
) -> List[Skyscraper]:
    """Mixed-use towers in central blocks (the Shanghai Tower pattern)."""
    mixed_pool = [
        "Business & Office", "Shop & Market", "Restaurant",
        "Accommodation & Hotel", "Entertainment", "Traffic Stations",
        "Financial Service",
    ]
    towers: List[Skyscraper] = []
    tower_id = 0
    for block in blocks:
        ring = max(abs(block.cx), abs(block.cy)) / half_city
        if block.venue is None and ring < 0.4 and rng.random() < rate:
            x, y = block.sample_point(rng)
            k = int(rng.integers(3, 6))
            cats = tuple(
                rng.choice(mixed_pool, size=k, replace=False).tolist()
            )
            towers.append(Skyscraper(tower_id, x, y, cats))
            tower_id += 1
    return towers
