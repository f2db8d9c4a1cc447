"""POI model and generator (stand-in for the paper's AMAP snapshot).

Definition 2: a POI is ``{id, p, s}`` — identity, location, semantic
property.  The generator samples major categories with Table 3
proportions and places POIs with two spatial regimes:

- *plaza clusters*: each city block contains a few dense same-category
  clusters (sigma ~ 12 m), so Algorithm 1 finds groups of at least
  ``MinPts_p`` POIs within ``eps_p = 30 m``;
- *skyscraper stacks*: mixed-category POIs within an 8 m footprint,
  exercising the ``d_v`` branch of Algorithm 1 and the purification step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.categories import (
    MAJOR_CATEGORIES,
    MINOR_CATEGORIES,
    category_distribution,
)
from repro.data.city import CityBlock, CityModel
from repro.data.trajectory import SemanticProperty
from repro.types import LonLat, LonLatArray


@dataclass(frozen=True)
class POI:
    """Point of Interest ``p^I = {id, p, s}`` (Definition 2)."""

    poi_id: int
    lon: float
    lat: float
    major: str
    minor: str
    name: str = ""

    @property
    def semantics(self) -> SemanticProperty:
        """Semantic property: the major category as a one-tag set."""
        return frozenset((self.major,))

    def tag(self, level: str) -> str:
        """The category at semantic ``level``, ``"major"`` or ``"minor"``."""
        return self.major if level == "major" else self.minor

    def lonlat(self) -> LonLat:
        return (self.lon, self.lat)


def poi_lonlat_array(pois: Sequence[POI]) -> LonLatArray:
    """``(n, 2)`` lon/lat array for a POI sequence."""
    return np.array([[p.lon, p.lat] for p in pois], dtype=float).reshape(-1, 2)


class POIGenerator:
    """Synthesises a POI dataset over a :class:`CityModel`.

    Parameters
    ----------
    city:
        The shared city plan (placement geometry).
    seed:
        Seed for the private RNG; same seed + same city => same POIs.
    plaza_sigma_m:
        Gaussian spread of a plaza cluster, metres.
    stray_fraction:
        Probability that a POI ignores plazas and lands uniformly in its
        block (the "left-over" POIs of Figure 3 that Algorithm 1 cannot
        cluster and the merging step later sweeps up).
    mixing_fraction:
        Probability that a POI lands in a block of a *different* zone —
        the restaurant inside a residential quarter, the shop on an
        office street.  This is the semantic-complexity knob: without it
        every block is category-pure and neither purification nor the
        ROI baseline's weakness have anything to act on.
    """

    def __init__(
        self,
        city: CityModel,
        seed: int = 11,
        plaza_sigma_m: float = 12.0,
        stray_fraction: float = 0.12,
        mixing_fraction: float = 0.2,
    ) -> None:
        if not 0.0 <= stray_fraction <= 1.0:
            raise ValueError("stray_fraction must be a probability")
        if not 0.0 <= mixing_fraction <= 1.0:
            raise ValueError("mixing_fraction must be a probability")
        self.city = city
        self.seed = seed
        self.plaza_sigma_m = plaza_sigma_m
        self.stray_fraction = stray_fraction
        self.mixing_fraction = mixing_fraction

    # -- internals -------------------------------------------------------

    def _sample_in_block(
        self, block: CityBlock, rng: np.random.Generator
    ) -> Tuple[float, float]:
        if rng.random() < self.stray_fraction:
            return block.sample_point(rng)
        plazas = self.city.plazas(block)
        px, py = plazas[int(rng.integers(len(plazas)))]
        x = px + rng.normal(0.0, self.plaza_sigma_m)
        y = py + rng.normal(0.0, self.plaza_sigma_m)
        half = block.half
        x = float(np.clip(x, block.cx - half, block.cx + half))
        y = float(np.clip(y, block.cy - half, block.cy + half))
        return x, y

    def _minor_for(self, major: str, rng: np.random.Generator) -> str:
        minors = MINOR_CATEGORIES[major]
        return minors[int(rng.integers(len(minors)))]

    # -- public API --------------------------------------------------------

    def generate(
        self,
        n_pois: int,
        skyscraper_pois_each: int = 12,
        category_mix: Optional[Dict[str, float]] = None,
    ) -> List[POI]:
        """Generate ``n_pois`` POIs (plus skyscraper stacks).

        ``category_mix`` overrides the Table 3 distribution; it must map
        major categories to non-negative weights.
        """
        if n_pois < 0:
            raise ValueError("n_pois must be non-negative")
        rng = np.random.default_rng(self.seed)
        mix = category_mix or category_distribution()
        unknown = set(mix) - set(MAJOR_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown categories in mix: {sorted(unknown)}")
        names = list(mix)
        weights = np.array([mix[n] for n in names], dtype=float)
        if weights.sum() <= 0:
            raise ValueError("category mix must have positive total weight")
        weights /= weights.sum()

        pois: List[POI] = []
        poi_id = 0
        # Skyscraper stacks first: mixed categories, near-identical spots.
        for tower in self.city.skyscrapers:
            for j in range(skyscraper_pois_each):
                major = tower.categories[j % len(tower.categories)]
                dx, dy = rng.normal(0.0, tower.footprint_radius / 2.0, 2)
                lon, lat = self.city.projection.to_lonlat(
                    tower.x + dx, tower.y + dy
                )
                pois.append(
                    POI(
                        poi_id,
                        lon,
                        lat,
                        major,
                        self._minor_for(major, rng),
                        name=f"tower{tower.tower_id}-{j}",
                    )
                )
                poi_id += 1

        # Zoned POIs with Table 3 category proportions.
        majors = rng.choice(names, size=n_pois, p=weights)
        for major in majors:
            major = str(major)
            blocks = self.city.blocks_of(major)
            if rng.random() < self.mixing_fraction or not blocks:
                block = self.city.blocks[int(rng.integers(len(self.city.blocks)))]
            else:
                block = blocks[int(rng.integers(len(blocks)))]
            x, y = self._sample_in_block(block, rng)
            lon, lat = self.city.projection.to_lonlat(x, y)
            pois.append(
                POI(
                    poi_id,
                    lon,
                    lat,
                    major,
                    self._minor_for(major, rng),
                    name=f"poi{poi_id}",
                )
            )
            poi_id += 1
        return pois
