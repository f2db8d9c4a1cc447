"""POI popularity from stay-point density (Equations 2 and 3).

The popularity of a POI is the summed Gaussian coefficient of every stay
point within ``R_3sigma``; stay points are the pick-up/drop-off events
of the whole taxi corpus, so popularity approximates visit likelihood
while staying robust to GPS noise.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import GridIndex
from repro.types import Float64Array, MetersArray


@array_contract(
    poi_xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    stay_xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    ret=ArraySpec(
        dtype="float64", ndim=1, finite=True, same_length_as="poi_xy"
    ),
)
def compute_popularity(
    poi_xy: MetersArray, stay_xy: MetersArray, r3sigma: float
) -> Float64Array:
    """Popularity ``pop(p^I)`` for every POI (Eq. 3).

    Parameters
    ----------
    poi_xy:
        ``(n, 2)`` POI coordinates in metres.
    stay_xy:
        ``(m, 2)`` stay-point coordinates in metres.
    r3sigma:
        Gaussian 3-sigma radius; stay points beyond it contribute nothing.
    """
    pois = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    stays = np.asarray(stay_xy, dtype=float).reshape(-1, 2)
    if r3sigma <= 0:
        raise ValueError("r3sigma must be positive")
    pop = np.zeros(len(pois), dtype=np.float64)
    if len(stays) == 0 or len(pois) == 0:
        return pop
    index = GridIndex(stays, cell_size=r3sigma)
    # One batched range query per block of POIs, then one weighted
    # bincount.  bincount accumulates sequentially in hit order and a
    # block holds each POI's hits whole, so every POI's sum is the
    # left-to-right sum of its hits whatever the blocks.
    # reprolint: allow-loop -- memory blocking over POIs.
    for start, stop in index.blocks(pois, r3sigma):
        hit_idx, offsets = index.query_radius_many(pois[start:stop], r3sigma)
        poi_of = np.repeat(
            np.arange(stop - start, dtype=np.int64), np.diff(offsets)
        )
        d = np.sqrt(
            ((stays[hit_idx] - pois[start:stop][poi_of]) ** 2).sum(axis=1)
        )
        pop[start:stop] = np.bincount(
            poi_of,
            weights=gaussian_coefficients(d, r3sigma),
            minlength=stop - start,
        )
    return pop
