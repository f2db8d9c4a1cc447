"""Semantic Diagram Constructor (Section 4.1).

Three steps build the City Semantic Diagram from a POI dataset and the
corpus of stay points:

1. :func:`popularity_based_clustering` — Algorithm 1;
2. :func:`~repro.core.purification.purify` — Algorithm 2;
3. :func:`~repro.core.merging.merge_units` — cosine-similarity merging.

:func:`build_csd` chains all three and returns a
:class:`~repro.core.csd.CitySemanticDiagram`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.contracts import ArraySpec, SameLength, array_contract
from repro.core.config import CSDConfig
from repro.core.csd import (
    UNASSIGNED,
    CitySemanticDiagram,
    SemanticUnit,
    project_pois,
    tag_codes,
)
from repro.core.merging import flatten_units, merge_units, unit_distributions
from repro.core.popularity import compute_popularity
from repro.core.purification import purify
from repro.data.poi import POI
from repro.data.trajectory import StayPoint
from repro.geo.index import GridIndex, pair_blocks
from repro.geo.projection import LocalProjection
from repro.obs import get_registry
from repro.types import BoolArray, Float64Array, IndexArray, MetersArray

#: Additive smoothing of the Algorithm 1 popularity-ratio test; one
#: distant stay point contributes ~1e-5, so 1e-3 only defuses the ratio
#: where both POIs are essentially unvisited.
POP_EPSILON = 1e-3


@array_contract(
    poi_xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    popularity=ArraySpec(
        dtype="float64", ndim=1, finite=True, same_length_as="poi_xy"
    ),
)
def popularity_based_clustering(
    poi_xy: MetersArray,
    poi_tags: Sequence[str],
    popularity: Float64Array,
    config: CSDConfig,
) -> Tuple[List[List[int]], List[int]]:
    """Algorithm 1: coarse clusters of similar-popularity POIs.

    Expansion is anchored at the seed POI: a candidate joins when its
    popularity is within the ``alpha`` ratio band of the seed's and it is
    either vertically stacked with the seed (``d <= d_v``, the
    multi-purpose-skyscraper branch) or shares the seed's semantics.
    Returns ``(clusters, leftovers)`` where clusters of fewer than
    ``MinPts_p`` members are dissolved back into leftovers.
    """
    pts = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    tags = list(poi_tags)
    pop = np.asarray(popularity, dtype=float)
    if len(tags) != n or len(pop) != n:
        raise ValueError("poi arrays must align")
    if n == 0:
        return [], []

    index = GridIndex(pts, cell_size=max(config.eps_p_m, 1.0))
    # Every neighbourhood Algorithm 1 ever asks for is an eps_p query
    # anchored at an indexed POI, so prefetch them all in one batched
    # CSR query instead of re-querying per visited point.
    nbr_idx, nbr_off = index.query_radius_many(pts, config.eps_p_m)
    # Integer tag codes so the semantics test is an array compare, not
    # n string comparisons.
    codes = tag_codes(tags)[1]
    xs = np.ascontiguousarray(pts[:, 0], dtype=np.float64)
    ys = np.ascontiguousarray(pts[:, 1], dtype=np.float64)
    d_v2 = config.d_v_m ** 2

    def seed_compatible(
        seed: Union[int, IndexArray], candidates: IndexArray
    ) -> BoolArray:
        """Algorithm 1 lines 5-6 against the seed, element for element
        — the same ``lo / hi`` division as :func:`_popularity_compatible`
        (``lo >= alpha * hi`` is *not* always IEEE-equal).  ``seed`` is
        one index or one per candidate."""
        seed_pop, cand_pop = pop[seed], pop[candidates]
        hi = np.maximum(seed_pop, cand_pop) + POP_EPSILON
        lo = np.minimum(seed_pop, cand_pop) + POP_EPSILON
        dx = xs[candidates] - xs[seed]
        dy = ys[candidates] - ys[seed]
        return (lo / hi >= config.alpha) & (
            (dx ** 2 + dy ** 2 <= d_v2) | (codes[candidates] == codes[seed])
        )

    # A seed's first frontier is its own prefetched neighbourhood, so
    # its test runs once over every CSR pair, one block of pairs at a
    # time, leaving each seed's compatible neighbours as a CSR of their
    # own.  Seeds with none (a sixth of the POIs at 12k) then skip the
    # BFS entirely.
    ok_parts = []
    ok_count = np.empty(n, dtype=np.int64)
    # reprolint: allow-loop -- memory blocking over seeds.
    for start, stop in pair_blocks(np.diff(nbr_off)):
        cand = nbr_idx[nbr_off[start] : nbr_off[stop]]
        pair_seed = np.repeat(
            np.arange(start, stop, dtype=np.int64),
            np.diff(nbr_off[start : stop + 1]),
        )
        # Each neighbourhood holds its own centre, which passes trivially.
        pair_ok = seed_compatible(pair_seed, cand) & (cand != pair_seed)
        ok_parts.append(cand[pair_ok])
        ok_count[start:stop] = np.bincount(
            pair_seed[pair_ok] - start, minlength=stop - start
        )
    ok_idx = np.concatenate(ok_parts)
    ok_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ok_count, out=ok_off[1:])
    has_compatible = ok_off[1:] > ok_off[:-1]
    remaining = np.ones(n, dtype=bool)
    # Per-seed visited marker without a per-seed O(n) allocation:
    # ``stamp[k] == seed`` means k was already considered for this seed.
    stamp = np.full(n, -1, dtype=np.int64)
    count = get_registry().enabled
    clusters: List[List[int]] = []
    leftovers: List[int] = []
    rounds = 0
    candidates_tested = 0

    for seed in range(n):
        if not remaining[seed]:
            continue
        remaining[seed] = False
        members = [np.array([seed], dtype=np.int64)]
        first = nbr_idx[nbr_off[seed] : nbr_off[seed + 1]]
        if count:
            n_live = int(np.count_nonzero(remaining[first]))
            rounds += n_live > 0
            candidates_tested += n_live
        if has_compatible[seed]:
            stamp[first] = seed
            accepted = ok_idx[ok_off[seed] : ok_off[seed + 1]]
            accepted = accepted[remaining[accepted]]
        else:
            accepted = first[:0]
        # Level-synchronous BFS.  Every candidate is tested against the
        # *seed* (Algorithm 1 anchors the popularity band and the
        # semantics at the seed POI), so acceptance is independent of
        # visit order and whole frontiers can be tested as one array —
        # the cluster is the same closure the old per-point deque walk
        # produced, point for point.
        while len(accepted):
            remaining[accepted] = False
            members.append(accepted)
            # CSR multi-gather of the accepted points' neighbourhoods
            # (each holds at least the point itself).
            ends = nbr_off[accepted + 1]
            counts = ends - nbr_off[accepted]
            filled = np.cumsum(counts)
            positions = np.repeat(ends - filled, counts) + np.arange(
                filled[-1], dtype=np.int64
            )
            nxt = nbr_idx[positions]
            nxt = nxt[remaining[nxt] & (stamp[nxt] != seed)]
            if len(nxt) == 0:
                break
            frontier = np.unique(nxt)
            rounds += 1
            candidates_tested += len(frontier)
            stamp[frontier] = seed
            accepted = frontier[seed_compatible(seed, frontier)]
        if len(members) == 1:
            cluster = members[0]
        else:
            cluster = np.sort(np.concatenate(members))
        if len(cluster) >= config.min_pts:
            clusters.append(cluster.tolist())
        else:
            leftovers.extend(cluster.tolist())

    if count:
        reg = get_registry()
        reg.counter("constructor.clustering.rounds").inc(rounds)
        reg.counter("constructor.clustering.candidates").inc(
            candidates_tested
        )
    leftovers.extend(int(i) for i in np.flatnonzero(remaining))
    return clusters, sorted(leftovers)


def _popularity_compatible(
    pop_a: float, pop_b: float, alpha: float, epsilon: float
) -> bool:
    """Two-sided ratio test of Algorithm 1 line 5, smoothed near zero.

    ``epsilon`` keeps the test meaningful for barely-visited POIs where
    the raw ratio of two tiny popularities is pure noise.  The frontier
    loop in :func:`popularity_based_clustering` applies this same test
    vectorised (same ``lo / hi`` division, element for element); this
    scalar form is the documented reference and is what the unit tests
    exercise directly.
    """
    hi = max(pop_a, pop_b) + epsilon
    lo = min(pop_a, pop_b) + epsilon
    return lo / hi >= alpha


@array_contract(
    poi_xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    popularity=ArraySpec(
        dtype="float64", ndim=1, finite=True, same_length_as="tags"
    ),
    ret=SameLength(of="final"),
)
def semantic_units(
    final: Sequence[Sequence[int]],
    poi_xy: MetersArray,
    tags: Sequence[str],
    popularity: Float64Array,
) -> List[SemanticUnit]:
    """The :class:`SemanticUnit` of each final membership list, with
    ids in list order and the Eq. 6 distribution of its members."""
    distributions = unit_distributions(final, tags, popularity)
    units: List[SemanticUnit] = []
    # reprolint: allow-loop -- one output object per unit.
    for unit_id, (members, distribution) in enumerate(zip(final, distributions)):
        xy = poi_xy[members]
        units.append(
            SemanticUnit(
                unit_id=unit_id,
                poi_indices=list(members),
                centroid_xy=(float(xy[:, 0].mean()), float(xy[:, 1].mean())),
                semantic_distribution=distribution,
            )
        )
    return units


def build_csd(
    pois: Sequence[POI],
    stay_points: Sequence[StayPoint],
    config: Optional[CSDConfig] = None,
    projection: Optional[LocalProjection] = None,
) -> CitySemanticDiagram:
    """Run the full Semantic Diagram Constructor.

    ``stay_points`` is the whole corpus of pick-up/drop-off events; it
    only feeds the popularity model (Eq. 3), not the mining itself.
    """
    config = config or CSDConfig()
    reg = get_registry()
    projection, poi_xy = project_pois(pois, projection)
    stay_lonlat = np.array(
        [[sp.lon, sp.lat] for sp in stay_points], dtype=float
    ).reshape(-1, 2)
    stay_xy = projection.to_meters_array(stay_lonlat)
    with reg.timer("constructor.popularity"):
        popularity = compute_popularity(poi_xy, stay_xy, config.r3sigma_m)
    tags = [p.tag(config.semantic_level) for p in pois]

    with reg.timer("constructor.clustering"):
        coarse, leftovers = popularity_based_clustering(
            poi_xy, tags, popularity, config
        )
    with reg.timer("constructor.purification"):
        pure = purify(
            coarse, poi_xy, tags, config.v_min_m2, config.r3sigma_m
        )
    with reg.timer("constructor.merging"):
        final = merge_units(
            pure,
            leftovers,
            poi_xy,
            tags,
            popularity,
            config.merge_cos,
            config.merge_radius_m,
        )
    if reg.enabled:
        reg.counter("constructor.pois.total").inc(len(pois))
        reg.counter("constructor.units.coarse").inc(len(coarse))
        reg.counter("constructor.units.pure").inc(len(pure))
        reg.counter("constructor.units.final").inc(len(final))
        reg.counter("constructor.pois.clustered").inc(
            sum(len(c) for c in coarse)
        )
        reg.counter("constructor.pois.leftover").inc(len(leftovers))
        reg.counter("constructor.pois.purified").inc(
            sum(len(u) for u in pure)
        )
        reg.counter("constructor.pois.merged").inc(
            sum(len(u) for u in final)
        )

    unit_of = np.full(len(pois), UNASSIGNED, dtype=np.int64)
    members, owner = flatten_units(final)
    unit_of[members] = owner
    units = semantic_units(final, poi_xy, tags, popularity)
    return CitySemanticDiagram(
        pois, projection, poi_xy, popularity, units, unit_of,
        tag_level=config.semantic_level,
    )
