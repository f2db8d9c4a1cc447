"""Equivalence regressions: batched kernels vs. the seed loop paths.

The CSR rewrite of the spatial kernel promises *bit-identical* results,
not merely close ones: the batched queries return the same sorted hit
sets, and the ``np.bincount`` accumulations add contributions in the
same left-to-right order the seed loops did.  These tests keep the seed
per-point implementations alive as reference oracles and compare
exactly — no tolerances.
"""

import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cluster.meanshift import estimate_bandwidth
from repro.cluster.optics import (
    MAX_EPS_M,
    OpticsResult,
    extract_valley_clusters,
    optics,
)
from repro.core import constructor, extraction, merging, purification
from repro.core.config import CSDConfig
from repro.core.constructor import (
    build_csd,
    popularity_based_clustering,
    semantic_units,
)
from repro.core.csd import UNASSIGNED, CitySemanticDiagram, SemanticUnit
from repro.core.extraction import FineGrainedPattern
from repro.core.merging import (
    _UnionFind,
    cosine_similarity,
    distribution_matrix,
    flatten_units,
    merge_units,
    unit_distributions,
)
from repro.core.popularity import compute_popularity
from repro.core.purification import (
    is_fine_grained,
    kl_divergences,
    purify,
    semantic_distributions,
)
from repro.core.recognition import CSDRecognizer, vote_stays
from repro.data.persistence import save_csd
from repro.data.poi import POI
from repro.data.trajectory import NO_SEMANTICS, SemanticTrajectory, StayPoint
from repro.eval.metrics import pattern_spatial_sparsity
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import GridIndex
from repro.geo.projection import LocalProjection
from repro.geo.stats import mean_pairwise_distance, medoid_index

MAJORS = [
    "Restaurant",
    "Sports",
    "Medical Service",
    "Shop & Market",
    "Business & Office",
]


def popularity_loop_oracle(poi_xy, stay_xy, r3sigma):
    """The seed per-POI loop (pre-CSR ``compute_popularity``).

    Accumulates each POI's contributions sequentially, which is the
    exact summation order of the batched ``np.bincount`` path.
    """
    pois = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    stays = np.asarray(stay_xy, dtype=float).reshape(-1, 2)
    index = GridIndex(stays, cell_size=r3sigma)
    pop = np.zeros(len(pois))
    for i, (x, y) in enumerate(pois):
        hits = index.query_radius(x, y, r3sigma)
        if len(hits) == 0:
            continue
        d = np.sqrt(((stays[hits] - (x, y)) ** 2).sum(axis=1))
        total = 0.0
        for w in gaussian_coefficients(d, r3sigma):
            total += float(w)
        pop[i] = total
    return pop


def recognize_point_oracle(recognizer, sp):
    """The seed scalar ``recognize_point`` (dict-based voting)."""
    csd = recognizer.csd
    x, y = csd.projection.to_meters(sp.lon, sp.lat)
    hits = csd.range_query(x, y, recognizer.r3sigma_m)
    if len(hits) == 0:
        return NO_SEMANTICS
    d = np.sqrt(((csd.poi_xy[hits] - (x, y)) ** 2).sum(axis=1))
    weights = gaussian_coefficients(d, recognizer.r3sigma_m)
    votes = {}
    in_range_tags = {}
    for poi_idx, w in zip(hits, weights):
        unit_id = csd.find_semantic_unit(int(poi_idx))
        if unit_id == UNASSIGNED:
            continue
        score = float(csd.popularity[poi_idx]) * float(w)
        votes[unit_id] = votes.get(unit_id, 0.0) + score
        in_range_tags.setdefault(unit_id, set()).add(csd.poi_tag(int(poi_idx)))
    if not votes:
        return NO_SEMANTICS
    winner = min(votes, key=lambda uid: (-votes[uid], uid))
    unit = csd.unit(winner)
    distribution = unit.semantic_distribution
    tags = {
        tag
        for tag in in_range_tags[winner]
        if distribution.get(tag, 0.0) >= recognizer.min_tag_share
    }
    tags.add(unit.dominant_tag())
    return frozenset(tags)


def vote_stays_oracle(source, xy, r3sigma_m):
    """The grid-query ``vote_stays``: one ``GridIndex`` range query,
    then ``np.unique`` and a three-key ``lexsort`` over the hit list.

    Kept verbatim but for its first query line: the diagram method it
    called, ``range_query_many``, delegated to ``source._index``.
    """
    pts = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    winner_of = np.full(n, UNASSIGNED, dtype=np.int64)
    no_pairs = np.empty(0, dtype=np.int64)
    if n == 0:
        return winner_of, no_pairs, no_pairs.copy()
    hit_idx, offsets = source._index.query_radius_many(pts, r3sigma_m)
    if len(hit_idx) == 0:
        return winner_of, no_pairs, no_pairs.copy()
    stay_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    unit_ids = source.unit_of[hit_idx]
    keep = unit_ids != UNASSIGNED
    if not keep.any():
        return winner_of, no_pairs, no_pairs.copy()
    hit_idx = hit_idx[keep]
    stay_of = stay_of[keep]
    unit_ids = unit_ids[keep]
    d = np.sqrt(((source.poi_xy[hit_idx] - pts[stay_of]) ** 2).sum(axis=1))
    scores = source.popularity[hit_idx] * gaussian_coefficients(d, r3sigma_m)
    reg = obs.get_registry()
    if reg.enabled:
        reg.counter("recognition.votes.cast").inc(int(len(scores)))
    # Vote totals per (stay, unit) pair without per-point dicts.
    n_units = max(source.n_units, 1)
    pair = stay_of.astype(np.int64) * n_units + unit_ids
    upair, inverse = np.unique(pair, return_inverse=True)
    votes = np.bincount(inverse, weights=scores)
    vstay = upair // n_units
    vunit = upair % n_units
    # Winner per stay: highest vote, ties to the smaller unit id.
    order = np.lexsort((vunit, -votes, vstay))
    first = np.ones(len(order), dtype=bool)
    first[1:] = vstay[order][1:] != vstay[order][:-1]
    win_rows = order[first]
    winner_of[vstay[win_rows]] = vunit[win_rows]
    winning = winner_of[stay_of] == unit_ids
    return winner_of, stay_of[winning], hit_idx[winning]


def optics_seed_oracle(xy, min_pts, max_eps=np.inf):
    """The seed ``optics``: two scalar range queries and one heap push
    per improved neighbour, for every point in visit order."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    reach = np.full(n, np.inf)
    core = np.full(n, np.inf)
    ordering = np.empty(n, dtype=np.int64)
    if n == 0:
        return ordering, reach, core
    diagonal = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))) + 1.0
    eps = min(max_eps, diagonal)
    index = GridIndex(pts, cell_size=max(min(eps, 250.0), 1e-9))

    def update_core(i):
        neighbours = index.query_radius(pts[i, 0], pts[i, 1], eps)
        if len(neighbours) < min_pts:
            return
        d = np.sqrt(((pts[neighbours] - pts[i]) ** 2).sum(axis=1))
        d.sort()
        core[i] = d[min_pts - 1]

    def update_seeds(i, seeds):
        neighbours = index.query_radius(pts[i, 0], pts[i, 1], eps)
        d = np.sqrt(((pts[neighbours] - pts[i]) ** 2).sum(axis=1))
        for j, dist in zip(neighbours, d):
            if processed[j]:
                continue
            new_reach = max(core[i], dist)
            if new_reach < reach[j]:
                reach[j] = new_reach
                heapq.heappush(seeds, (new_reach, int(j)))

    processed = np.zeros(n, dtype=bool)
    pos = 0
    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        ordering[pos] = start
        pos += 1
        seeds = []
        update_core(start)
        if np.isfinite(core[start]):
            update_seeds(start, seeds)
        while seeds:
            _r, j = heapq.heappop(seeds)
            if processed[j]:
                continue
            processed[j] = True
            ordering[pos] = j
            pos += 1
            update_core(j)
            if np.isfinite(core[j]):
                update_seeds(j, seeds)
    return ordering, reach, core


class TestPopularityEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_vectorized_matches_loop_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        pois = rng.uniform(-1500, 1500, (300, 2))
        anchors = pois[rng.integers(0, len(pois), 2_000)]
        stays = anchors + rng.normal(0.0, 40.0, anchors.shape)
        got = compute_popularity(pois, stays, r3sigma=100.0)
        want = popularity_loop_oracle(pois, stays, r3sigma=100.0)
        assert np.array_equal(got, want)

    def test_dense_single_cell_matches(self):
        """Hundreds of stays in one POI's radius — the regime where
        pairwise summation would diverge from sequential order."""
        rng = np.random.default_rng(3)
        pois = np.zeros((1, 2))
        stays = rng.normal(0.0, 30.0, (5_000, 2))
        got = compute_popularity(pois, stays, r3sigma=100.0)
        want = popularity_loop_oracle(pois, stays, r3sigma=100.0)
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def random_csd():
    """Plaza-style synthetic city: 30 clustered venues plus strays."""
    rng = np.random.default_rng(42)
    centers = np.stack(
        [
            121.47 + rng.uniform(-0.02, 0.02, 30),
            31.23 + rng.uniform(-0.015, 0.015, 30),
        ],
        axis=1,
    )
    pois = []
    for c, (clon, clat) in enumerate(centers):
        major = MAJORS[c % len(MAJORS)]
        for _ in range(12):
            pois.append(
                POI(
                    len(pois),
                    float(clon + rng.normal(0.0, 1.2e-4)),
                    float(clat + rng.normal(0.0, 1.0e-4)),
                    major,
                    "Generic",
                )
            )
    for _ in range(40):  # scattered strays -> leftovers / UNASSIGNED POIs
        pois.append(
            POI(
                len(pois),
                float(121.47 + rng.uniform(-0.02, 0.02)),
                float(31.23 + rng.uniform(-0.015, 0.015)),
                MAJORS[int(rng.integers(0, len(MAJORS)))],
                "Generic",
            )
        )
    picks = rng.integers(0, len(centers), 3_000)
    stays = [
        StayPoint(
            float(centers[p, 0] + rng.normal(0.0, 4e-4)),
            float(centers[p, 1] + rng.normal(0.0, 3e-4)),
            float(t),
        )
        for t, p in enumerate(picks)
    ]
    return build_csd(pois, stays, CSDConfig(min_pts=3, alpha=0.5))


@pytest.fixture(scope="module")
def corpus(random_csd):
    """200 stay points: most near POIs, a tail far outside the city."""
    rng = np.random.default_rng(77)
    out = []
    for t in range(200):
        if t % 10 == 9:
            sp = StayPoint(122.3 + t * 1e-4, 31.9, float(t))
        else:
            sp = StayPoint(
                float(121.47 + rng.uniform(-0.022, 0.022)),
                float(31.23 + rng.uniform(-0.017, 0.017)),
                float(t),
            )
        out.append(sp)
    return out


class TestRecognitionEquivalence:
    def test_batched_matches_scalar_oracle(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        batched = recognizer.recognize_points(corpus)
        assert len(batched) == len(corpus)
        assert any(p for p in batched)  # corpus is not degenerate
        assert any(not p for p in batched)
        for sp, got in zip(corpus, batched):
            assert got == recognize_point_oracle(recognizer, sp)

    def test_recognize_point_wrapper_matches_batch(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        batched = recognizer.recognize_points(corpus)
        for sp, got in zip(corpus[:25], batched[:25]):
            assert recognizer.recognize_point(sp) == got

    def test_recognize_trajectories_uses_batch_path(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        trajs = [
            SemanticTrajectory(i, corpus[i * 20 : (i + 1) * 20])
            for i in range(10)
        ]
        out = recognizer.recognize(trajs)
        flat = [sp.semantics for st in out for sp in st.stay_points]
        assert flat == recognizer.recognize_points(corpus)


BATCH_SIZES = (1, 2, 37)


def assert_votes_identical(source, xy, r3sigma_m):
    """``vote_stays`` equals its oracle in every block of every batch
    size and in the table's own blocks, the ones ``recognize_points``
    votes in: same arrays, same dtypes."""
    table = CSDRecognizer(source, r3sigma_m).table
    blocks = table.blocks(xy)
    for size in BATCH_SIZES:
        blocks += [(s, s + size) for s in range(0, max(len(xy), 1), size)]
    for start, stop in blocks:
        block = xy[start:stop]
        got = vote_stays(source, table, block)
        want = vote_stays_oracle(source, block, r3sigma_m)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def flat_diagram(poi_xy, popularity, unit_of):
    """A diagram over bare arrays: the vote reads only positions,
    popularity and unit ids; every unit is one ``Shop`` POI's worth."""
    n = len(poi_xy)
    n_units = int(max(np.max(unit_of, initial=-1) + 1, 0))
    pois = [POI(i, 121.47, 31.23, "Shop & Market", "Generic") for i in range(n)]
    units = [
        SemanticUnit(u, [], (0.0, 0.0), {"Shop & Market": 1.0})
        for u in range(n_units)
    ]
    return CitySemanticDiagram(
        pois, LocalProjection(121.47, 31.23), np.asarray(poi_xy, dtype=float),
        np.asarray(popularity, dtype=float), units,
        np.asarray(unit_of, dtype=np.int64),
    )


def random_flat_diagram(rng, n, extent, n_units):
    """POIs on a 1 m lattice (exact distances, ties) with popularity in
    a few values, a quarter of them ``UNASSIGNED``."""
    xy = np.round(rng.uniform(-extent, extent, (n, 2)))
    pop = rng.choice([0.0, 0.5, 1.0, 2.0], n)
    unit_of = rng.integers(0, n_units, n)
    unit_of[rng.random(n) < 0.25] = UNASSIGNED
    return flat_diagram(xy, pop, unit_of)


class TestVoteStaysEquivalence:
    """The cell-window kernel against the grid-query oracle, exactly."""

    def test_small_workload(self, small_csd, small_csd_config, flat_stays):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        xy = recognizer.project_stays(flat_stays[:3000])
        assert_votes_identical(small_csd, xy, small_csd_config.r3sigma_m)

    def test_random_csd_corpus(self, random_csd, corpus):
        xy = CSDRecognizer(random_csd, 100.0).project_stays(corpus)
        assert_votes_identical(random_csd, xy, 100.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_diagrams(self, seed):
        rng = np.random.default_rng(900 + seed)
        r = float(rng.choice([25.0, 100.0, 150.0]))
        source = random_flat_diagram(rng, int(rng.integers(1, 600)), 800.0, 7)
        near = source.poi_xy[rng.integers(0, source.n_pois, 200)]
        xy = np.concatenate([
            near + np.round(rng.normal(0.0, r / 2, near.shape)),
            rng.uniform(-1000.0, 1000.0, (100, 2)),  # some beyond every POI
            r * rng.integers(-8, 8, (50, 2)),  # on cell corners
            np.stack(  # on vertical cell edges
                [r * rng.integers(-8, 8, 50), rng.uniform(-800.0, 800.0, 50)],
                axis=1,
            ),
        ])
        assert_votes_identical(source, xy, r)

    def test_empty_batch_and_no_units(self):
        rng = np.random.default_rng(5)
        source = random_flat_diagram(rng, 50, 300.0, 3)
        assert_votes_identical(source, np.empty((0, 2)), 100.0)
        bare = flat_diagram(source.poi_xy, source.popularity, np.full(50, UNASSIGNED))
        assert bare.n_units == 0
        assert_votes_identical(bare, source.poi_xy, 100.0)

    def test_stays_outside_bounding_box(self):
        source = flat_diagram([[0.0, 0.0], [50.0, 0.0]], [1.0, 1.0], [0, 1])
        far = np.array([
            [1e6, 1e6], [-1e6, 0.0], [0.0, -250.0], [350.0, 0.0],
            [np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0],
        ])
        assert_votes_identical(source, far, 100.0)
        winner_of, win_stay, _ = vote_stays(
            source, CSDRecognizer(source, 100.0).table, far
        )
        assert (winner_of == UNASSIGNED).all() and not len(win_stay)

    def test_pois_at_exactly_the_radius(self):
        # (100, 0) and (60, 80) are exactly 100 m from the origin; the
        # radius filter is inclusive, so both vote.
        source = flat_diagram(
            [[100.0, 0.0], [60.0, 80.0], [100.0, 1.0]], [1.0, 1.0, 5.0], [0, 1, 2]
        )
        stays = np.array([[0.0, 0.0], [200.0, 0.0], [100.0, 100.0]])
        assert_votes_identical(source, stays, 100.0)
        table = CSDRecognizer(source, 100.0).table
        _, win_stay, win_poi = vote_stays(source, table, stays[:1])
        hits, _, d2 = table.query(stays[:1])
        assert hits.tolist() == [0, 1] and d2.tolist() == [1e4, 1e4]
        assert win_stay.tolist() == [0] and win_poi.tolist() == [0]

    def test_stays_on_cell_edges(self):
        # Cells are 100 m wide: stays on edges and corners must still
        # see POIs one cell over on every side.
        source = flat_diagram(
            [[-99.0, 0.0], [199.0, 0.0], [100.0, -99.0], [100.0, 199.0]],
            [1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3],
        )
        stays = np.array(
            [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0], [-0.0, 50.0]]
        )
        assert_votes_identical(source, stays, 100.0)

    def test_windows_of_only_unassigned_pois(self):
        source = flat_diagram(
            [[0.0, 0.0], [10.0, 0.0], [5000.0, 0.0]], [9.0, 9.0, 1.0],
            [UNASSIGNED, UNASSIGNED, 0],
        )
        stays = np.array([[1.0, 1.0], [5000.0, 10.0]])
        assert_votes_identical(source, stays, 100.0)
        winner_of, _, _ = vote_stays(source, CSDRecognizer(source, 100.0).table, stays)
        assert winner_of.tolist() == [UNASSIGNED, 0]

    def test_exact_vote_ties_go_to_the_smaller_unit(self):
        # Mirror-image POIs of equal popularity: equal votes per unit.
        source = flat_diagram(
            [[30.0, 40.0], [-30.0, -40.0], [40.0, -30.0], [0.0, 90.0]],
            [2.0, 2.0, 2.0, 0.0], [5, 2, 7, 1],
        )
        stays = np.zeros((1, 2))
        assert_votes_identical(source, stays, 100.0)
        winner_of, win_stay, win_poi = vote_stays(
            source, CSDRecognizer(source, 100.0).table, stays
        )
        assert winner_of.tolist() == [2] and win_poi.tolist() == [1]

    def test_one_metre_radius_over_60_km(self):
        # A bounding-box table would hold 3.6e9 cells; the table holds
        # nine entries per unit-assigned POI and no more.
        rng = np.random.default_rng(11)
        source = random_flat_diagram(rng, 2000, 30_000.0, 40)
        table = CSDRecognizer(source, 1.0).table
        members = int((source.unit_of != UNASSIGNED).sum())
        assert len(table) == 9 * members
        near = source.poi_xy + rng.uniform(-1.0, 1.0, source.poi_xy.shape)
        assert_votes_identical(source, np.concatenate([near, source.poi_xy]), 1.0)


def assert_optics_identical(pts, min_pts, max_eps):
    want = optics_seed_oracle(pts, min_pts, max_eps)
    got = optics(pts, min_pts, max_eps)
    assert np.array_equal(got.ordering, want[0])
    assert np.array_equal(got.reachability, want[1])
    assert np.array_equal(got.core_distance, want[2])


def random_cloud(rng, n):
    """Clustered points snapped to a coarse lattice, so equal distances
    (reachability ties) and exact duplicates are common."""
    centres = rng.uniform(-300.0, 300.0, (int(rng.integers(1, 5)), 2))
    pts = centres[rng.integers(0, len(centres), n)]
    pts = pts + rng.normal(0.0, rng.choice([2.0, 15.0, 60.0]), pts.shape)
    snap = rng.choice([0.5, 5.0])
    pts = np.round(pts / snap) * snap
    dup = rng.integers(0, n, n // 4)
    pts[rng.integers(0, n, len(dup))] = pts[dup]
    return pts


class TestOpticsEquivalence:
    @pytest.mark.parametrize("max_eps", [5.0, 30.0, 200.0, np.inf])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_clouds_bit_identical(self, seed, max_eps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 180))
        assert_optics_identical(random_cloud(rng, n), seed + 1, max_eps)

    @pytest.mark.parametrize("min_pts", [1, 2, 5])
    @pytest.mark.parametrize("max_eps", [30.0, np.inf])
    def test_degenerate_inputs(self, min_pts, max_eps):
        assert_optics_identical(np.empty((0, 2)), min_pts, max_eps)
        assert_optics_identical(np.array([[3.0, 4.0]]), min_pts, max_eps)
        assert_optics_identical(np.zeros((9, 2)), min_pts, max_eps)
        # Unit lattice: every neighbour of a point sits at one of a few
        # distinct distances, so the heap order is decided by index.
        grid = np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0)), -1)
        assert_optics_identical(grid.reshape(-1, 2), min_pts, max_eps)

    def test_counterpart_cluster_identical_patterns(
        self, small_recognized, small_mining_config, small_csd, monkeypatch
    ):
        """Algorithm 4 end to end: the same patterns whether line 6 runs
        the seed OPTICS or the kernel, over every captured call."""
        calls = []

        def seed_auto_clusters(xy, min_pts):
            calls.append((xy, min_pts, MAX_EPS_M))
            result = OpticsResult(*optics_seed_oracle(xy, min_pts, MAX_EPS_M))
            return extract_valley_clusters(result, min_pts)

        args = (small_recognized, small_mining_config, small_csd.projection)
        want = extraction.counterpart_cluster(*args)
        monkeypatch.setattr(extraction, "optics_auto_clusters", seed_auto_clusters)
        got_seed = extraction.counterpart_cluster(*args)
        assert calls and want
        assert got_seed == want
        for xy, min_pts, max_eps in calls:
            assert_optics_identical(xy, min_pts, max_eps)


# -- constructor and assembly oracles ----------------------------------------
#
# The per-POI loops the constructor and recognition's output step ran
# before they became array kernels, kept verbatim as references.

_KL_EPS = 1e-9


def semantic_distributions_oracle(xy, tags, r3sigma):
    """The scalar ``semantic_distributions`` (Eq. 4): one distance row
    and one dict accumulation per member."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n != len(tags):
        raise ValueError("xy and tags must align")
    out = []
    tag_list = list(tags)
    for i in range(n):
        d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        w = gaussian_coefficients(d, r3sigma)
        total = float(w.sum())
        dist = {}
        for j, tag in enumerate(tag_list):
            dist[tag] = dist.get(tag, 0.0) + float(w[j])
        out.append({t: v / total for t, v in dist.items()})
    return out


def kl_divergence_oracle(p, q, support):
    """The scalar smoothed ``KL(p || q)`` over the tag ``support``."""
    total = 0.0
    for s in support:
        ps = p.get(s, 0.0) + _KL_EPS
        qs = q.get(s, 0.0) + _KL_EPS
        total += ps * np.log(ps / qs)
    return float(total)


def purify_loop_oracle(clusters, poi_xy, poi_tags, v_min, r3sigma):
    """The scalar Algorithm 2: dict distributions, one KL per member."""
    if v_min < 0:
        raise ValueError("v_min must be non-negative")
    tags = list(poi_tags)
    work = [list(c) for c in clusters if c]
    units = []
    while work:
        cluster = work.pop()
        xy = poi_xy[cluster]
        ctags = [tags[i] for i in cluster]
        if is_fine_grained(xy, ctags, v_min):
            units.append(cluster)
            continue
        dists = semantic_distributions_oracle(xy, ctags, r3sigma)
        ref = medoid_index(xy)
        support = sorted(set(ctags))
        kl = np.array(
            [kl_divergence_oracle(dists[k], dists[ref], support) for k in range(len(cluster))],
            dtype=np.float64,
        )
        median = float(np.median(kl))
        moved = [cluster[k] for k in range(len(cluster)) if kl[k] > median]
        kept = [cluster[k] for k in range(len(cluster)) if kl[k] <= median]
        if not moved or not kept:
            units.append(cluster)
            continue
        work.append(kept)
        work.append(moved)
    return units


def unit_distribution_oracle(members, tags, popularity):
    """The scalar Eq. 6: one dict accumulation per unit."""
    dist = {}
    for i in members:
        w = float(popularity[i]) + 1e-12
        tag = tags[i]
        dist[tag] = dist.get(tag, 0.0) + w
    total = math.fsum(dist.values())
    return {t: v / total for t, v in dist.items()}


def nearby_pairs_oracle(units, poi_xy, radius):
    """The append-loop ``_nearby_pairs``."""
    owner_of_flat = []
    flat = []
    for u, members in enumerate(units):
        for i in members:
            owner_of_flat.append(u)
            flat.append(i)
    if not flat:
        return []
    flat_xy = poi_xy[flat]
    owners = np.asarray(owner_of_flat, dtype=np.int64)
    index = GridIndex(flat_xy, cell_size=max(radius, 1.0))
    nbr_idx, nbr_off = index.query_radius_many(flat_xy, radius)
    ua = np.repeat(owners, np.diff(nbr_off))
    ub = owners[nbr_idx]
    cross = ua != ub
    if not cross.any():
        return []
    lo = np.minimum(ua[cross], ub[cross])
    hi = np.maximum(ua[cross], ub[cross])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return [(int(a), int(b)) for a, b in pairs]


def merge_units_oracle(
    units, leftovers, poi_xy, poi_tags, popularity, cos_threshold, radius
):
    """The dict-per-unit merge: one ``cosine_similarity`` per pair."""
    if not 0.0 <= cos_threshold <= 1.0:
        raise ValueError("cos_threshold must be in [0, 1]")
    tags = list(poi_tags)
    singleton_start = len(units)
    all_units = [list(u) for u in units] + [[i] for i in leftovers]
    dists = [unit_distribution_oracle(u, tags, popularity) for u in all_units]
    uf = _UnionFind(len(all_units))
    for a, b in nearby_pairs_oracle(all_units, poi_xy, radius):
        if cosine_similarity(dists[a], dists[b]) >= cos_threshold:
            uf.union(a, b)
    merged = {}
    roots_with_real_unit = set()
    for u in range(len(all_units)):
        root = uf.find(u)
        merged.setdefault(root, []).extend(all_units[u])
        if u < singleton_start:
            roots_with_real_unit.add(root)
    return [
        sorted(members)
        for root, members in sorted(merged.items())
        if root in roots_with_real_unit
    ]


def semantic_units_oracle(final, poi_xy, tags, popularity):
    """``build_csd``'s per-unit loop: ``unit_of`` filled POI by POI."""
    unit_of = np.full(len(tags), UNASSIGNED, dtype=np.int64)
    units = []
    for unit_id, members in enumerate(final):
        for i in members:
            unit_of[i] = unit_id
        xy = poi_xy[members]
        units.append(
            SemanticUnit(
                unit_id=unit_id,
                poi_indices=list(members),
                centroid_xy=(float(xy[:, 0].mean()), float(xy[:, 1].mean())),
                semantic_distribution=unit_distribution_oracle(
                    members, tags, popularity
                ),
            )
        )
    return units, unit_of


def clustering_frontier_oracle(poi_xy, poi_tags, popularity, config):
    """Algorithm 1 with every frontier, the first included, tested
    round by round.  Returns ``(clusters, leftovers, rounds,
    candidates)``."""
    pts = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    tags = list(poi_tags)
    pop = np.asarray(popularity, dtype=float)
    if n == 0:
        return [], [], 0, 0
    index = GridIndex(pts, cell_size=max(config.eps_p_m, 1.0))
    nbr_idx, nbr_off = index.query_radius_many(pts, config.eps_p_m)
    tag_codes = np.unique(np.asarray(tags, dtype=object), return_inverse=True)[1]
    remaining = np.ones(n, dtype=bool)
    stamp = np.full(n, -1, dtype=np.int64)
    d_v2 = config.d_v_m ** 2
    clusters = []
    leftovers = []
    rounds = 0
    candidates_tested = 0
    for seed in range(n):
        if not remaining[seed]:
            continue
        remaining[seed] = False
        stamp[seed] = seed
        members = [np.array([seed], dtype=np.int64)]
        frontier = nbr_idx[nbr_off[seed] : nbr_off[seed + 1]]
        frontier = frontier[remaining[frontier] & (stamp[frontier] != seed)]
        while len(frontier):
            rounds += 1
            candidates_tested += len(frontier)
            stamp[frontier] = seed
            hi = np.maximum(pop[seed], pop[frontier]) + constructor.POP_EPSILON
            lo = np.minimum(pop[seed], pop[frontier]) + constructor.POP_EPSILON
            ok = lo / hi >= config.alpha
            delta = pts[frontier] - pts[seed]
            d2 = delta[:, 0] ** 2 + delta[:, 1] ** 2
            ok &= (d2 <= d_v2) | (tag_codes[frontier] == tag_codes[seed])
            accepted = frontier[ok]
            if len(accepted) == 0:
                break
            remaining[accepted] = False
            members.append(accepted)
            starts = nbr_off[accepted]
            counts = nbr_off[accepted + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            base = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=base[1:])
            positions = (
                np.arange(total, dtype=np.int64)
                + np.repeat(starts - base, counts)
            )
            nxt = nbr_idx[positions]
            nxt = nxt[remaining[nxt] & (stamp[nxt] != seed)]
            frontier = np.unique(nxt)
        cluster = np.concatenate(members)
        if len(cluster) >= config.min_pts:
            clusters.append([int(i) for i in np.sort(cluster)])
        else:
            leftovers.extend(int(i) for i in cluster)
    leftovers.extend(int(i) for i in np.flatnonzero(remaining))
    return clusters, sorted(leftovers), rounds, candidates_tested


def assemble_semantics_oracle(recognizer, winner_of, win_stay, win_poi):
    """The per-hit set loop of ``CSDRecognizer.assemble_semantics``."""
    n = len(winner_of)
    out = [NO_SEMANTICS] * n
    tags = recognizer.csd.poi_tags()
    in_range = [set() for _ in range(n)]
    for stay, poi_idx in zip(win_stay, win_poi):
        in_range[stay].add(tags[poi_idx])
    for stay in np.flatnonzero(winner_of != UNASSIGNED):
        unit = recognizer.csd.unit(int(winner_of[stay]))
        distribution = unit.semantic_distribution
        prop = {
            tag
            for tag in in_range[stay]
            if distribution.get(tag, 0.0) >= recognizer.min_tag_share
        }
        prop.add(unit.dominant_tag())
        out[stay] = frozenset(prop)
    return out


def lattice_cluster(rng, n):
    """Members on a coarse lattice with duplicated points: equal
    distances, so equal local distributions and equal divergences."""
    pts = np.round(rng.normal(0.0, rng.choice([8.0, 30.0, 90.0]), (n, 2)) / 5.0) * 5.0
    dup = rng.integers(0, n, n // 3)
    pts[rng.integers(0, n, len(dup))] = pts[dup]
    return pts


def random_tags(rng, n, k):
    return ["ABCDEFGHIJKL"[int(t)] for t in rng.integers(0, k, n)]


class TestPurificationEquivalence:
    @pytest.mark.parametrize("seed", range(16))
    def test_distributions_and_divergences_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 160))
        xy = lattice_cluster(rng, n)
        # Up to 12 tags: at 8 or more a pairwise row sum would reorder
        # the divergence terms.
        tags = random_tags(rng, n, int(rng.integers(1, 13)))
        support = sorted(set(tags))
        codes = np.array([support.index(t) for t in tags], dtype=np.int64)
        r3sigma = float(rng.choice([30.0, 100.0]))
        got = semantic_distributions(xy, codes, len(support), r3sigma)
        want = semantic_distributions_oracle(xy, tags, r3sigma)
        for row, dist in zip(got.tolist(), want):
            assert row == [dist.get(s, 0.0) for s in support]
        ref = medoid_index(xy)
        kl = kl_divergences(got, ref)
        assert kl.tolist() == [
            kl_divergence_oracle(d, want[ref], support) for d in want
        ]

    def test_row_blocks_do_not_change_distributions(self, monkeypatch):
        """Blocking the rows (memory bound) and taking the row totals as
        one axis sum must give what one row at a time gives."""
        rng = np.random.default_rng(5)
        xy = lattice_cluster(rng, 300)
        tags = random_tags(rng, 300, 4)
        support = sorted(set(tags))
        codes = np.array([support.index(t) for t in tags], dtype=np.int64)
        want = semantic_distributions(xy, codes, len(support), 100.0)
        monkeypatch.setattr(purification, "_BLOCK_ELEMENTS", 7 * 300 + 5)
        got = semantic_distributions(xy, codes, len(support), 100.0)
        assert np.array_equal(got, want)
        oracle = semantic_distributions_oracle(xy, tags, 100.0)
        assert got.tolist() == [[d.get(s, 0.0) for s in support] for d in oracle]

    @pytest.mark.parametrize("seed", range(12))
    def test_purify_bit_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 400))
        xy = lattice_cluster(rng, n)
        tags = random_tags(rng, n, int(rng.integers(2, 13)))
        cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, 5)), replace=False))
        order = rng.permutation(n)
        clusters = [c.tolist() for c in np.split(order, cuts)]
        v_min = float(rng.choice([0.0, 50.0, 300.0]))
        got = purify(clusters, xy, tags, v_min, 100.0)
        assert got == purify_loop_oracle(clusters, xy, tags, v_min, 100.0)

    def test_median_ties_split_identically(self):
        """Duplicated points tie their divergences; where ties sit on the
        median, ``kl > median`` must move exactly the oracle's members."""
        tied = 0
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            n = int(rng.integers(6, 40))
            xy = np.round(rng.normal(0.0, 40.0, (n, 2)) / 20.0) * 20.0
            xy[rng.integers(0, n, n // 2)] = xy[rng.integers(0, n, n // 2)]
            tags = random_tags(rng, n, 3)
            support = sorted(set(tags))
            codes = np.array([support.index(t) for t in tags], dtype=np.int64)
            kl = kl_divergences(
                semantic_distributions(xy, codes, len(support), 100.0),
                medoid_index(xy),
            )
            tied += int(np.count_nonzero(kl == np.median(kl)) > 1)
            clusters = [list(range(n))]
            assert purify(clusters, xy, tags, 0.0, 100.0) == purify_loop_oracle(
                clusters, xy, tags, 0.0, 100.0
            )
        assert tied >= 5  # the fixture really exercises median ties


def random_units(rng, n_pois, n_tags):
    xy = rng.uniform(0.0, 400.0, (n_pois, 2))
    tags = random_tags(rng, n_pois, n_tags)
    popularity = np.round(rng.exponential(2.0, n_pois), 1)
    popularity[rng.random(n_pois) < 0.2] = 0.0
    order = rng.permutation(n_pois)
    n_left = int(rng.integers(0, n_pois // 3 + 1))
    cuts = np.sort(
        rng.choice(np.arange(1, n_pois - n_left), int(rng.integers(1, 30)), replace=False)
    )
    units = [c.tolist() for c in np.split(order[: n_pois - n_left], cuts)]
    return xy, tags, popularity, units, sorted(order[n_pois - n_left :].tolist())


class TestMergingEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_unit_distributions_match_dict_loop(self, seed):
        """Same values and the same key order (``save_csd`` writes the
        dicts as they are)."""
        rng = np.random.default_rng(seed)
        xy, tags, pop, units, _ = random_units(rng, 200, int(rng.integers(1, 7)))
        got = unit_distributions(units, tags, pop)
        want = [unit_distribution_oracle(u, tags, pop) for u in units]
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_cosines_match_cosine_similarity(self, seed):
        rng = np.random.default_rng(50 + seed)
        xy, tags, pop, units, _ = random_units(rng, 200, 6)
        names = sorted(set(tags))
        codes = np.array([names.index(t) for t in tags], dtype=np.int64)
        members, owner = flatten_units(units)
        dist = distribution_matrix(
            owner, codes[members], pop[members] + 1e-12, len(units), len(names)
        )
        a, b = np.triu_indices(len(units), k=1)
        dicts = [unit_distribution_oracle(u, tags, pop) for u in units]
        want = [cosine_similarity(dicts[i], dicts[j]) for i, j in zip(a, b)]
        assert merging._pair_cosines(dist, a, b).tolist() == want

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_bit_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        xy, tags, pop, units, left = random_units(
            rng, int(rng.integers(30, 300)), int(rng.integers(1, 5))
        )
        cos = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        radius = float(rng.choice([10.0, 30.0, 80.0]))
        assert merge_units(units, left, xy, tags, pop, cos, radius) == (
            merge_units_oracle(units, left, xy, tags, pop, cos, radius)
        )

    def test_threshold_one_ulp_from_a_cosine(self):
        """Thresholds on and one ulp either side of a pair's cosine: the
        merge flips exactly where the oracle's does."""
        xy = np.array([[0.0, 0.0], [5.0, 0.0], [20.0, 0.0], [25.0, 0.0]])
        tags = ["A", "B", "A", "B"]
        pop = np.array([3.0, 1.1, 2.9, 1.0])
        units = [[0, 1], [2, 3]]
        dicts = [unit_distribution_oracle(u, tags, pop) for u in units]
        cos = cosine_similarity(dicts[0], dicts[1])
        assert cos < 1.0
        outcomes = []
        for threshold in (np.nextafter(cos, 0.0), cos, np.nextafter(cos, 2.0)):
            got = merge_units(units, [], xy, tags, pop, float(threshold), 30.0)
            assert got == merge_units_oracle(
                units, [], xy, tags, pop, float(threshold), 30.0
            )
            outcomes.append(len(got))
        assert outcomes == [1, 1, 2]

    def test_semantic_units_match_per_unit_loop(self):
        rng = np.random.default_rng(4)
        xy, tags, pop, units, _ = random_units(rng, 250, 5)
        got = semantic_units(units, xy, tags, pop)
        want, want_unit_of = semantic_units_oracle(units, xy, tags, pop)
        assert [
            (u.unit_id, u.poi_indices, u.centroid_xy, list(u.semantic_distribution.items()))
            for u in got
        ] == [
            (u.unit_id, u.poi_indices, u.centroid_xy, list(u.semantic_distribution.items()))
            for u in want
        ]
        members, owner = flatten_units(units)
        unit_of = np.full(len(tags), UNASSIGNED, dtype=np.int64)
        unit_of[members] = owner
        assert np.array_equal(unit_of, want_unit_of)


def random_city(rng, n):
    """POIs around a few venues with banded popularity: seeds with and
    without compatible neighbours, stacked (``d <= d_v``) mixed tags."""
    centres = rng.uniform(-600.0, 600.0, (int(rng.integers(2, 12)), 2))
    xy = centres[rng.integers(0, len(centres), n)] + rng.normal(0.0, 25.0, (n, 2))
    stray = rng.random(n) < 0.2
    xy[stray] = rng.uniform(-700.0, 700.0, (int(stray.sum()), 2))
    pop = np.round(rng.lognormal(1.0, 1.0, n), 1)
    pop[rng.random(n) < 0.1] = 0.0
    return xy, random_tags(rng, n, int(rng.integers(1, 5))), pop


class TestClusteringEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_clusters_and_counters_identical(self, seed):
        rng = np.random.default_rng(300 + seed)
        xy, tags, pop = random_city(rng, int(rng.integers(1, 700)))
        config = CSDConfig(
            alpha=float(rng.choice([0.3, 0.7, 0.95])),
            min_pts=int(rng.choice([1, 3, 5])),
            d_v_m=float(rng.choice([0.0, 15.0])),
        )
        registry = obs.get_registry()
        registry.reset()
        obs.enable()
        try:
            clusters, leftovers = popularity_based_clustering(xy, tags, pop, config)
            counters = registry.snapshot()["counters"]
        finally:
            obs.disable()
            registry.reset()
        want = clustering_frontier_oracle(xy, tags, pop, config)
        assert (clusters, leftovers) == want[:2]
        assert counters.get("constructor.clustering.rounds", 0) == want[2]
        assert counters.get("constructor.clustering.candidates", 0) == want[3]

    def test_registry_off_gives_same_clusters(self):
        rng = np.random.default_rng(8)
        xy, tags, pop = random_city(rng, 500)
        config = CSDConfig(alpha=0.7)
        got = popularity_based_clustering(xy, tags, pop, config)
        assert got == clustering_frontier_oracle(xy, tags, pop, config)[:2]


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("share", [0.0, 0.15, 0.5, 1.0])
    def test_small_workload_bit_identical(
        self, small_csd, small_csd_config, flat_stays, share
    ):
        recognizer = CSDRecognizer(
            small_csd, small_csd_config.r3sigma_m, min_tag_share=share
        )
        votes = vote_stays(
            small_csd, recognizer.table, recognizer.project_stays(flat_stays)
        )
        got = recognizer.assemble_semantics(*votes)
        want = assemble_semantics_oracle(recognizer, *votes)
        assert got == want
        if share == 0.0:
            assert any(len(p) > 1 for p in got)  # tag unions are exercised
        # Unmatched stays carry the shared object the counters test.
        assert all((p is NO_SEMANTICS) == (w is NO_SEMANTICS) for p, w in zip(got, want))

    def test_one_stay_batches(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        for sp in corpus:
            votes = vote_stays(
                random_csd, recognizer.table, recognizer.project_stays([sp])
            )
            got = recognizer.assemble_semantics(*votes)
            assert got == assemble_semantics_oracle(recognizer, *votes)
            assert (got[0] is NO_SEMANTICS) == (votes[0][0] == UNASSIGNED)


class TestConstructorEquivalence:
    def test_build_csd_matches_loop_constructor(
        self, small_pois, small_trajectories, small_csd_config, small_city,
        monkeypatch, tmp_path,
    ):
        """The whole constructor, every step swapped for its oracle,
        writes the same diagram bytes."""
        stays = [sp for st in small_trajectories for sp in st.stay_points]
        args = (small_pois, stays, small_csd_config, small_city.projection)
        (tmp_path / "kernel").mkdir()
        (tmp_path / "oracle").mkdir()
        save_csd(tmp_path / "kernel" / "csd.json", build_csd(*args))

        def oracle_units(final, poi_xy, tags, popularity):
            return semantic_units_oracle(final, poi_xy, tags, popularity)[0]

        monkeypatch.setattr(
            constructor,
            "popularity_based_clustering",
            lambda *a: clustering_frontier_oracle(*a)[:2],
        )
        monkeypatch.setattr(constructor, "purify", purify_loop_oracle)
        monkeypatch.setattr(constructor, "merge_units", merge_units_oracle)
        monkeypatch.setattr(constructor, "semantic_units", oracle_units)
        save_csd(tmp_path / "oracle" / "csd.json", build_csd(*args))
        files = sorted(p.name for p in (tmp_path / "kernel").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "oracle").iterdir())
        for name in files:
            assert (tmp_path / "kernel" / name).read_bytes() == (
                tmp_path / "oracle" / name
            ).read_bytes()


# -- Eq. 9 pairwise-distance oracles ----------------------------------------
#
# The inline distance-matrix bodies of the three Eq. 9 call sites, kept
# verbatim as the reference for ``repro.geo.distance.pairwise_distances``.


def mean_pairwise_distance_oracle(xy):
    """The inline ``geo.stats.mean_pairwise_distance``."""
    pts = np.asarray(xy, dtype=float)
    n = len(pts)
    if n < 2:
        return 0.0
    delta = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((delta ** 2).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].mean())


def pattern_spatial_sparsity_oracle(pattern, projection):
    """The inline ``eval.metrics.pattern_spatial_sparsity``."""
    if not pattern.groups:
        return 0.0
    per_group = []
    for group in pattern.groups:
        xy = projection.to_meters_array([(sp.lon, sp.lat) for sp in group])
        n = len(xy)
        if n < 2:
            per_group.append(0.0)
            continue
        delta = xy[:, None, :] - xy[None, :, :]
        dist = np.sqrt((delta ** 2).sum(axis=2))
        iu = np.triu_indices(n, k=1)
        per_group.append(float(dist[iu].mean()))
    return float(np.mean(per_group))


def estimate_bandwidth_oracle(xy, quantile=0.3):
    """The inline ``cluster.meanshift.estimate_bandwidth``."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    if n < 2:
        return 1.0
    delta = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((delta ** 2).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    return max(float(np.quantile(dist[iu], quantile)), 1.0)


GROUP_SIZES = (0, 1, 2, 17, 200)


def random_group(rng, n):
    """``n`` points scattered over a venue-sized patch, metres."""
    return rng.normal(0.0, 60.0, size=(n, 2)) + rng.uniform(-3e3, 3e3, 2)


class TestPairwiseDistanceEquivalence:
    @pytest.mark.parametrize("n", GROUP_SIZES)
    def test_mean_pairwise_distance(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            xy = random_group(rng, n)
            assert mean_pairwise_distance(xy) == mean_pairwise_distance_oracle(xy)

    @pytest.mark.parametrize("n", GROUP_SIZES)
    def test_estimate_bandwidth(self, n):
        rng = np.random.default_rng(100 + n)
        for quantile in (0.1, 0.3, 1.0):
            xy = random_group(rng, n)
            assert estimate_bandwidth(xy, quantile) == estimate_bandwidth_oracle(
                xy, quantile
            )

    @pytest.mark.parametrize("n", GROUP_SIZES)
    def test_pattern_spatial_sparsity(self, n):
        rng = np.random.default_rng(200 + n)
        proj = LocalProjection(121.47, 31.2)

        def group(size):
            lonlat = proj.to_lonlat_array(random_group(rng, size))
            return [StayPoint(lon, lat, 0.0) for lon, lat in lonlat]

        single = FineGrainedPattern(
            items=("A",), representatives=[], member_ids=[], groups=[group(n)]
        )
        mixed = FineGrainedPattern(
            items=tuple("ABCDEF"), representatives=[], member_ids=[],
            groups=[group(n)] + [group(size) for size in GROUP_SIZES],
        )
        for pattern in (single, mixed):
            assert pattern_spatial_sparsity(
                pattern, proj
            ) == pattern_spatial_sparsity_oracle(pattern, proj)


_BUILD_SMALL_CSD = """
import sys
from pathlib import Path
from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.data.city import CityModel
from repro.data.persistence import save_csd
from repro.data.poi import POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator

city = CityModel.generate(extent_m=3_000.0, block_size_m=400.0, seed=3)
pois = POIGenerator(city, seed=5).generate(3_000)
taxi = ShanghaiTaxiSimulator(city, seed=9).simulate(n_passengers=80, days=5)
stays = [sp for st in taxi.mining_trajectories() for sp in st.stay_points]
csd = build_csd(pois, stays, CSDConfig(alpha=0.7), city.projection)
save_csd(Path(sys.argv[1]) / "csd.json", csd)
"""


def test_save_csd_bytes_independent_of_hash_seed(tmp_path):
    """The ``small`` diagram under two string-hash seeds: tag sets and
    dicts iterate differently, the saved bytes must not."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        subprocess.run(
            [sys.executable, "-c", _BUILD_SMALL_CSD, str(out)],
            check=True, env=env, timeout=300,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]
