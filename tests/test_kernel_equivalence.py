"""Equivalence regressions: batched kernels vs. the seed loop paths.

The CSR rewrite of the spatial kernel promises *bit-identical* results,
not merely close ones: the batched queries return the same sorted hit
sets, and the ``np.bincount`` accumulations add contributions in the
same left-to-right order the seed loops did.  These tests keep the seed
per-point implementations alive as reference oracles and compare
exactly — no tolerances.
"""

import numpy as np
import pytest

import repro.core.recognition as recognition_mod
from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.core.csd import UNASSIGNED
from repro.core.popularity import compute_popularity
from repro.core.recognition import CSDRecognizer, vote_stays
from repro.data.poi import POI
from repro.data.trajectory import NO_SEMANTICS, SemanticTrajectory, StayPoint
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import GridIndex

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

    def test_n_jobs_identical_to_serial(self, random_csd, corpus, monkeypatch):
        recognizer = CSDRecognizer(random_csd, 100.0)
        trajs = [
            SemanticTrajectory(i, corpus[i * 20 : (i + 1) * 20])
            for i in range(10)
        ]
        serial = recognizer.recognize(trajs)
        monkeypatch.setattr(recognition_mod, "_MIN_STAYS_PER_JOB", 1)
        parallel = recognizer.recognize(trajs, n_jobs=2)
        for a, b in zip(serial, parallel):
            assert a.traj_id == b.traj_id
            assert [sp.semantics for sp in a.stay_points] == [
                sp.semantics for sp in b.stay_points
            ]

    def test_rejects_bad_n_jobs(self, random_csd):
        recognizer = CSDRecognizer(random_csd, 100.0)
        with pytest.raises(ValueError):
            recognizer.recognize([], n_jobs=0)


class TestFloat32Voting:
    def test_float32_identical_unit_assignments(
        self, small_csd, small_csd_config, flat_stays
    ):
        """The standard workload's vote margins dwarf float32 noise, so
        the fast path must pick the same winning unit for every stay."""
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        xy = recognizer.project_stays(flat_stays)
        w64, _, _ = vote_stays(small_csd, xy, recognizer.r3sigma_m)
        w32, _, _ = vote_stays(
            small_csd, xy, recognizer.r3sigma_m, use_float32=True
        )
        np.testing.assert_array_equal(w32, w64)

    def test_float32_recognizer_matches_float64(
        self, small_csd, small_csd_config, flat_stays
    ):
        base = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        fast = CSDRecognizer(
            small_csd, small_csd_config.r3sigma_m, query_dtype="float32"
        )
        assert fast.recognize_points(flat_stays) == base.recognize_points(
            flat_stays
        )

    def test_rejects_unknown_query_dtype(self, small_csd):
        with pytest.raises(ValueError, match="query_dtype"):
            CSDRecognizer(small_csd, 100.0, query_dtype="float16")
