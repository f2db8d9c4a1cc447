"""Every extractor's output obeys the paper's pattern definitions.

Random small corpora of trajectories between a few venues; for every
pattern PM (Algorithm 4), Splitter, SDBSCAN and TPattern emit:

- its support is at least sigma;
- each member's group stays are stays of that member's trajectory, at
  increasing positions, whose dominant tags (for TPattern: ROI labels)
  are the pattern's items;
- consecutive matched stays are at most delta_t apart (Definition 7 ii).

PM additionally emits disjoint member sets from one coarse pattern
(Algorithm 4 line 15), and its last group is at least rho dense: line
13's density gate sees exactly the emitted members there.  Definition
11 asks the same of every group, which PM does not ensure — an earlier
position's gate saw candidates that later positions removed
(``test_pm_every_group_meets_rho``).  Splitter and SDBSCAN keep the
mean group density at least rho.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.sdbscan import sdbscan_extract
from repro.baselines.splitter import splitter_extract
from repro.baselines.tpattern import detect_rois, tpattern_extract
from repro.core.config import MiningConfig
from repro.core.extraction import counterpart_cluster, projection_for
from repro.data.trajectory import SemanticTrajectory, StayPoint, dominant_tag
from repro.geo.stats import spatial_density

DEG_PER_M = 1.0 / 111_195.0
VENUE_TAGS = ("Home", "Office", "Gym", "Cafe", "Shop")
TPATTERN_CELL_M = 200.0
TPATTERN_MIN_VISITS = 5


def random_corpus(seed, n_trajs, n_venues, jitter_m):
    """``n_trajs`` day trajectories of 2-5 stops at ``n_venues`` venues.

    Venues sit on a 600 m grid; a stop lands ``jitter_m`` around its
    venue and may carry a second, noise tag.  Gaps between stops range
    from 10 to 100 minutes, so some straddle delta_t.
    """
    rng = np.random.default_rng(seed)
    venues = [
        ((v % 3) * 600.0, (v // 3) * 600.0, VENUE_TAGS[v])
        for v in range(n_venues)
    ]
    database = []
    for traj_id in range(n_trajs):
        t = traj_id * 86_400.0 + float(rng.uniform(0, 3_600))
        stops = []
        for _ in range(int(rng.integers(2, 6))):
            x, y, tag = venues[int(rng.integers(n_venues))]
            tags = {tag}
            if rng.random() < 0.2:
                tags.add(VENUE_TAGS[int(rng.integers(len(VENUE_TAGS)))])
            stops.append(
                StayPoint(
                    (x + rng.normal(0, jitter_m)) * DEG_PER_M,
                    (y + rng.normal(0, jitter_m)) * DEG_PER_M,
                    t,
                    frozenset(tags),
                )
            )
            t += float(rng.uniform(600, 6_000))
        database.append(SemanticTrajectory(traj_id, stops))
    return database


corpora = st.builds(
    random_corpus,
    seed=st.integers(0, 2**32 - 1),
    n_trajs=st.integers(15, 40),
    n_venues=st.integers(2, 4),
    jitter_m=st.sampled_from([5.0, 30.0, 120.0]),
)
configs = st.builds(
    MiningConfig,
    support=st.integers(2, 6),
    delta_t_s=st.sampled_from([1_800.0, 3_600.0, 7_200.0]),
    rho=st.sampled_from([0.0, 1e-4, 1e-3]),
    min_length=st.just(2),
    max_length=st.just(3),
)


def tpattern_labels(database):
    """The ROI label TPattern gives each stay point, by identity."""
    stays = [sp for traj in database for sp in traj]
    xy = projection_for(database).to_meters_array(
        [(sp.lon, sp.lat) for sp in stays]
    )
    _rois, roi_of = detect_rois(xy, TPATTERN_CELL_M, TPATTERN_MIN_VISITS)
    labels = {}
    for sp, cell in zip(stays, np.floor(xy / TPATTERN_CELL_M).astype(int)):
        roi = roi_of.get((int(cell[0]), int(cell[1])))
        labels[id(sp)] = None if roi is None else f"roi-{roi}"
    return labels


def check_definitions(patterns, database, config, item_of):
    """The checks every extractor's output must pass."""
    for p in patterns:
        m = len(p.items)
        assert p.support >= config.support
        assert len(p.groups) == len(p.representatives) == m
        assert all(len(group) == p.support for group in p.groups)
        for i, member in enumerate(p.member_ids):
            matched = [p.groups[k][i] for k in range(m)]
            stays = database[member].stay_points
            positions = [
                next(pos for pos, sp in enumerate(stays) if sp is stay)
                for stay in matched
            ]
            assert positions == sorted(set(positions))
            assert [item_of(stay) for stay in matched] == list(p.items)
            gaps = [b.t - a.t for a, b in zip(matched, matched[1:])]
            assert all(gap <= config.delta_t_s for gap in gaps)


def group_densities(pattern, projection):
    return [
        spatial_density(
            projection.to_meters_array([(sp.lon, sp.lat) for sp in group])
        )
        for group in pattern.groups
    ]


def by_tag(stay):
    return dominant_tag(stay.semantics)


class TestExtractorDefinitions:
    @settings(max_examples=25, deadline=None)
    @given(corpora, configs)
    def test_pm(self, database, config):
        patterns = counterpart_cluster(database, config)
        check_definitions(patterns, database, config, by_tag)
        projection = projection_for(database)
        members_by_coarse = defaultdict(list)
        for p in patterns:
            assert group_densities(p, projection)[-1] >= config.rho
            members_by_coarse[p.items].extend(p.member_ids)
        for members in members_by_coarse.values():
            assert len(members) == len(set(members))

    @pytest.mark.xfail(
        strict=True,
        reason="PM gates density on each position's candidates before "
        "later positions shrink them (Definition 11 defect)",
    )
    def test_pm_every_group_meets_rho(self):
        database = random_corpus(
            seed=17, n_trajs=30, n_venues=3, jitter_m=30.0
        )
        config = MiningConfig(support=3, rho=1e-3, max_length=3)
        projection = projection_for(database)
        patterns = counterpart_cluster(database, config)
        assert patterns
        for p in patterns:
            assert min(group_densities(p, projection)) >= config.rho

    @pytest.mark.parametrize("extract", [splitter_extract, sdbscan_extract])
    @settings(max_examples=15, deadline=None)
    @given(database=corpora, config=configs)
    def test_combination_baselines(self, extract, database, config):
        patterns = extract(database, config)
        check_definitions(patterns, database, config, by_tag)
        projection = projection_for(database)
        for p in patterns:
            assert np.mean(group_densities(p, projection)) >= config.rho

    @settings(max_examples=15, deadline=None)
    @given(corpora, configs)
    def test_tpattern(self, database, config):
        patterns = tpattern_extract(
            database, config,
            cell_m=TPATTERN_CELL_M, min_visits=TPATTERN_MIN_VISITS,
        )
        labels = tpattern_labels(database)
        check_definitions(
            patterns, database, config, lambda stay: labels[id(stay)]
        )

    def test_corpora_yield_patterns(self):
        """The generator is not vacuous: every extractor emits patterns
        on a typical corpus."""
        database = random_corpus(
            seed=1, n_trajs=40, n_venues=3, jitter_m=30.0
        )
        config = MiningConfig(support=3, rho=1e-4, max_length=3)
        for patterns in (
            counterpart_cluster(database, config),
            splitter_extract(database, config),
            sdbscan_extract(database, config),
            tpattern_extract(
                database, config,
                cell_m=TPATTERN_CELL_M, min_visits=TPATTERN_MIN_VISITS,
            ),
        ):
            assert patterns
