"""Shared fixtures: one small deterministic workload for the whole suite.

Building a city + POIs + taxi corpus + CSD takes seconds; session scope
keeps the integration-flavoured tests fast while unit tests construct
their own tiny inputs.
"""

from __future__ import annotations

import pytest

from repro.core.config import CSDConfig, MiningConfig
from repro.data.city import CityModel
from repro.data.poi import POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator
from repro.ioutil import SimulatedCrash


class CrashAt:
    """:func:`repro.ioutil.fault_hook` that fails one write boundary.

    Raises ``error`` at the ``nth`` announcement of ``point`` (one of
    :data:`repro.ioutil.IO_FAULT_POINTS`) for a target named ``name``,
    and at the ``times - 1`` matching announcements after it.  The
    default error is :class:`SimulatedCrash` (the process dies there);
    ``error=OSError`` is a transient failure the runners' checkpoint
    write retries.
    """

    def __init__(self, point, name, nth=1, *, error=SimulatedCrash, times=1):
        self.point = point
        self.name = name
        self.nth = nth
        self.error = error
        self.times = times
        self.hits = 0

    def __call__(self, point, target):
        if point != self.point or target.name != self.name:
            return
        self.hits += 1
        if self.nth <= self.hits < self.nth + self.times:
            raise self.error(
                f"injected at {point} of {target.name} (hit {self.hits})"
            )


def diagram_key(csd):
    """Every field of a diagram, in comparable form (exact floats)."""
    return (
        list(csd.pois),
        csd.popularity.tolist(),
        csd.unit_of.tolist(),
        csd.poi_xy.tolist(),
        [
            (
                u.unit_id,
                list(u.poi_indices),
                tuple(u.centroid_xy),
                dict(u.semantic_distribution),
            )
            for u in csd.units
        ],
        csd.tag_level,
        (csd.projection.origin_lon, csd.projection.origin_lat),
    )


def fine_key(patterns):
    """Exact content of fine-grained patterns, for equality checks."""
    return [
        (
            p.items,
            tuple(p.member_ids),
            tuple(p.representatives),
            tuple(tuple(group) for group in p.groups),
        )
        for p in patterns
    ]


@pytest.fixture(scope="session")
def small_city():
    return CityModel.generate(extent_m=3_000.0, block_size_m=400.0, seed=3)


@pytest.fixture(scope="session")
def small_pois(small_city):
    return POIGenerator(small_city, seed=5).generate(3_000)


@pytest.fixture(scope="session")
def small_taxi(small_city):
    sim = ShanghaiTaxiSimulator(small_city, seed=9)
    return sim.simulate(n_passengers=80, days=5)


@pytest.fixture(scope="session")
def small_trajectories(small_taxi):
    return small_taxi.mining_trajectories()


@pytest.fixture(scope="session")
def small_csd_config():
    return CSDConfig(alpha=0.7)


@pytest.fixture(scope="session")
def small_mining_config():
    return MiningConfig(support=10, rho=0.001)


@pytest.fixture(scope="session")
def small_csd(small_pois, small_trajectories, small_csd_config, small_city):
    from repro.core.constructor import build_csd

    stays = [sp for st in small_trajectories for sp in st.stay_points]
    return build_csd(
        small_pois, stays, small_csd_config, small_city.projection
    )


@pytest.fixture(scope="session")
def small_recognized(small_csd, small_trajectories, small_csd_config):
    from repro.core.recognition import CSDRecognizer

    recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
    return recognizer.recognize(small_trajectories)


@pytest.fixture
def flat_stays(small_trajectories):
    return [sp for st in small_trajectories for sp in st.stay_points]
