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
