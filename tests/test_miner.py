"""Tests for the PervasiveMiner facade's step-by-step API."""

import dataclasses
import math

import pytest

from repro import PervasiveMiner
from repro.core.config import CSDConfig, MiningConfig, StayPointConfig

NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


def float_fields(cls):
    return [
        f.name for f in dataclasses.fields(cls)
        if isinstance(getattr(cls(), f.name), float)
    ]


class TestFacadeSteps:
    def test_default_configs(self):
        miner = PervasiveMiner()
        assert miner.csd_config == CSDConfig()
        assert miner.mining_config == MiningConfig()

    def test_build_diagram_step(self, small_pois, small_trajectories,
                                small_csd_config):
        miner = PervasiveMiner(small_csd_config)
        stays = [sp for st in small_trajectories for sp in st.stay_points]
        csd = miner.build_diagram(small_pois, stays)
        assert csd.n_units > 0

    def test_recognize_step(self, small_csd, small_trajectories,
                            small_csd_config):
        miner = PervasiveMiner(small_csd_config)
        recognized = miner.recognize(small_csd, small_trajectories[:100])
        assert len(recognized) == 100
        labeled = sum(1 for st in recognized for sp in st if sp.semantics)
        assert labeled > 0

    def test_extract_step(self, small_csd, small_recognized,
                          small_csd_config, small_mining_config):
        miner = PervasiveMiner(small_csd_config, small_mining_config)
        patterns = miner.extract(small_csd, small_recognized)
        assert patterns

    def test_steps_equal_mine(self, small_pois, small_trajectories,
                              small_csd_config, small_mining_config):
        """Running the three steps manually matches the one-call mine."""
        miner = PervasiveMiner(small_csd_config, small_mining_config)
        one_call = miner.mine(small_pois, small_trajectories)

        stays = [sp for st in small_trajectories for sp in st.stay_points]
        csd = miner.build_diagram(small_pois, stays)
        recognized = miner.recognize(csd, small_trajectories)
        patterns = miner.extract(csd, recognized)
        assert [(p.items, p.support) for p in patterns] == [
            (p.items, p.support) for p in one_call.patterns
        ]

    def test_mine_with_prebuilt_csd(self, small_pois, small_trajectories,
                                    small_csd, small_csd_config,
                                    small_mining_config):
        """Passing a pre-built diagram skips the constructor stage and
        yields the same patterns as building it in-call."""
        miner = PervasiveMiner(small_csd_config, small_mining_config)
        fresh = miner.mine(small_pois, small_trajectories)
        reused = miner.mine(small_pois, small_trajectories, csd=small_csd)
        assert reused.csd is small_csd
        assert [(p.items, p.support) for p in reused.patterns] == [
            (p.items, p.support) for p in fresh.patterns
        ]

    def test_result_properties(self, small_pois, small_trajectories,
                               small_csd_config, small_mining_config):
        miner = PervasiveMiner(small_csd_config, small_mining_config)
        result = miner.mine(small_pois, small_trajectories)
        assert result.n_patterns == len(result.patterns)
        assert result.coverage == sum(p.support for p in result.patterns)


class TestConfigRejectsNonFinite:
    """NaN passes an ``x <= 0`` check, so a NaN threshold would switch
    its filter off silently (``--rho nan`` disables the density filter)."""

    @NON_FINITE
    @pytest.mark.parametrize("name", float_fields(CSDConfig))
    def test_csd_config(self, name, value):
        with pytest.raises(ValueError, match=name):
            CSDConfig(**{name: value})

    @NON_FINITE
    @pytest.mark.parametrize("name", float_fields(MiningConfig))
    def test_mining_config(self, name, value):
        with pytest.raises(ValueError, match=name):
            MiningConfig(**{name: value})

    @NON_FINITE
    @pytest.mark.parametrize("name", float_fields(StayPointConfig))
    def test_stay_point_config(self, name, value):
        with pytest.raises(ValueError, match=name):
            StayPointConfig(**{name: value})
