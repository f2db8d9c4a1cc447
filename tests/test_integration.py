"""End-to-end integration tests: raw data -> CSD -> patterns -> metrics."""

import pytest

from repro import PervasiveMiner
from repro.core.config import CSDConfig, MiningConfig
from repro.data.io import (
    read_semantic_trajectories,
    write_semantic_trajectories,
)
from repro.data.taxi import trips_to_mining_trajectories
from repro.data.trajectory import dominant_tag
from repro.eval.metrics import (
    pattern_semantic_consistency,
    pattern_spatial_sparsity,
)
from repro.serve import RecognitionService, ServeConfig
from repro.stream import StreamEngine
from tests.conftest import fine_key


@pytest.fixture(scope="module")
def mining_result(small_pois, small_trajectories, small_csd_config,
                  small_mining_config):
    miner = PervasiveMiner(small_csd_config, small_mining_config)
    return miner.mine(small_pois, small_trajectories)


class TestEndToEnd:
    def test_pipeline_produces_patterns(self, mining_result):
        assert mining_result.n_patterns > 0
        assert mining_result.coverage >= mining_result.n_patterns

    def test_patterns_meet_support(self, mining_result, small_mining_config):
        for p in mining_result.patterns:
            assert p.support >= small_mining_config.support

    def test_patterns_are_structurally_sound(self, mining_result):
        for p in mining_result.patterns:
            assert len(p.representatives) == len(p.items)
            assert len(p.groups) == len(p.items)
            for group in p.groups:
                assert len(group) == p.support
            for rep, item in zip(p.representatives, p.items):
                assert dominant_tag(rep.semantics) == item

    def test_patterns_are_dense_and_consistent(self, mining_result):
        proj = mining_result.csd.projection
        for p in mining_result.patterns:
            assert pattern_spatial_sparsity(p, proj) < 500.0
            assert pattern_semantic_consistency(p) > 0.5

    def test_commute_pattern_found(self, mining_result):
        """The dominant synthetic routine must surface as a pattern."""
        item_sets = {p.items for p in mining_result.patterns}
        assert ("Residence", "Business & Office") in item_sets

    def test_recognized_database_aligned(self, mining_result,
                                         small_trajectories):
        assert len(mining_result.recognized) == len(small_trajectories)
        for raw, rec in zip(small_trajectories, mining_result.recognized):
            assert len(raw) == len(rec)

    def test_reuses_prebuilt_csd(self, small_pois, small_trajectories,
                                 small_csd, small_csd_config,
                                 small_mining_config):
        miner = PervasiveMiner(small_csd_config, small_mining_config)
        result = miner.mine(small_pois, small_trajectories, csd=small_csd)
        assert result.csd is small_csd

    def test_rejects_invalid_database(self, small_pois, small_csd_config):
        from repro.data.trajectory import SemanticTrajectory, StayPoint

        bad = [SemanticTrajectory(0, [
            StayPoint(121.0, 31.0, 10.0), StayPoint(121.0, 31.0, 5.0)
        ])]
        miner = PervasiveMiner(small_csd_config)
        with pytest.raises(ValueError):
            miner.mine(small_pois, bad)

    def test_recognized_roundtrip_through_csv(self, mining_result, tmp_path):
        path = tmp_path / "recognized.csv"
        write_semantic_trajectories(path, mining_result.recognized[:50])
        back = read_semantic_trajectories(path)
        assert len(back) == 50
        assert back[0].stay_points == mining_result.recognized[0].stay_points


def semantics_of(trajectories):
    return [
        (st.traj_id, [sp.semantics for sp in st.stay_points])
        for st in trajectories
    ]


class TestOneAnswer:
    """Batch, stream and serve give the same answer for the same input:
    ``PervasiveMiner.mine``, one ``StreamEngine`` epoch holding every
    trip, and ``RecognitionService.recognize_many`` over the same
    diagram."""

    def test_batch_stream_and_serve_agree(
        self, small_csd, small_taxi, small_pois, small_csd_config
    ):
        mining = MiningConfig(support=8, rho=0.001)
        trajectories = trips_to_mining_trajectories(small_taxi.trips)
        batch = PervasiveMiner(small_csd_config, mining).mine(
            small_pois, trajectories, csd=small_csd
        )
        engine = StreamEngine(
            small_csd, small_csd_config, mining, window_epochs=1
        )
        epoch = engine.process_epoch(small_taxi.trips)
        service = RecognitionService(
            csd=small_csd,
            config=ServeConfig(r3sigma_m=small_csd_config.r3sigma_m),
        )
        try:
            served = service.recognize_many(
                [(sp.lon, sp.lat) for st in trajectories
                 for sp in st.stay_points]
            )
        finally:
            service.close()

        assert semantics_of(epoch.recognized) == semantics_of(batch.recognized)
        assert served == [
            sp.semantics for st in batch.recognized for sp in st.stay_points
        ]
        assert any(served), "the corpus must recognise some stays"
        assert fine_key(engine.fine_patterns()) == fine_key(batch.patterns)
        assert batch.patterns, "the fixture must emit fine-grained patterns"
