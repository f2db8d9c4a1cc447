"""On-disk compatibility of the runners' commit layer.

Run directories outlive the code that wrote them: a resume compares
the manifest's ``config_hash`` with the one the current build computes
and refuses on any difference, and re-reads the manifest it wrote
earlier.  These tests pin both runners' config hashes for one fixed
configuration to literal digests, so a change to a hash payload (and
with it every existing run directory) cannot slip in unnoticed, and
check that each runner's manifest parses and re-serialises to the
exact bytes on disk.
"""

from repro.core.config import CSDConfig, MiningConfig
from repro.data.io import write_trips
from repro.data.persistence import save_csd
from repro.runner import (
    MANIFEST_NAME,
    STREAM_MANIFEST_NAME,
    PipelineRunner,
    StreamRunner,
    parse_manifest,
    parse_stream_manifest,
)
from repro.runner.commit import write_manifest

CSD_CONFIG = CSDConfig(alpha=0.7)

#: ``config_hash`` of a batch run with CSD_CONFIG and
#: MiningConfig(support=10, rho=0.001).
BATCH_CONFIG_HASH = (
    "2ccd292656e2322457f2e9243ad96bf4bf4a05772c085e2e69f484bb15b9cd52"
)
#: ``config_hash`` of a stream run with CSD_CONFIG,
#: MiningConfig(support=8, rho=0.001), window_epochs=3,
#: staleness_threshold=0.01, epoch_trips=500 and poi_batch=100.
STREAM_CONFIG_HASH = (
    "6132b316ec8beb222d9b9e4db60d655ec51ceed6f229bba8ef4e4b925490d13e"
)


def assert_round_trips(path, parse, tmp_path):
    """``path`` parses, and writing the parsed manifest back reproduces
    its bytes."""
    text = path.read_text(encoding="utf-8")
    rewritten = tmp_path / "rewritten.json"
    write_manifest(rewritten, parse(text).to_document())
    assert rewritten.read_bytes() == path.read_bytes()


def test_batch_manifest_is_compatible(
    tmp_path, small_pois, small_trajectories
):
    run_dir = tmp_path / "batch"
    PipelineRunner(
        run_dir,
        CSD_CONFIG,
        MiningConfig(support=10, rho=0.001),
    ).run(small_pois, small_trajectories)
    path = run_dir / MANIFEST_NAME
    assert parse_manifest(path.read_text()).config_hash == BATCH_CONFIG_HASH
    assert_round_trips(path, parse_manifest, tmp_path)


def test_stream_manifest_is_compatible(tmp_path, small_taxi, small_csd):
    trips_path = tmp_path / "trips.csv"
    csd_path = tmp_path / "base_csd.json"
    write_trips(trips_path, small_taxi.trips[:1000])
    save_csd(csd_path, small_csd)
    run_dir = tmp_path / "stream"
    report = StreamRunner(
        run_dir,
        trips_path,
        base_csd_path=csd_path,
        csd_config=CSD_CONFIG,
        mining_config=MiningConfig(support=8, rho=0.001),
        epoch_trips=500,
        poi_batch=100,
        window_epochs=3,
        staleness_threshold=0.01,
    ).run()
    assert report.epochs_run == 2
    path = run_dir / STREAM_MANIFEST_NAME
    manifest = parse_stream_manifest(path.read_text())
    assert manifest.config_hash == STREAM_CONFIG_HASH
    assert len(manifest.epochs) == 2
    assert_round_trips(path, parse_stream_manifest, tmp_path)
