"""The crash-safe streaming driver: epochs as durable commits.

:class:`StreamRunner` wraps :class:`~repro.stream.engine.StreamEngine`
in the same checkpoint discipline as the batch
:class:`~repro.runner.runner.PipelineRunner` — every epoch is one
atomic commit inside a run directory::

    run_dir/
      stream_manifest.json   # commit point: written last, atomically
      csd-000003.json        # diagram state after the last commit
      epochs/epoch-000002.csv  # recognised sequences of each live epoch
      quarantine.csv         # malformed rows (written by the caller)

Commit protocol, per epoch:

1. process the epoch in memory (ingest, recognise, slide the window);
2. atomically write the epoch's recognised-sequence artifact and the
   *next* diagram artifact (``csd-<n+1>.json`` — the previous one stays
   untouched, so a crash here leaves the old commit fully intact);
3. atomically write the manifest referencing the new artifacts, with
   SHA-256 digests, consumed-input cursors, and the updater's online
   state (pending POIs, dirty units) — **this write is the commit**;
4. best-effort cleanup of the superseded diagram and retired epochs.

A run killed at any point resumes from the last committed epoch:
``resume=True`` reloads the diagram, restores the updater's online
state, re-registers the live epochs into the windowed miner (exact by
the miner's maintenance invariant), and skips the consumed input rows.
Epoch processing is deterministic, so a replayed half-finished epoch
rewrites byte-identical artifacts and the final patterns equal an
uninterrupted run's — ``tools/crash_sweep.py`` asserts this at every
write boundary of a multi-epoch run.

The input trips file is treated as append-only: the first
``trips_consumed`` *valid* rows must be unchanged between runs (the
config hash guards parameters, not data — same trust model as tailing
a log).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.core.config import CSDConfig, MiningConfig
from repro.data.io import (
    BadRowSink,
    MalformedRowError,
    QuarantinedRow,
    iter_trips,
    read_pois,
    read_semantic_trajectories,
    write_semantic_trajectories,
)
from repro.data.persistence import load_csd, save_csd
from repro.data.poi import POI
from repro.data.taxi import TaxiTrip
from repro.ioutil import bytes_writer, file_sha256, strict_json_loads
from repro.mining.prefixspan import FrequentSequence
from repro.obs import get_registry
from repro.runner.fs import write_checkpoint
from repro.stream.engine import EpochResult, StreamEngine

PathLike = Union[str, Path]

STREAM_MANIFEST_NAME = "stream_manifest.json"
STREAM_MANIFEST_VERSION = 1
EPOCH_DIR = "epochs"

#: Stable alias of the most recently committed diagram artifact, so a
#: ``repro serve --csd <run_dir>/csd-latest.json`` daemon always has a
#: fixed path to hot-reload from while the epoch-numbered artifacts
#: rotate underneath.
LATEST_CSD_NAME = "csd-latest.json"


@dataclass
class EpochRecord:
    """One live epoch's committed artifact."""

    index: int
    artifact: str
    sha256: str


@dataclass
class StreamManifest:
    """The ``stream_manifest.json`` document (strict JSON)."""

    config_hash: str
    base_csd_sha256: str
    trips_consumed: int = 0
    pois_consumed: int = 0
    next_seq_id: int = 0
    epoch_index: int = 0
    csd_artifact: str = ""
    csd_sha256: str = ""
    pending: List[int] = field(default_factory=list)
    dirty: List[int] = field(default_factory=list)
    n_added: int = 0
    epochs: List[EpochRecord] = field(default_factory=list)
    format_version: int = STREAM_MANIFEST_VERSION

    def to_json(self) -> str:
        document = asdict(self)
        return json.dumps(
            document, indent=2, sort_keys=True, allow_nan=False
        )


def parse_stream_manifest(
    text: str, *, source: str = STREAM_MANIFEST_NAME
) -> StreamManifest:
    """Parse :meth:`StreamManifest.to_json` output.

    Raises :class:`repro.ioutil.TornArtifactError` naming ``source`` on
    truncated/invalid JSON and ``ValueError`` on unknown versions.
    """
    document = strict_json_loads(text, name=source)
    version = document.get("format_version")
    if version != STREAM_MANIFEST_VERSION:
        raise ValueError(
            f"unsupported stream manifest version {version!r} "
            f"(this build reads version {STREAM_MANIFEST_VERSION})"
        )
    return StreamManifest(
        config_hash=str(document["config_hash"]),
        base_csd_sha256=str(document["base_csd_sha256"]),
        trips_consumed=int(document["trips_consumed"]),
        pois_consumed=int(document["pois_consumed"]),
        next_seq_id=int(document["next_seq_id"]),
        epoch_index=int(document["epoch_index"]),
        csd_artifact=str(document["csd_artifact"]),
        csd_sha256=str(document["csd_sha256"]),
        pending=[int(i) for i in document["pending"]],
        dirty=[int(i) for i in document["dirty"]],
        n_added=int(document["n_added"]),
        epochs=[
            EpochRecord(
                index=int(raw["index"]),
                artifact=str(raw["artifact"]),
                sha256=str(raw["sha256"]),
            )
            for raw in document["epochs"]
        ],
    )


def stream_config_hash(
    csd_config: CSDConfig,
    mining_config: MiningConfig,
    window_epochs: int,
    staleness_threshold: float,
    epoch_trips: int,
    poi_batch: Optional[int],
) -> str:
    """SHA-256 over every knob that shapes the stream's results.

    ``epoch_trips`` and ``poi_batch`` are included because they change
    epoch boundaries, hence day-chain grouping and window contents.
    """
    payload = {
        "csd_config": asdict(csd_config),
        "mining_config": asdict(mining_config),
        "window_epochs": int(window_epochs),
        "staleness_threshold": float(staleness_threshold),
        "epoch_trips": int(epoch_trips),
        "poi_batch": None if poi_batch is None else int(poi_batch),
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StreamRunReport:
    """Summary of one :meth:`StreamRunner.run` invocation."""

    epochs_run: int
    trips_consumed: int
    pois_consumed: int
    resumed: bool
    patterns: List[FrequentSequence] = field(repr=False, default_factory=list)


class StreamRunner:
    """Durable epoch-at-a-time driver over a trips (and POI) stream.

    Parameters
    ----------
    run_dir:
        Checkpoint directory (created if missing).
    trips_path:
        CSV of raw trips (:func:`repro.data.io.iter_trips` schema),
        treated as an append-only stream.
    base_csd_path:
        Offline-built diagram to stream on top of; required for a
        fresh start, ignored on resume (the run directory's committed
        diagram wins).
    pois_path:
        Optional CSV of newly discovered POIs, fed ``poi_batch`` per
        epoch (all at the first epoch when ``poi_batch`` is None).
    epoch_trips:
        Valid trips per epoch — the streaming unit of arrival.
    on_bad_row:
        Quarantine sink for malformed trip rows; without one the first
        bad *unconsumed* row raises.  Rows before the resume cursor are
        never re-quarantined.
    on_epoch:
        Callback after each committed epoch (the CLI uses this to
        notify a running ``repro serve`` daemon).
    """

    def __init__(
        self,
        run_dir: PathLike,
        trips_path: PathLike,
        base_csd_path: Optional[PathLike] = None,
        pois_path: Optional[PathLike] = None,
        csd_config: Optional[CSDConfig] = None,
        mining_config: Optional[MiningConfig] = None,
        *,
        epoch_trips: int = 256,
        poi_batch: Optional[int] = None,
        window_epochs: int = 4,
        staleness_threshold: float = 0.05,
        resume: bool = False,
        on_bad_row: Optional[BadRowSink] = None,
        on_epoch: Optional[Callable[[EpochResult], None]] = None,
    ) -> None:
        if epoch_trips < 1:
            raise ValueError("epoch_trips must be at least 1")
        if poi_batch is not None and poi_batch < 1:
            raise ValueError("poi_batch must be at least 1 (or None)")
        self.run_dir = Path(run_dir)
        self.trips_path = Path(trips_path)
        self.base_csd_path = (
            None if base_csd_path is None else Path(base_csd_path)
        )
        self.pois_path = None if pois_path is None else Path(pois_path)
        self.csd_config = csd_config or CSDConfig()
        self.mining_config = mining_config or MiningConfig()
        self.epoch_trips = int(epoch_trips)
        self.poi_batch = poi_batch
        self.window_epochs = int(window_epochs)
        self.staleness_threshold = float(staleness_threshold)
        self.resume = bool(resume)
        self.on_bad_row = on_bad_row
        self.on_epoch = on_epoch
        self.engine: Optional[StreamEngine] = None
        self._manifest: Optional[StreamManifest] = None

    # -- checkpoint plumbing -------------------------------------------

    def _save_manifest(self, manifest: StreamManifest) -> None:
        write_checkpoint(
            self.run_dir / STREAM_MANIFEST_NAME,
            bytes_writer((manifest.to_json() + "\n").encode("utf-8")),
        )

    def _verified_artifact(self, record_name: str, sha: str) -> Path:
        path = self.run_dir / record_name
        if not path.exists():
            raise ValueError(
                f"committed artifact {record_name} is missing from "
                f"{self.run_dir}"
            )
        actual = file_sha256(path)
        if actual != sha:
            raise ValueError(
                f"committed artifact {record_name} fails its integrity "
                f"check (manifest {sha[:12]}…, file {actual[:12]}…)"
            )
        return path

    # -- state bootstrap -----------------------------------------------

    def _fresh_state(self, cfg_hash: str) -> StreamManifest:
        if self.base_csd_path is None:
            raise ValueError(
                "a fresh stream run needs base_csd_path (an offline-"
                "built diagram to stream on top of)"
            )
        base = load_csd(self.base_csd_path)
        self.engine = StreamEngine(
            base,
            self.csd_config,
            self.mining_config,
            window_epochs=self.window_epochs,
            staleness_threshold=self.staleness_threshold,
        )
        csd_artifact = self._csd_artifact_name(0)
        base_sha = file_sha256(
            write_checkpoint(
                self.run_dir / csd_artifact, lambda tmp: save_csd(tmp, base)
            )
        )
        manifest = StreamManifest(
            config_hash=cfg_hash,
            base_csd_sha256=base_sha,
            csd_artifact=csd_artifact,
            csd_sha256=base_sha,
        )
        self._save_manifest(manifest)
        return manifest

    def _resumed_state(self, cfg_hash: str) -> StreamManifest:
        manifest_path = self.run_dir / STREAM_MANIFEST_NAME
        manifest = parse_stream_manifest(
            manifest_path.read_text(encoding="utf-8"),
            source=str(manifest_path),
        )
        if manifest.config_hash != cfg_hash:
            raise ValueError(
                f"run directory {self.run_dir} holds a stream for a "
                "different configuration (config hash mismatch); pass "
                "resume=False to start over, or use a fresh --run-dir"
            )
        csd_path = self._verified_artifact(
            manifest.csd_artifact, manifest.csd_sha256
        )
        csd = load_csd(csd_path)
        engine = StreamEngine(
            csd,
            self.csd_config,
            self.mining_config,
            window_epochs=self.window_epochs,
            staleness_threshold=self.staleness_threshold,
        )
        engine.updater.restore_online_state(
            manifest.pending, manifest.dirty, manifest.n_added
        )
        for record in sorted(manifest.epochs, key=lambda r: r.index):
            path = self._verified_artifact(record.artifact, record.sha256)
            engine.restore_epoch(
                record.index, read_semantic_trajectories(path)
            )
        engine.next_seq_id = manifest.next_seq_id
        engine.next_epoch_index = manifest.epoch_index
        self.engine = engine
        return manifest

    def _publish_latest(self, csd_artifact: str) -> None:
        """Refresh the :data:`LATEST_CSD_NAME` alias (atomic copy).

        Runs outside the commit protocol: the alias is a convenience
        for hot-reloading daemons, never consulted on resume.  It still
        goes through the retrying checkpoint write, so a transient
        failure cannot abort a run whose epoch already committed.
        """
        source = self.run_dir / csd_artifact

        def _copy(tmp: Path) -> None:
            shutil.copyfile(source, tmp)

        write_checkpoint(self.run_dir / LATEST_CSD_NAME, _copy)

    def _csd_artifact_name(self, committed_epochs: int) -> str:
        return f"csd-{committed_epochs:06d}.json"

    def _epoch_artifact_name(self, epoch_index: int) -> str:
        return f"{EPOCH_DIR}/epoch-{epoch_index:06d}.csv"

    # -- input streams --------------------------------------------------

    def _trip_stream(self, skip_valid: int) -> Iterator[TaxiTrip]:
        """Validated trips, with the first ``skip_valid`` valid trips
        (already consumed by committed epochs) silently skipped.

        Malformed rows in the skipped prefix were quarantined by the
        original run; re-reporting them would duplicate quarantine
        entries, so the sink is gated on the cursor.
        """
        skipping = skip_valid > 0

        def guarded_sink(row: QuarantinedRow) -> None:
            if skipping:
                return
            if self.on_bad_row is None:
                raise MalformedRowError(row)
            self.on_bad_row(row)

        stream = iter_trips(self.trips_path, on_bad_row=guarded_sink)
        for _ in range(skip_valid):
            if next(stream, None) is None:
                raise ValueError(
                    f"trips file {self.trips_path} has fewer valid rows "
                    f"than the {skip_valid} already committed — the "
                    "stream input must be append-only"
                )
        skipping = False
        yield from stream

    # -- main loop ------------------------------------------------------

    def run(self, max_epochs: Optional[int] = None) -> StreamRunReport:
        """Process (or resume) the stream until input runs dry or
        ``max_epochs`` epochs have been committed this invocation."""
        reg = get_registry()
        (self.run_dir / EPOCH_DIR).mkdir(parents=True, exist_ok=True)
        cfg_hash = stream_config_hash(
            self.csd_config,
            self.mining_config,
            self.window_epochs,
            self.staleness_threshold,
            self.epoch_trips,
            self.poi_batch,
        )
        resuming = (
            self.resume and (self.run_dir / STREAM_MANIFEST_NAME).exists()
        )
        manifest = (
            self._resumed_state(cfg_hash)
            if resuming
            else self._fresh_state(cfg_hash)
        )
        self._manifest = manifest
        engine = self.engine
        assert engine is not None
        if reg.enabled:
            reg.gauge("stream.runner.resumed").set(1.0 if resuming else 0.0)

        pois: List[POI] = (
            [] if self.pois_path is None else read_pois(self.pois_path)
        )
        trips = self._trip_stream(manifest.trips_consumed)
        records: Dict[int, EpochRecord] = {
            record.index: record for record in manifest.epochs
        }
        epochs_run = 0
        while max_epochs is None or epochs_run < max_epochs:
            batch = list(islice(trips, self.epoch_trips))
            poi_stop = (
                len(pois)
                if self.poi_batch is None
                else manifest.pois_consumed + self.poi_batch
            )
            poi_batch = pois[manifest.pois_consumed : poi_stop]
            if not batch and not poi_batch:
                break
            result = engine.process_epoch(batch, poi_batch)

            with reg.timer("stream.commit"):
                epoch_artifact = self._epoch_artifact_name(result.epoch_index)
                epoch_sha = file_sha256(
                    write_checkpoint(
                        self.run_dir / epoch_artifact,
                        lambda tmp: write_semantic_trajectories(
                            tmp, result.recognized
                        ),
                    )
                )
                superseded_csd = manifest.csd_artifact
                csd_artifact = self._csd_artifact_name(result.epoch_index + 1)
                csd_sha = file_sha256(
                    write_checkpoint(
                        self.run_dir / csd_artifact,
                        lambda tmp: save_csd(tmp, engine.csd),
                    )
                )

                records[result.epoch_index] = EpochRecord(
                    index=result.epoch_index,
                    artifact=epoch_artifact,
                    sha256=epoch_sha,
                )
                live = set(engine.window_epoch_ids())
                retired_records = [
                    record
                    for index, record in records.items()
                    if index not in live
                ]
                records = {
                    index: record
                    for index, record in records.items()
                    if index in live
                }
                manifest.trips_consumed += len(batch)
                manifest.pois_consumed += len(poi_batch)
                manifest.next_seq_id = engine.next_seq_id
                manifest.epoch_index = engine.next_epoch_index
                manifest.csd_artifact = csd_artifact
                manifest.csd_sha256 = csd_sha
                manifest.pending = engine.updater.pending_indices()
                manifest.dirty = engine.updater.dirty_units()
                manifest.n_added = engine.updater.n_added
                manifest.epochs = [
                    records[index] for index in sorted(records)
                ]
                # The commit point: everything above is provisional
                # until this atomic write lands.
                self._save_manifest(manifest)

            # Post-commit cleanup (best-effort; a crash here only
            # leaks files the next cleanup cannot see).
            if superseded_csd != csd_artifact:
                (self.run_dir / superseded_csd).unlink(missing_ok=True)
            for record in retired_records:
                (self.run_dir / record.artifact).unlink(missing_ok=True)
            self._publish_latest(csd_artifact)

            epochs_run += 1
            if self.on_epoch is not None:
                self.on_epoch(result)

        return StreamRunReport(
            epochs_run=epochs_run,
            trips_consumed=manifest.trips_consumed,
            pois_consumed=manifest.pois_consumed,
            resumed=resuming,
            patterns=engine.patterns(),
        )
