"""The crash-safe streaming driver: epochs as durable commits.

:class:`StreamRunner` wraps :class:`~repro.stream.engine.StreamEngine`
in the same checkpoint discipline as the batch
:class:`~repro.runner.runner.PipelineRunner` — every epoch is one
atomic commit inside a run directory::

    run_dir/
      stream_manifest.json   # commit point: written last, atomically
      csd-000003.json        # diagram document of the last change
      pois-<sha256>.json     # POI segments the diagram references
      csd-latest.json        # alias: copy of the committed document
      epochs/epoch-000002.csv  # recognised sequences of each live epoch
      quarantine.csv         # malformed rows (written by the caller)

Commit protocol, per epoch:

1. process the epoch in memory (ingest, recognise, slide the window);
2. atomically write the epoch's recognised-sequence artifact and, only
   if the diagram changed, the next diagram document
   (``csd-<n+1>.json``) with a POI segment holding just the epoch's
   appended POIs — the earlier segments are referenced, never
   rewritten, and the previous document stays untouched, so a crash
   here leaves the old commit fully intact;
3. atomically write the manifest referencing the new artifacts, with
   SHA-256 digests, consumed-input cursors, and the updater's online
   state (pending POIs, dirty units) — **this write is the commit**;
4. best-effort cleanup of the artifacts the manifest no longer
   references — a superseded diagram document, retired epochs; POI
   segments are never superseded within a run — then, if the diagram
   changed, refresh the ``csd-latest.json`` alias.

A run killed at any point resumes from the last committed epoch:
``resume=True`` reloads the diagram, restores the updater's online
state, re-registers the live epochs into the windowed miner (exact by
the miner's maintenance invariant), and skips the consumed input rows.
Every start, fresh or resumed, also republishes the alias when it is
missing or does not match the committed diagram, so a crash between a
commit and its alias copy never leaves a daemon on a stale diagram.
It then runs step 4's cleanup, which also removes an earlier run's
artifacts a fresh start replaces, and any a crash before step 4 leaked.
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

import math
import shutil
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Union,
)

from repro import ioutil
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
from repro.data.persistence import PoiSegment, load_csd, read_csd, save_csd
from repro.data.poi import POI
from repro.data.taxi import TaxiTrip
from repro.ioutil import file_sha256
from repro.mining.prefixspan import FrequentSequence
from repro.obs import get_registry
from repro.runner.commit import (
    artifact_intact,
    checkpoint,
    config_hash,
    parse_manifest_document,
    read_manifest,
    remove_unreferenced,
    write_manifest,
)
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

    def to_document(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "StreamManifest":
        return cls(
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


def parse_stream_manifest(
    text: str, *, source: str = STREAM_MANIFEST_NAME
) -> StreamManifest:
    """Parse a ``stream_manifest.json`` document (see
    :func:`~repro.runner.commit.parse_manifest_document` for the
    errors it raises)."""
    return StreamManifest.from_document(
        parse_manifest_document(text, STREAM_MANIFEST_VERSION, source=source)
    )


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
        # Checked here, not left to the config hash (which refuses
        # NaN/inf with a JSON error that names no parameter).
        if not 0 <= staleness_threshold < math.inf:
            raise ValueError("staleness_threshold must be finite and non-negative")
        self.run_dir = Path(run_dir)
        self.trips_path = Path(trips_path)
        self.base_csd_path = (
            None if base_csd_path is None else Path(base_csd_path)
        )
        self.pois_path = None if pois_path is None else Path(pois_path)
        self.csd_config = csd_config or CSDConfig()
        self.mining_config = mining_config or MiningConfig()
        self.epoch_trips = int(epoch_trips)
        self.poi_batch = None if poi_batch is None else int(poi_batch)
        self.window_epochs = int(window_epochs)
        self.staleness_threshold = float(staleness_threshold)
        self.resume = bool(resume)
        self.on_bad_row = on_bad_row
        self.on_epoch = on_epoch
        self.engine: Optional[StreamEngine] = None
        self._manifest: Optional[StreamManifest] = None
        #: POI segments of the committed diagram, extended by each save.
        self._segments: List[PoiSegment] = []

    # -- checkpoint plumbing -------------------------------------------

    def _config_hash(self) -> str:
        """``epoch_trips`` and ``poi_batch`` are included because they
        change epoch boundaries, hence day-chain grouping and window
        contents."""
        return config_hash(
            {
                "csd_config": asdict(self.csd_config),
                "mining_config": asdict(self.mining_config),
                "window_epochs": self.window_epochs,
                "staleness_threshold": self.staleness_threshold,
                "epoch_trips": self.epoch_trips,
                "poi_batch": self.poi_batch,
            }
        )

    def _save_manifest(self, manifest: StreamManifest) -> None:
        write_manifest(
            self.run_dir / STREAM_MANIFEST_NAME, manifest.to_document()
        )

    def _committed_artifact(self, name: str, sha: str) -> Path:
        path = self.run_dir / name
        if not artifact_intact(path, sha):
            raise ValueError(
                f"committed artifact {name} in {self.run_dir} is missing "
                f"or fails its integrity check (manifest {sha[:12]}…)"
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
        csd_path = self.run_dir / csd_artifact
        self._segments = checkpoint(lambda: save_csd(csd_path, base))
        base_sha = file_sha256(csd_path)
        manifest = StreamManifest(
            config_hash=cfg_hash,
            base_csd_sha256=base_sha,
            csd_artifact=csd_artifact,
            csd_sha256=base_sha,
        )
        self._save_manifest(manifest)
        return manifest

    def _resumed_state(self, cfg_hash: str) -> StreamManifest:
        manifest = StreamManifest.from_document(
            read_manifest(
                self.run_dir / STREAM_MANIFEST_NAME,
                STREAM_MANIFEST_VERSION,
                {"config_hash": cfg_hash},
            )
        )
        csd, self._segments = read_csd(
            self._committed_artifact(
                manifest.csd_artifact, manifest.csd_sha256
            )
        )
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
            path = self._committed_artifact(record.artifact, record.sha256)
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

        checkpoint(
            lambda: ioutil.atomic_write(self.run_dir / LATEST_CSD_NAME, _copy)
        )

    def _remove_unreferenced(self, manifest: StreamManifest) -> None:
        """Delete the diagram documents, POI segments and epoch files
        of this run directory that ``manifest`` does not reference."""
        epochs = {record.artifact for record in manifest.epochs}
        for pattern, keep in (
            ("csd-[0-9]*.json", {manifest.csd_artifact}),
            ("pois-*.json", {segment.file for segment in self._segments}),
            (f"{EPOCH_DIR}/epoch-*.csv", epochs),
        ):
            remove_unreferenced(self.run_dir, pattern, keep)

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
        entries and recount them in ``ingest.quarantined``, so the sink
        is gated on the cursor.
        """
        skipping = skip_valid > 0

        def guarded_sink(row: QuarantinedRow) -> Optional[bool]:
            if skipping:
                return False
            if self.on_bad_row is None:
                raise MalformedRowError(self.trips_path, row)
            return self.on_bad_row(row)

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
        cfg_hash = self._config_hash()
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
        # A crash between a commit and its alias copy (or a fresh run
        # that has not committed an epoch yet) leaves the alias missing
        # or stale; repair it before streaming on.
        if not artifact_intact(
            self.run_dir / LATEST_CSD_NAME, manifest.csd_sha256
        ):
            self._publish_latest(manifest.csd_artifact)
        # Only with the alias on the committed diagram may the segments
        # an older alias referenced go.
        self._remove_unreferenced(manifest)
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
                epoch_path = self.run_dir / epoch_artifact
                checkpoint(
                    lambda: write_semantic_trajectories(
                        epoch_path, result.recognized
                    )
                )
                epoch_sha = file_sha256(epoch_path)
                if result.diagram_changed:
                    csd_artifact = self._csd_artifact_name(
                        result.epoch_index + 1
                    )
                    csd_path = self.run_dir / csd_artifact
                    self._segments = checkpoint(
                        lambda: save_csd(csd_path, engine.csd, self._segments)
                    )
                    manifest.csd_artifact = csd_artifact
                    manifest.csd_sha256 = file_sha256(csd_path)

                records[result.epoch_index] = EpochRecord(
                    index=result.epoch_index,
                    artifact=epoch_artifact,
                    sha256=epoch_sha,
                )
                live = set(engine.window_epoch_ids())
                records = {
                    index: record
                    for index, record in records.items()
                    if index in live
                }
                manifest.trips_consumed += len(batch)
                manifest.pois_consumed += len(poi_batch)
                manifest.next_seq_id = engine.next_seq_id
                manifest.epoch_index = engine.next_epoch_index
                manifest.pending = engine.updater.pending_indices()
                manifest.dirty = engine.updater.dirty_units()
                manifest.n_added = engine.updater.n_added
                manifest.epochs = [
                    records[index] for index in sorted(records)
                ]
                # The commit point: everything above is provisional
                # until this atomic write lands.
                self._save_manifest(manifest)

            # Post-commit cleanup of the superseded diagram document and
            # retired epochs (a crash here leaks them until the next
            # start).
            self._remove_unreferenced(manifest)
            if result.diagram_changed:
                self._publish_latest(manifest.csd_artifact)

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
