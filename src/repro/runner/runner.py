"""The fault-tolerant, resumable Pervasive Miner pipeline runner.

:class:`PipelineRunner` executes the three mining stages —
constructor, recognition, extraction — as checkpointed steps inside a
run directory::

    run_dir/
      manifest.json     # config hash, input digest, per-stage status
      csd.json          # save_csd() after the constructor stage
      recognized.csv    # write_semantic_trajectories() after recognition
      quarantine.csv    # malformed input rows (written by the caller)

A run that dies 40 minutes in — crash, OOM kill, pre-empted spot
instance — resumes with ``resume=True``: any stage whose manifest entry
is complete, whose artifact hash matches, and whose (config hash, input
digest) pair matches the new invocation is loaded from its checkpoint
instead of recomputed.  Because every checkpoint round-trips exactly
(CSV floats via ``repr``, strict JSON) and recognition is per-stay
independent, a resumed run produces **bit-identical patterns** to an
uninterrupted one — ``tests/test_runner.py`` asserts this for a crash
after every stage.

Recognition runs in configurable chunks through the batched
``recognize_points`` kernel, so peak memory is bounded by
``chunk_size`` rather than the corpus size.  Every checkpoint is
written once, atomically, under :func:`~repro.runner.commit.checkpoint`,
which retries transient ``OSError`` with backoff; tests install a
:func:`repro.ioutil.fault_hook` to exercise both the retry and the
crash/resume paths (``docs/RUNNER.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.contracts import ArraySpec, array_contract
from repro.core.config import CSDConfig, MiningConfig
from repro.core.csd import CitySemanticDiagram
from repro.core.miner import MiningResult, PervasiveMiner
from repro.core.recognition import CSDRecognizer, attach_semantics
from repro.data.io import (
    read_semantic_trajectories,
    write_semantic_trajectories,
)
from repro.data.persistence import load_csd, save_csd
from repro.data.poi import POI
from repro.data.trajectory import (
    SemanticTrajectory,
    StayPoint,
    validate_database,
)
from repro.ioutil import file_sha256
from repro.obs import get_registry
from repro.runner.commit import (
    artifact_intact,
    checkpoint,
    config_hash,
    parse_manifest_document,
    read_manifest,
    write_manifest,
)

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
CSD_ARTIFACT = "csd.json"
RECOGNIZED_ARTIFACT = "recognized.csv"

#: Format marker so later revisions can migrate old run directories.
MANIFEST_VERSION = 1

#: Stage names in execution order.
STAGES = ("constructor", "recognition", "extraction")

STATUS_PENDING = "pending"
STATUS_COMPLETE = "complete"


@dataclass
class StageRecord:
    """Checkpoint state of one pipeline stage."""

    status: str = STATUS_PENDING
    artifact: Optional[str] = None
    artifact_sha256: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"status": self.status}
        if self.artifact is not None:
            out["artifact"] = self.artifact
            out["artifact_sha256"] = self.artifact_sha256
        return out


@dataclass
class Manifest:
    """The ``manifest.json`` document of one run directory.

    Besides the per-stage records it holds the run's identity: a
    :func:`~repro.runner.commit.config_hash` over both parameter
    dataclasses plus the chunk size, and an :func:`input_digest` over
    the POI set and the trajectory corpus.  Resuming with a different
    ``alpha`` or a regenerated corpus is refused instead of silently
    mixing results.
    """

    config_hash: str
    input_digest: str
    stages: Dict[str, StageRecord] = field(
        default_factory=lambda: {name: StageRecord() for name in STAGES}
    )

    def stage(self, name: str) -> StageRecord:
        if name not in self.stages:
            raise KeyError(f"unknown stage {name!r}")
        return self.stages[name]

    def mark_complete(
        self, name: str, artifact: Optional[str], artifact_sha256: Optional[str]
    ) -> None:
        record = self.stage(name)
        record.status = STATUS_COMPLETE
        record.artifact = artifact
        record.artifact_sha256 = artifact_sha256

    def to_document(self) -> Dict[str, object]:
        return {
            "format_version": MANIFEST_VERSION,
            "config_hash": self.config_hash,
            "input_digest": self.input_digest,
            "stages": {
                name: record.to_dict()
                for name, record in self.stages.items()
            },
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "Manifest":
        stages: Dict[str, StageRecord] = {}
        for name in STAGES:
            raw = document.get("stages", {}).get(name)
            if raw is None:
                stages[name] = StageRecord()
                continue
            status = str(raw.get("status", STATUS_PENDING))
            if status not in (STATUS_PENDING, STATUS_COMPLETE):
                raise ValueError(
                    f"stage {name!r} has unknown status {status!r}"
                )
            artifact = raw.get("artifact")
            sha = raw.get("artifact_sha256")
            stages[name] = StageRecord(
                status=status,
                artifact=None if artifact is None else str(artifact),
                artifact_sha256=None if sha is None else str(sha),
            )
        return cls(
            config_hash=str(document["config_hash"]),
            input_digest=str(document["input_digest"]),
            stages=stages,
        )


def parse_manifest(text: str, *, source: str = MANIFEST_NAME) -> Manifest:
    """Parse a ``manifest.json`` document (see
    :func:`~repro.runner.commit.parse_manifest_document` for the
    errors it raises)."""
    return Manifest.from_document(
        parse_manifest_document(text, MANIFEST_VERSION, source=source)
    )


def input_digest(
    pois: Sequence[POI],
    trajectories: Sequence[SemanticTrajectory],
) -> str:
    """Streaming SHA-256 over the full input corpus.

    Floats are hashed via ``repr`` (shortest round-tripping form), so
    the digest is stable across platforms and process restarts but
    changes on any value change.  Cost is one pass over the data —
    negligible next to construction and recognition.
    """
    h = hashlib.sha256()
    h.update(f"pois:{len(pois)}\n".encode("utf-8"))
    for p in pois:
        h.update(
            f"{p.poi_id},{p.lon!r},{p.lat!r},{p.major},{p.minor},{p.name}\n"
            .encode("utf-8")
        )
    h.update(f"trajectories:{len(trajectories)}\n".encode("utf-8"))
    for st in trajectories:
        h.update(f"t{st.traj_id}:{len(st.stay_points)}\n".encode("utf-8"))
        for sp in st.stay_points:
            tags = ",".join(sorted(sp.semantics))
            h.update(
                f"{sp.lon!r},{sp.lat!r},{sp.t!r},{tags}\n".encode("utf-8")
            )
    return h.hexdigest()


class PipelineRunner:
    """Checkpointed, restartable three-stage Pervasive Miner driver.

    Parameters
    ----------
    run_dir:
        Directory holding the manifest and stage checkpoints; created
        if missing.
    csd_config, mining_config:
        Same parameters as :class:`~repro.core.miner.PervasiveMiner`.
    resume:
        When True, completed stages whose checkpoints match the
        manifest (config hash + input digest + artifact SHA-256) are
        loaded instead of recomputed.  A manifest for a *different*
        computation raises ``ValueError`` — stale checkpoints are never
        silently mixed into a new run.  When False, any existing
        checkpoint state is ignored and overwritten.
    chunk_size:
        Stay points per recognition batch; bounds peak memory on large
        corpora.
    """

    def __init__(
        self,
        run_dir: PathLike,
        csd_config: Optional[CSDConfig] = None,
        mining_config: Optional[MiningConfig] = None,
        *,
        resume: bool = False,
        chunk_size: int = 8192,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.run_dir = Path(run_dir)
        self.csd_config = csd_config or CSDConfig()
        self.mining_config = mining_config or MiningConfig()
        self.resume = bool(resume)
        self.chunk_size = int(chunk_size)
        self._miner = PervasiveMiner(self.csd_config, self.mining_config)

    # -- checkpoint plumbing -------------------------------------------

    def _config_hash(self) -> str:
        """``chunk_size`` is included defensively: chunked recognition
        is bit-identical by construction (each stay point votes
        independently), but hashing it means a future chunk-sensitive
        stage cannot silently reuse a stale checkpoint."""
        return config_hash(
            {
                "csd_config": asdict(self.csd_config),
                "mining_config": asdict(self.mining_config),
                "chunk_size": self.chunk_size,
            }
        )

    def _save_manifest(self, manifest: Manifest) -> None:
        write_manifest(self.run_dir / MANIFEST_NAME, manifest.to_document())

    def _load_manifest(
        self, cfg_hash: str, in_digest: str
    ) -> Optional[Manifest]:
        """The resumable manifest, or None to start fresh.

        Raises ``ValueError`` when ``resume=True`` meets a manifest for
        a different config/input — the one case where proceeding would
        corrupt results.
        """
        path = self.run_dir / MANIFEST_NAME
        if not self.resume or not path.exists():
            return None
        return Manifest.from_document(
            read_manifest(
                path,
                MANIFEST_VERSION,
                {"config_hash": cfg_hash, "input_digest": in_digest},
            )
        )

    def _stage_loadable(self, manifest: Manifest, stage: str) -> bool:
        """True when ``stage`` can be loaded instead of recomputed."""
        record = manifest.stage(stage)
        return (
            record.status == STATUS_COMPLETE
            and record.artifact is not None
            and artifact_intact(
                self.run_dir / record.artifact, record.artifact_sha256
            )
        )

    # -- stages --------------------------------------------------------

    def _recognize_chunked(
        self,
        csd: CitySemanticDiagram,
        trajectories: Sequence[SemanticTrajectory],
    ) -> List[SemanticTrajectory]:
        """Bounded-memory recognition: the flat stay-point corpus flows
        through ``recognize_points`` in ``chunk_size`` slices.

        Per-stay voting is independent, so chunking is bit-identical to
        one whole-corpus batch (the kernel-equivalence tests pin this).
        """
        reg = get_registry()
        recognizer = CSDRecognizer(csd, self.csd_config.r3sigma_m)
        flat: List[StayPoint] = [
            sp for st in trajectories for sp in st.stay_points
        ]
        props = []
        total = len(flat)
        progress = reg.gauge("pipeline.runner.recognition.progress")
        for start in range(0, total, self.chunk_size):
            chunk = flat[start : start + self.chunk_size]
            props.extend(recognizer.recognize_points(chunk))
            reg.counter("pipeline.runner.chunks").inc()
            progress.set(min(1.0, (start + len(chunk)) / max(total, 1)))
        progress.set(1.0)
        return attach_semantics(trajectories, props)

    # -- public API ----------------------------------------------------

    @array_contract(
        ret=[
            ArraySpec(dtype="int64", ndim=1, attr="csd.unit_of"),
            ArraySpec(
                dtype="float64", ndim=1, finite=True, attr="csd.popularity"
            ),
        ]
    )
    def run(
        self,
        pois: Sequence[POI],
        trajectories: Sequence[SemanticTrajectory],
    ) -> MiningResult:
        """Execute (or resume) the full pipeline; returns the same
        :class:`~repro.core.miner.MiningResult` as ``PervasiveMiner.mine``.
        """
        reg = get_registry()
        validate_database(trajectories)
        # The recognition checkpoint is keyed by traj_id; duplicates
        # would merge on reload and break crash/resume equivalence.
        ids = [st.traj_id for st in trajectories]
        if len(set(ids)) != len(ids):
            raise ValueError(
                "trajectory ids must be unique for a checkpointed run "
                "(the recognition checkpoint round-trips by traj_id)"
            )
        if sorted(ids) != ids:
            raise ValueError(
                "trajectories must be sorted by traj_id for a "
                "checkpointed run: the recognition checkpoint reloads "
                "in id order, and pattern extraction must see the same "
                "corpus order on resume"
            )
        with reg.span("pipeline.runner"):
            self.run_dir.mkdir(parents=True, exist_ok=True)
            cfg_hash = self._config_hash()
            in_digest = input_digest(pois, trajectories)
            manifest = self._load_manifest(cfg_hash, in_digest)
            resumed_any = manifest is not None
            reg.gauge("pipeline.runner.resumed").set(
                1.0 if resumed_any else 0.0
            )
            if manifest is None:
                manifest = Manifest(cfg_hash, in_digest)
                self._save_manifest(manifest)

            # Stage 1: constructor -> csd.json
            csd_path = self.run_dir / CSD_ARTIFACT
            if self._stage_loadable(manifest, "constructor"):
                csd = load_csd(csd_path)
                reg.counter("pipeline.runner.stages.skipped").inc()
            else:
                with reg.span("constructor"):
                    stay_points = [
                        sp for st in trajectories for sp in st.stay_points
                    ]
                    csd = self._miner.build_diagram(pois, stay_points)
                checkpoint(lambda: save_csd(csd_path, csd))
                manifest.mark_complete(
                    "constructor", CSD_ARTIFACT, file_sha256(csd_path)
                )
                self._save_manifest(manifest)
                reg.counter("pipeline.runner.stages.run").inc()

            # Stage 2: chunked recognition -> recognized.csv
            recognized_path = self.run_dir / RECOGNIZED_ARTIFACT
            if self._stage_loadable(manifest, "recognition"):
                recognized = read_semantic_trajectories(recognized_path)
                reg.counter("pipeline.runner.stages.skipped").inc()
            else:
                with reg.span("recognition"):
                    recognized = self._recognize_chunked(csd, trajectories)
                checkpoint(
                    lambda: write_semantic_trajectories(
                        recognized_path, recognized
                    )
                )
                manifest.mark_complete(
                    "recognition",
                    RECOGNIZED_ARTIFACT,
                    file_sha256(recognized_path),
                )
                self._save_manifest(manifest)
                reg.counter("pipeline.runner.stages.run").inc()

            # Stage 3: extraction (cheap relative to 1-2; recomputed on
            # resume rather than checkpointed).
            with reg.span("extraction"):
                patterns = self._miner.extract(csd, recognized)
            manifest.mark_complete("extraction", None, None)
            self._save_manifest(manifest)
            reg.counter("pipeline.runner.stages.run").inc()

        return MiningResult(csd, recognized, patterns)
