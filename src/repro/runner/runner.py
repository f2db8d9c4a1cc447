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
``chunk_size`` rather than the corpus size.  Every checkpoint write
goes through :func:`~repro.runner.fs.write_checkpoint`, which retries
transient ``OSError`` with backoff; tests install a
:func:`repro.ioutil.fault_hook` to exercise both the retry and the
crash/resume paths (``docs/RUNNER.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.contracts import ArraySpec, array_contract
from repro.core.config import CSDConfig, MiningConfig
from repro.core.csd import CitySemanticDiagram
from repro.core.miner import MiningResult, PervasiveMiner
from repro.core.recognition import CSDRecognizer
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
from repro.ioutil import bytes_writer
from repro.obs import get_registry
from repro.runner.fs import write_checkpoint
from repro.runner.manifest import (
    Manifest,
    config_hash,
    file_sha256,
    input_digest,
    parse_manifest,
)

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
CSD_ARTIFACT = "csd.json"
RECOGNIZED_ARTIFACT = "recognized.csv"


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

    def _save_manifest(self, manifest: Manifest) -> None:
        write_checkpoint(
            self.run_dir / MANIFEST_NAME,
            bytes_writer((manifest.to_json() + "\n").encode("utf-8")),
        )

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
        manifest = parse_manifest(
            path.read_text(encoding="utf-8"), source=str(path)
        )
        if not manifest.matches(cfg_hash, in_digest):
            raise ValueError(
                f"run directory {self.run_dir} holds checkpoints for a "
                "different computation (config hash or input digest "
                "mismatch); pass resume=False to overwrite, or use a "
                "fresh --run-dir"
            )
        return manifest

    def _stage_checkpoint_valid(
        self, manifest: Optional[Manifest], stage: str
    ) -> bool:
        """True when ``stage`` can be loaded instead of recomputed."""
        if manifest is None:
            return False
        record = manifest.stage(stage)
        if record.status != "complete" or record.artifact is None:
            return False
        path = self.run_dir / record.artifact
        if not path.exists():
            return False
        if record.artifact_sha256 != file_sha256(path):
            return False
        return True

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
        out: List[SemanticTrajectory] = []
        cursor = 0
        for st in trajectories:
            stays = [
                sp.with_semantics(props[cursor + i])
                for i, sp in enumerate(st.stay_points)
            ]
            cursor += len(st.stay_points)
            out.append(SemanticTrajectory(st.traj_id, stays))
        return out

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
            cfg_hash = config_hash(
                self.csd_config, self.mining_config, self.chunk_size
            )
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
            if self._stage_checkpoint_valid(manifest, "constructor"):
                csd = load_csd(self.run_dir / CSD_ARTIFACT)
                reg.counter("pipeline.runner.stages.skipped").inc()
            else:
                with reg.span("constructor"):
                    stay_points = [
                        sp for st in trajectories for sp in st.stay_points
                    ]
                    csd = self._miner.build_diagram(pois, stay_points)
                sha = file_sha256(
                    write_checkpoint(
                        self.run_dir / CSD_ARTIFACT,
                        lambda tmp: save_csd(tmp, csd),
                    )
                )
                manifest.mark_complete("constructor", CSD_ARTIFACT, sha)
                self._save_manifest(manifest)
                reg.counter("pipeline.runner.stages.run").inc()

            # Stage 2: chunked recognition -> recognized.csv
            if self._stage_checkpoint_valid(manifest, "recognition"):
                recognized = read_semantic_trajectories(
                    self.run_dir / RECOGNIZED_ARTIFACT
                )
                reg.counter("pipeline.runner.stages.skipped").inc()
            else:
                with reg.span("recognition"):
                    recognized = self._recognize_chunked(csd, trajectories)
                sha = file_sha256(
                    write_checkpoint(
                        self.run_dir / RECOGNIZED_ARTIFACT,
                        lambda tmp: write_semantic_trajectories(
                            tmp, recognized
                        ),
                    )
                )
                manifest.mark_complete(
                    "recognition", RECOGNIZED_ARTIFACT, sha
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
