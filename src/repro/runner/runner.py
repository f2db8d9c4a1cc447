"""The fault-tolerant, resumable Pervasive Miner pipeline runner.

:class:`PipelineRunner` is :meth:`~repro.core.miner.PervasiveMiner.mine`
— constructor, recognizer, extractor — with a checkpoint after each of
the first two steps, inside a run directory::

    run_dir/
      manifest.json     # config hash, input digest, artifact SHA-256s
      csd.json          # save_csd() after the constructor
      pois-<sha256>.json  # the POI segment csd.json references
      recognized.csv    # write_semantic_trajectories() after recognition
      quarantine.csv    # malformed input rows (written by the caller)

A run that dies 40 minutes in — crash, OOM kill, pre-empted spot
instance — resumes with ``resume=True``: a checkpoint is loaded instead
of recomputed exactly when the manifest lists its SHA-256 and the file
still hashes to it, and the manifest's (config hash, input digest) pair
matches the new invocation.  Because every checkpoint round-trips
exactly (CSV floats via ``repr``, strict JSON), a resumed run produces
**bit-identical patterns** to an uninterrupted one —
``tests/test_runner.py`` asserts this for a crash at every checkpoint.

Recognition is the miner's own call; ``CSDRecognizer.recognize_points``
votes in blocks of stay points whose candidate POIs fit
:data:`~repro.geo.index.PAIR_BUDGET`, so its per-hit arrays are bounded
by the budget, not the corpus (the per-stay input and output still grow
with the corpus).
Every checkpoint is written once, atomically, under
:func:`~repro.runner.commit.checkpoint`, which retries transient
``OSError`` with backoff; tests install a
:func:`repro.ioutil.fault_hook` to exercise both the retry and the
crash/resume paths (``docs/RUNNER.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.contracts import ArraySpec, array_contract
from repro.core.config import CSDConfig, MiningConfig
from repro.core.miner import MiningResult, PervasiveMiner
from repro.data.io import (
    read_semantic_trajectories,
    write_semantic_trajectories,
)
from repro.data.persistence import load_csd, save_csd
from repro.data.poi import POI
from repro.data.trajectory import SemanticTrajectory, validate_database
from repro.ioutil import file_sha256
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

PathLike = Union[str, Path]
T = TypeVar("T")

MANIFEST_NAME = "manifest.json"
CSD_ARTIFACT = "csd.json"
RECOGNIZED_ARTIFACT = "recognized.csv"

#: Format marker; a run directory of any other version is refused on
#: resume.
MANIFEST_VERSION = 2


@dataclass
class Manifest:
    """The ``manifest.json`` document of one run directory.

    It holds the run's identity — a
    :func:`~repro.runner.commit.config_hash` over both parameter
    dataclasses and an :func:`input_digest` over the POI set and the
    trajectory corpus — and the SHA-256 of every committed checkpoint,
    keyed by artifact name.  Resuming with a different ``alpha`` or a
    regenerated corpus is refused instead of silently mixing results.
    """

    config_hash: str
    input_digest: str
    artifacts: Dict[str, str] = field(default_factory=dict)

    def to_document(self) -> Dict[str, object]:
        return {
            "format_version": MANIFEST_VERSION,
            "config_hash": self.config_hash,
            "input_digest": self.input_digest,
            "artifacts": dict(self.artifacts),
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "Manifest":
        return cls(
            config_hash=str(document["config_hash"]),
            input_digest=str(document["input_digest"]),
            artifacts={
                str(name): str(sha)
                for name, sha in document.get("artifacts", {}).items()
            },
        )


def parse_manifest(text: str) -> Manifest:
    """Parse a ``manifest.json`` document (see
    :func:`~repro.runner.commit.parse_manifest_document` for the
    errors it raises)."""
    return Manifest.from_document(
        parse_manifest_document(text, MANIFEST_VERSION, source=MANIFEST_NAME)
    )


def input_digest(
    pois: Sequence[POI],
    trajectories: Sequence[SemanticTrajectory],
) -> str:
    """Streaming SHA-256 over the full input corpus.

    Floats are hashed via ``repr`` (shortest round-tripping form), so
    the digest is stable across platforms and process restarts but
    changes on any value change.  Cost is one pass over the data in
    Python, 2-3 µs per record: 54-74 ms for the 12k POIs and 8.4k
    stays of the ``batch-week`` benchmark job on a 2-vCPU host, some 6%
    of that ~1.0 s job.
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
    """Checkpointed, restartable three-step Pervasive Miner driver.

    Parameters
    ----------
    run_dir:
        Directory holding the manifest and checkpoints; created if
        missing.
    csd_config, mining_config:
        Same parameters as :class:`~repro.core.miner.PervasiveMiner`.
    resume:
        When True, checkpoints the manifest lists with an intact
        SHA-256 are loaded instead of recomputed.  A manifest for a
        *different* computation raises ``ValueError`` — stale
        checkpoints are never silently mixed into a new run.  When
        False, any existing checkpoint state is ignored and
        overwritten.
    """

    def __init__(
        self,
        run_dir: PathLike,
        csd_config: Optional[CSDConfig] = None,
        mining_config: Optional[MiningConfig] = None,
        *,
        resume: bool = False,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.csd_config = csd_config or CSDConfig()
        self.mining_config = mining_config or MiningConfig()
        self.resume = bool(resume)
        self._miner = PervasiveMiner(self.csd_config, self.mining_config)

    # -- checkpoint plumbing -------------------------------------------

    def _config_hash(self) -> str:
        return config_hash(
            {
                "csd_config": asdict(self.csd_config),
                "mining_config": asdict(self.mining_config),
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

    def _checkpointed(
        self, manifest: Manifest, artifact: str, load: Callable[[Path], T]
    ) -> Optional[T]:
        """``artifact`` read back with ``load`` when the manifest lists
        it and its bytes still hash to the listed SHA-256; None when
        the step has to run."""
        path = self.run_dir / artifact
        sha = manifest.artifacts.get(artifact)
        if sha is None or not artifact_intact(path, sha):
            return None
        get_registry().counter("pipeline.runner.stages.skipped").inc()
        return load(path)

    def _commit(
        self, manifest: Manifest, artifact: str, save: Callable[[Path], T]
    ) -> T:
        """Write ``artifact`` with ``save``, then record its SHA-256 in
        the manifest — that manifest write is the step's commit.
        Returns what ``save`` returned."""
        path = self.run_dir / artifact
        saved = checkpoint(lambda: save(path))
        manifest.artifacts[artifact] = file_sha256(path)
        self._save_manifest(manifest)
        get_registry().counter("pipeline.runner.stages.run").inc()
        return saved

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
            reg.gauge("pipeline.runner.resumed").set(
                0.0 if manifest is None else 1.0
            )
            if manifest is None:
                manifest = Manifest(cfg_hash, in_digest)
                self._save_manifest(manifest)

            csd = self._checkpointed(manifest, CSD_ARTIFACT, load_csd)
            if csd is None:
                with reg.span("constructor"):
                    stay_points = [
                        sp for st in trajectories for sp in st.stay_points
                    ]
                    csd = self._miner.build_diagram(pois, stay_points)
                segments = self._commit(
                    manifest, CSD_ARTIFACT, lambda path: save_csd(path, csd)
                )
                remove_unreferenced(
                    self.run_dir, "pois-*.json", {s.file for s in segments}
                )

            recognized = self._checkpointed(
                manifest, RECOGNIZED_ARTIFACT, read_semantic_trajectories
            )
            if recognized is None:
                with reg.span("recognition"):
                    recognized = self._miner.recognize(csd, trajectories)
                self._commit(
                    manifest,
                    RECOGNIZED_ARTIFACT,
                    lambda path: write_semantic_trajectories(path, recognized),
                )

            # Extraction is cheap next to the first two steps and is
            # recomputed on resume rather than checkpointed.
            with reg.span("extraction"):
                patterns = self._miner.extract(csd, recognized)
            reg.counter("pipeline.runner.stages.run").inc()

        return MiningResult(csd, recognized, patterns)
