"""The commit layer both checkpointed runners share.

:class:`~repro.runner.runner.PipelineRunner` and
:class:`~repro.runner.stream.StreamRunner` keep their state in a run
directory under one protocol:

- **each artifact is written once, atomically**, by its own writer —
  ``save_csd``, ``write_semantic_trajectories`` and
  :func:`write_manifest` are each a single
  :func:`repro.ioutil.atomic_write`.  :func:`checkpoint` only retries
  such a write on a transient ``OSError`` (:func:`retry_with_backoff`)
  and times it;
- **the manifest is the commit point**: a strict-JSON document carrying
  a ``format_version``, a :func:`config_hash` over every parameter that
  shapes the result, and the SHA-256 of every artifact it references;
- **resume** reads the manifest (:func:`read_manifest`), refuses one
  written for a different computation, and trusts an artifact only
  when it is intact (:func:`artifact_intact`);
- **after a commit**, the runner's artifacts it no longer references
  are deleted (:func:`remove_unreferenced`).

Faults are injected through :mod:`repro.ioutil`'s write hook
(:func:`repro.ioutil.fault_hook`): a hook raising
:class:`repro.ioutil.SimulatedCrash` kills the run at that write
boundary, one raising ``OSError`` is a transient failure the retry
absorbs (``docs/RUNNER.md``).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Collection, Dict, Mapping, Optional, TypeVar

from repro.ioutil import file_sha256, strict_json_dump, strict_json_loads
from repro.obs import get_registry

T = TypeVar("T")

#: Retries of a failed artifact write before its ``OSError`` propagates.
MAX_RETRIES = 3
#: Sleep before the first retry, in seconds; doubled before each next one.
BACKOFF_S = 0.05


def retry_with_backoff(
    operation: Callable[[], T],
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``operation``, retrying ``OSError`` with exponential backoff.

    Attempts ``MAX_RETRIES + 1`` times total, sleeping ``BACKOFF_S *
    2**attempt`` between attempts; the last failure propagates.  Only
    ``OSError`` (transient I/O) is retried —
    :class:`~repro.ioutil.SimulatedCrash` and everything else escape
    immediately.  ``sleep`` is injectable so tests run instantly.  Each
    retry increments the ``pipeline.runner.checkpoint.retries`` counter
    on the :mod:`repro.obs` registry.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except OSError:
            if attempt >= MAX_RETRIES:
                raise
            get_registry().counter("pipeline.runner.checkpoint.retries").inc()
            sleep(BACKOFF_S * (2.0 ** attempt))
            attempt += 1


def checkpoint(write: Callable[[], T]) -> T:
    """Run one artifact write under :func:`retry_with_backoff`, timed
    as ``pipeline.runner.checkpoint``.

    ``write`` must already be atomic (one :func:`repro.ioutil.atomic_write`):
    a failed attempt leaves the previous artifact and no debris, so
    repeating it is safe.
    """
    with get_registry().timer("pipeline.runner.checkpoint"):
        return retry_with_backoff(write)


def config_hash(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``payload``: every parameter
    that can change a run's result, so a checkpoint is only reused for
    the configuration that produced it."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path: Path, document: Mapping[str, Any]) -> None:
    """Commit ``document`` as the run directory's manifest (strict JSON,
    sorted keys, two-space indent, trailing newline)."""
    checkpoint(
        lambda: strict_json_dump(
            path, document, indent=2, trailing_newline=True
        )
    )


def parse_manifest_document(
    text: str, version: int, *, source: str
) -> Dict[str, Any]:
    """Parse a manifest and check its ``format_version``.

    Raises :class:`repro.ioutil.TornArtifactError` naming ``source`` on
    truncated/invalid JSON (a torn manifest must say *which* file to
    recover) and ``ValueError`` on any version but ``version``.
    """
    document = strict_json_loads(text, name=source)
    found = document.get("format_version")
    if found != version:
        raise ValueError(
            f"unsupported manifest version {found!r} in {source} "
            f"(this build reads version {version})"
        )
    return document


def read_manifest(
    path: Path, version: int, expect: Mapping[str, str]
) -> Dict[str, Any]:
    """The manifest at ``path``, for resuming the computation ``expect``
    identifies.

    ``expect`` maps the manifest's identity fields (``config_hash``,
    and ``input_digest`` for batch runs) to the current invocation's
    values.  Any mismatch raises ``ValueError``: checkpoints of a
    different computation are never silently mixed into this one.
    """
    document = parse_manifest_document(
        path.read_text(encoding="utf-8"), version, source=str(path)
    )
    stale = [
        name.replace("_", " ")
        for name, value in expect.items()
        if document.get(name) != value
    ]
    if stale:
        raise ValueError(
            f"run directory {path.parent} holds checkpoints for a "
            f"different computation ({' and '.join(stale)} mismatch); "
            "pass resume=False to start over, or use a fresh --run-dir"
        )
    return document


def artifact_intact(path: Path, sha256: Optional[str]) -> bool:
    """True when ``path`` exists and its bytes hash to ``sha256``."""
    return path.exists() and file_sha256(path) == sha256


def remove_unreferenced(
    run_dir: Path, pattern: str, keep: Collection[str]
) -> None:
    """Delete the files in ``run_dir`` matching the glob ``pattern``
    whose run-directory-relative names are not in ``keep``."""
    for path in run_dir.glob(pattern):
        if path.relative_to(run_dir).as_posix() not in keep:
            path.unlink(missing_ok=True)
