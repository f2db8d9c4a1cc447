"""The artifact-I/O layer: every durable file this package writes.

The system persists state other processes depend on — runner manifests,
stream epoch commits, the ``csd-latest.json`` alias a live ``repro
serve`` daemon hot-reloads — and at serving scale a torn artifact is an
outage, not a test failure.  Three durability idioms used to be
hand-rolled at ~12 scattered call sites; this module is their single
implementation, and reprolint pass 3 (RPL017–RPL021,
``docs/STATIC_ANALYSIS.md``) statically forbids new call sites from
bypassing it:

* **atomic writes** — :func:`atomic_write` (and the
  :func:`atomic_write_text` / :func:`atomic_write_bytes` conveniences)
  produce a ``*.tmp`` sibling, flush it, optionally fsync, and
  :func:`os.replace` it into place.  A reader never observes a partial
  artifact, and the tmp file is unlinked on *any* failure, so a torn
  write can leave neither a truncated target nor debris;
* **strict JSON** — :func:`strict_json_dump` serialises with
  ``allow_nan=False`` (the non-standard ``NaN``/``Infinity`` tokens are
  rejected before any file exists) and ``sort_keys=True`` by default so
  hashed artifacts are canonical;
* **diagnosable torn reads** — :func:`strict_json_load` raises
  :class:`TornArtifactError` *naming the artifact* and the byte offset
  of the damage instead of a bare ``json.JSONDecodeError``, so an
  operator staring at a crashed resume knows which file to recover.

Fault injection composes with the :mod:`repro.runner.fs` machinery:
every atomic write announces the :data:`IO_FAULT_POINTS` to an
installable hook (:func:`fault_hook`), so a test — or the exhaustive
``tools/crash_sweep.py`` harness — can kill the process at *every*
write boundary in turn and prove crash/resume holds at each one.
Wiring the hook to ``FlakyFileSystem.fault`` reuses the existing
``crash_points`` vocabulary unchanged.

Setting ``REPRO_IO_SANITIZE=1`` additionally verifies, after every
atomic write, that the target landed, is non-empty, and left no tmp
sibling behind — and for :func:`strict_json_dump` that the written
bytes parse back.  Like ``REPRO_SANITIZE``, the unset mode costs one
truthiness check per write.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

PathLike = Union[str, Path]

#: Suffix of the temporary sibling an atomic write stages into.
TMP_SUFFIX = ".tmp"

#: Fault points announced (in order) by every atomic write:
#:
#: ``tmp-open``
#:     before the temporary sibling is created — a crash here leaves
#:     the previous artifact untouched and no new file at all;
#: ``tmp-written``
#:     the tmp file holds the full payload but ``os.replace`` has not
#:     run — the torn moment an ordinary ``open(path, "w")`` rewrite
#:     would expose to readers;
#: ``replaced``
#:     the rename landed — the new artifact is durable and complete.
IO_FAULT_POINTS = ("tmp-open", "tmp-written", "replaced")

#: Hook signature: ``hook(point, target_path)``; raise to simulate a
#: crash at that boundary (see :class:`repro.runner.fs.SimulatedCrash`).
FaultHook = Callable[[str, Path], None]

_fault_hook: Optional[FaultHook] = None


def _sanitizing() -> bool:
    """Is ``REPRO_IO_SANITIZE`` set?  Read per call so tests can toggle
    it without re-importing; one dict lookup next to real file I/O."""
    return os.environ.get("REPRO_IO_SANITIZE", "").strip() not in ("", "0")


def set_fault_hook(hook: Optional[FaultHook]) -> Optional[FaultHook]:
    """Install (or clear, with None) the write fault hook; returns the
    previous hook so callers can restore it."""
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


@contextmanager
def fault_hook(hook: Optional[FaultHook]) -> Iterator[None]:
    """Scoped :func:`set_fault_hook`: the previous hook is restored on
    exit even when the body raises (as a crash-injection hook does)."""
    previous = set_fault_hook(hook)
    try:
        yield
    finally:
        set_fault_hook(previous)


def _announce(point: str, target: Path) -> None:
    hook = _fault_hook
    if hook is not None:
        hook(point, target)


class TornArtifactError(ValueError):
    """A JSON artifact failed to parse — truncated, torn, or edited.

    Carries the artifact name so the error that surfaces from a failed
    resume or hot-reload says *which* file to recover, not just that
    some JSON somewhere was invalid.  Raised instead of a bare
    ``json.JSONDecodeError`` by :func:`strict_json_load`.
    """

    def __init__(self, artifact: str, detail: str) -> None:
        self.artifact = str(artifact)
        self.detail = detail
        super().__init__(
            f"artifact {self.artifact} is torn or corrupt: {detail} — "
            "the file was truncated, partially written by a crashed "
            "process, or edited by hand; restore it from the previous "
            "commit or rebuild the run directory"
        )


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """Persist the rename itself (the directory entry).  Best-effort:
    not every platform allows opening a directory."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _post_write_check(target: Path, tmp: Path) -> None:
    """``REPRO_IO_SANITIZE=1``: the write's observable postconditions."""
    if not target.exists():
        raise TornArtifactError(
            str(target), "atomic write completed but the target is missing"
        )
    if target.stat().st_size == 0:
        raise TornArtifactError(
            str(target), "atomic write left a zero-byte artifact"
        )
    if tmp.exists():
        raise TornArtifactError(
            str(target),
            f"atomic write left tmp debris behind ({tmp.name})",
        )


def atomic_write(
    path: PathLike,
    writer: Callable[[Path], None],
    *,
    fsync: bool = False,
) -> Path:
    """Atomically produce ``path`` via ``writer(tmp_path)``.

    ``writer`` receives a temporary sibling; only after it returns is
    the file renamed into place, so readers never observe a partial
    artifact.  The tmp file is unlinked on any failure — including an
    injected crash — so no ``*.tmp`` debris survives.  ``fsync=True``
    flushes the payload and the rename to stable storage before
    returning (off by default: tests and benches value speed, a
    serving deployment can opt in).

    Nesting is safe: a ``writer`` that itself calls this function
    (e.g. ``save_csd`` inside a runner checkpoint) stages into
    ``*.tmp.tmp`` and announces its own fault points.
    """
    target = Path(path)
    tmp = target.with_name(target.name + TMP_SUFFIX)
    _announce("tmp-open", target)
    try:
        writer(tmp)
        if fsync:
            _fsync_file(tmp)
        _announce("tmp-written", target)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _announce("replaced", target)
    if fsync:
        _fsync_dir(target.parent)
    if _sanitizing():
        _post_write_check(target, tmp)
    return target


def atomic_write_bytes(
    path: PathLike, data: bytes, *, fsync: bool = False
) -> None:
    """Atomic whole-file byte write (see :func:`atomic_write`)."""

    def _write(tmp: Path) -> None:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()

    atomic_write(path, _write, fsync=fsync)


def atomic_write_text(
    path: PathLike,
    text: str,
    *,
    encoding: str = "utf-8",
    fsync: bool = False,
) -> None:
    """Atomic whole-file text write.

    Encodes to bytes first and writes them verbatim — no platform
    newline translation, so CSV payloads built with ``csv.writer`` over
    ``io.StringIO`` land byte-identical to the old
    ``open(path, "w", newline="")`` spelling.
    """
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def strict_json_dumps(
    document: Any,
    *,
    indent: Optional[int] = None,
    sort_keys: bool = True,
) -> str:
    """Serialise to strict JSON: ``allow_nan=False`` (a NaN/inf raises
    ``ValueError`` before any file exists) and canonical key order by
    default, so hashed artifacts serialise identically everywhere."""
    return json.dumps(
        document, indent=indent, sort_keys=sort_keys, allow_nan=False
    )


def strict_json_dump(
    path: PathLike,
    document: Any,
    *,
    indent: Optional[int] = None,
    sort_keys: bool = True,
    trailing_newline: bool = False,
    fsync: bool = False,
) -> None:
    """Serialise ``document`` and atomically write it to ``path``.

    Serialisation happens entirely before the tmp file is opened, so a
    serialisation error (non-finite float, unserialisable object)
    cannot leave even a tmp file behind.
    """
    payload = strict_json_dumps(document, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        payload += "\n"
    atomic_write_text(path, payload, fsync=fsync)
    if _sanitizing():
        # Read-back: the bytes on disk must parse.  Catches encoding
        # bugs and torn writes the rename postcondition cannot see.
        strict_json_load(path)


def strict_json_loads(text: str, *, name: str = "<json>") -> Any:
    """Parse JSON, raising :class:`TornArtifactError` (naming ``name``)
    on empty or invalid input instead of a bare ``JSONDecodeError``."""
    if not text.strip():
        raise TornArtifactError(
            name, f"file holds no JSON ({len(text)} bytes of whitespace)"
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TornArtifactError(
            name,
            f"invalid JSON at line {exc.lineno} column {exc.colno} "
            f"(byte offset {exc.pos} of {len(text)}): {exc.msg}",
        ) from exc


def strict_json_load(path: PathLike) -> Any:
    """Read and parse a JSON artifact written by :func:`strict_json_dump`.

    A missing file raises ``FileNotFoundError`` unchanged (absence is a
    different failure from damage); undecodable or unparseable content
    raises :class:`TornArtifactError` naming the file.
    """
    target = Path(path)
    raw = target.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TornArtifactError(
            str(target),
            f"not valid UTF-8 at byte {exc.start} of {len(raw)}: "
            f"{exc.reason}",
        ) from exc
    return strict_json_loads(text, name=str(target))


def file_sha256(path: PathLike) -> str:
    """Streaming SHA-256 of a file's bytes (artifact integrity checks,
    shared by the runner manifests and the serve hot-reload guard)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
