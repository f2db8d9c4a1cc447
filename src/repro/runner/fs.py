"""Checkpoint writes, retries, and the crash signal for fault injection.

Both checkpointed drivers write every artifact through
:func:`write_checkpoint`, so

- **atomicity** is uniform — artifacts are written to a ``*.tmp``
  sibling and :func:`os.replace`-d into place (via
  :func:`repro.ioutil.atomic_write`, the repo-wide implementation), so
  a crash mid-write can never leave a half-written checkpoint that a
  resume would trust;
- **transient failures** (NFS hiccups, antivirus locks) are retried
  with exponential backoff in exactly one place
  (:func:`retry_with_backoff`).

Faults are injected through :mod:`repro.ioutil`'s write hook
(:func:`repro.ioutil.fault_hook`), the one fault-injection mechanism:
a hook that raises :class:`SimulatedCrash` kills the run at that write
boundary, and a hook that raises ``OSError`` is a transient failure
the retry absorbs (``docs/RUNNER.md``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, TypeVar

from repro import ioutil
from repro.obs import get_registry

T = TypeVar("T")


class SimulatedCrash(RuntimeError):
    """Raised by a fault-injection hook to emulate the process dying.

    Deliberately **not** an ``OSError``: the retry machinery must let
    it propagate (a killed process does not get retried).
    """


def retry_with_backoff(
    operation: Callable[[], T],
    max_retries: int = 3,
    backoff_s: float = 0.05,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``operation``, retrying ``OSError`` with exponential backoff.

    Attempts ``max_retries + 1`` times total, sleeping ``backoff_s *
    2**attempt`` between attempts; the last failure propagates.  Only
    ``OSError`` (transient I/O) is retried — :class:`SimulatedCrash`
    and everything else escape immediately.  ``sleep`` is injectable so
    tests run instantly.  Each retry increments the
    ``pipeline.runner.checkpoint.retries`` counter on the
    :mod:`repro.obs` registry.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    attempt = 0
    while True:
        try:
            return operation()
        except OSError:
            if attempt >= max_retries:
                raise
            get_registry().counter("pipeline.runner.checkpoint.retries").inc()
            sleep(backoff_s * (2.0 ** attempt))
            attempt += 1


def write_checkpoint(path: Path, writer: Callable[[Path], None]) -> Path:
    """Atomically produce ``path`` via ``writer(tmp_path)``; returns it.

    The one checkpoint write of both runners: :func:`ioutil.atomic_write`
    (which announces the per-write fault points and unlinks the tmp
    sibling on any failure) under :func:`retry_with_backoff`, timed as
    ``pipeline.runner.checkpoint``.
    """
    with get_registry().timer("pipeline.runner.checkpoint"):
        retry_with_backoff(lambda: ioutil.atomic_write(path, writer))
    return path
