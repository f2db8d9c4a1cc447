"""Multi-process recognition behind ``recognize(..., n_jobs=N)``.

``repro.parallel`` is the only place in ``src/repro`` allowed to create
worker pools (reprolint rule RPL011).  One call of
:func:`recognize_parallel` works like this (``docs/PARALLELISM.md``):

1. the parent projects the stays and forks a fresh
   ``ProcessPoolExecutor`` for this call only; the pool initializer
   hands every worker ``(csd, xy, r3sigma_m, use_float32)`` through a
   module global, which ``fork`` passes on copy-on-write, so nothing
   is pickled but the ``(start, stop)`` bounds of each chunk,
2. each worker runs :func:`repro.core.recognition.vote_stays` over its
   slice and returns three small int64 arrays plus the metric counters
   the chunk incremented,
3. the parent adds those counters to its registry, concatenates the
   chunks (shifting ``win_stay`` by each chunk's start) and assembles
   the Python-object semantics once.

Votes for different stay points never interact and the kernel
accumulates per stay in hit order, so the concatenation is
bit-identical to one big serial batch.

A worker that dies raises :class:`WorkerCrash`; a call that is not done
:data:`_STALL_TIMEOUT_S` seconds after submit raises :class:`PoolStall`.
Every worker is reaped before the call returns or raises.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.core.csd import CitySemanticDiagram
from repro.core.recognition import CSDRecognizer, vote_stays
from repro.data.trajectory import SemanticProperty, StayPoint
from repro.obs import get_registry
from repro.types import IndexArray, MetersArray

__all__ = ["PoolStall", "WorkerCrash", "recognize_parallel"]

#: Submit watchdog, seconds.  Generous on purpose: the largest benched
#: workload (1M POIs) finishes in seconds, so ten minutes only ever
#: fires on a genuine stall (fork deadlock, wedged worker).
_STALL_TIMEOUT_S = 600.0

#: ``(csd, stay_xy, r3sigma_m, use_float32)`` of the call a worker
#: serves; set by :func:`_set_job` in each forked worker.
_JOB: Optional[Tuple[CitySemanticDiagram, MetersArray, float, bool]] = None

_Chunk = Tuple[IndexArray, IndexArray, IndexArray, Dict[str, int]]


class WorkerCrash(RuntimeError):
    """A pool worker died before returning its chunk.

    Raised in place of ``concurrent.futures.process.BrokenProcessPool``
    so callers get a repro-namespaced, documented failure mode.
    """


class PoolStall(RuntimeError):
    """The submit watchdog expired before every chunk returned.

    Where :class:`WorkerCrash` is a worker *dying*, a stall is a worker
    silently wedging (a lock copied locked across ``fork``, a worker
    stuck in an import).  Without a watchdog that is an infinite hang
    in ``future.result()``; the stalled workers are killed before this
    raises.
    """


def _set_job(
    csd: CitySemanticDiagram, xy: MetersArray, r3sigma_m: float, use_float32: bool
) -> None:
    """Pool initializer: with ``fork`` its arguments are inherited, not
    pickled, so the CSD and the stay corpus reach the worker for free."""
    global _JOB
    _JOB = (csd, xy, r3sigma_m, use_float32)


def _counter_values() -> Dict[str, int]:
    counters = get_registry().snapshot()["counters"]
    return cast(Dict[str, int], counters)


def _vote_chunk(start: int, stop: int) -> _Chunk:
    """:func:`vote_stays` over ``stay_xy[start:stop]`` in a worker.

    Returns the kernel's chunk-local arrays plus the counter increments
    the chunk made (``recognition.votes.cast``, ``geo.index.*``), which
    would otherwise die with the worker's copy of the registry.
    """
    assert _JOB is not None, "_vote_chunk runs only in a pool worker"
    csd, xy, r3sigma_m, use_float32 = _JOB
    before = _counter_values()
    winner_of, win_stay, win_poi = vote_stays(
        csd, xy[start:stop], r3sigma_m, use_float32
    )
    deltas = {
        name: value - before.get(name, 0)
        for name, value in _counter_values().items()
        if value != before.get(name, 0)
    }
    return winner_of, win_stay, win_poi, deltas


def _run_chunks(
    pool: ProcessPoolExecutor, bounds: IndexArray
) -> List[_Chunk]:
    n_chunks = len(bounds) - 1
    try:
        futures = [
            pool.submit(_vote_chunk, int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_chunks)
        ]
        _, pending = wait(futures, timeout=_STALL_TIMEOUT_S)
        if pending:
            raise PoolStall(
                f"recognition pool stalled: {len(pending)} of {n_chunks} "
                f"chunks not done {_STALL_TIMEOUT_S:g}s after submit"
            )
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerCrash(
            f"a recognition worker died mid-chunk ({n_chunks} chunks in flight)"
        ) from exc


def recognize_parallel(
    recognizer: CSDRecognizer,
    stay_points: Sequence[StayPoint],
    bounds: IndexArray,
) -> List[SemanticProperty]:
    """Vote ``k >= 2`` chunks of ``stay_points`` in ``k`` forked workers.

    ``bounds`` are the ``k + 1`` chunk boundaries from
    :func:`repro.core.recognition.chunk_bounds` (the caller stays
    serial for one chunk).  The pool lives for this call only.
    """
    n_chunks = len(bounds) - 1
    if n_chunks < 2:
        raise ValueError("recognize_parallel needs at least 2 chunks")
    xy = recognizer.project_stays(stay_points)
    pool = ProcessPoolExecutor(
        max_workers=n_chunks,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_job,
        initargs=(
            recognizer.csd,
            xy,
            recognizer.r3sigma_m,
            recognizer.query_dtype == "float32",
        ),
    )
    try:
        chunks = _run_chunks(pool, bounds)
    except BaseException:
        # ``shutdown`` waits for busy workers, so a stalled one has to
        # be killed first or it would outlive the call.
        for worker in list((pool._processes or {}).values()):
            worker.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    reg = get_registry()
    for *_, deltas in chunks:
        for name, delta in deltas.items():
            # reprolint: allow-metric-name -- replays counters the
            # worker's registry recorded at their literal-name sites.
            reg.counter(name).inc(delta)
    winner_of = np.concatenate([c[0] for c in chunks])
    win_stay = np.concatenate(
        [c[1] + int(bounds[i]) for i, c in enumerate(chunks)]
    )
    win_poi = np.concatenate([c[2] for c in chunks])
    return recognizer.assemble_semantics(winner_of, win_stay, win_poi)
