"""repro.parallel: chunking, equivalence, failure modes and worker metrics.

Four invariant families:

1. **Chunking** — ``chunk_bounds`` never produces an empty chunk and
   respects the per-job minimum *after* rounding (the regression that
   motivated it).
2. **Equivalence** — ``recognize_parallel`` and ``recognize(...,
   n_jobs=N)`` are bit-identical to the serial path, for both voting
   dtypes.
3. **Failure modes** — a dead worker raises ``WorkerCrash``, a wedged
   one ``PoolStall``; no worker outlives any call, and the next call
   succeeds.
4. **Worker metrics** — the counters a worker increments reach the
   parent's registry, so serial and parallel runs report the same work.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.core.recognition as recognition_mod
import repro.parallel as parallel_mod
from repro import obs
from repro.core.recognition import CSDRecognizer, chunk_bounds
from repro.obs import MetricsRegistry
from repro.parallel import PoolStall, WorkerCrash, recognize_parallel


def _halves(stays):
    return np.array([0, len(stays) // 2, len(stays)], dtype=np.int64)


class TestChunkBounds:
    def test_single_chunk_when_too_small(self):
        bounds = chunk_bounds(100, n_jobs=4, min_per_job=512)
        assert bounds.tolist() == [0, 100]

    def test_no_empty_chunks_after_rounding(self):
        # The regression: just above the threshold, linspace rounding
        # used to shave a chunk below min_per_job (or to zero).
        for n_items in (513, 1023, 1025, 4096, 4097):
            for n_jobs in (2, 3, 4, 7):
                bounds = chunk_bounds(n_items, n_jobs, min_per_job=512)
                sizes = np.diff(bounds)
                assert (sizes > 0).all(), (n_items, n_jobs, bounds)
                if len(sizes) > 1:
                    assert (sizes >= 512).all(), (n_items, n_jobs, bounds)

    def test_covers_exactly_once(self):
        bounds = chunk_bounds(10_000, 4, min_per_job=512)
        assert bounds[0] == 0 and bounds[-1] == 10_000
        assert (np.diff(bounds) > 0).all()
        assert len(bounds) == 5

    def test_fewer_items_than_jobs(self):
        bounds = chunk_bounds(3, n_jobs=8, min_per_job=1)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == 3
        assert (sizes > 0).all()

    def test_zero_items(self):
        assert chunk_bounds(0, 4).tolist() == [0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)
        with pytest.raises(ValueError):
            chunk_bounds(10, 2, min_per_job=0)


def _assert_chunked_matches_serial(recognizer, flat_stays):
    serial = recognizer.recognize_points(flat_stays)
    for n_chunks in (2, 3):
        bounds = chunk_bounds(len(flat_stays), n_chunks, min_per_job=1)
        assert len(bounds) == n_chunks + 1
        assert recognize_parallel(recognizer, flat_stays, bounds) == serial
    assert multiprocessing.active_children() == []


class TestParallelEquivalence:
    def test_recognize_parallel_matches_serial(
        self, small_csd, small_csd_config, flat_stays
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        _assert_chunked_matches_serial(recognizer, flat_stays)

    def test_recognize_parallel_matches_serial_float32(
        self, small_csd, small_csd_config, flat_stays
    ):
        recognizer = CSDRecognizer(
            small_csd, small_csd_config.r3sigma_m, query_dtype="float32"
        )
        _assert_chunked_matches_serial(recognizer, flat_stays)

    def test_recognize_n_jobs_bit_identical(
        self, small_csd, small_csd_config, small_trajectories, monkeypatch
    ):
        monkeypatch.setattr(recognition_mod, "_MIN_STAYS_PER_JOB", 1)
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        serial = recognizer.recognize(small_trajectories, n_jobs=1)
        fanned = recognizer.recognize(small_trajectories, n_jobs=2)
        assert len(serial) == len(fanned)
        for a, b in zip(serial, fanned):
            assert a.traj_id == b.traj_id
            assert [sp.semantics for sp in a.stay_points] == [
                sp.semantics for sp in b.stay_points
            ]
        assert multiprocessing.active_children() == []

    def test_rejects_single_chunk(self, small_csd, flat_stays):
        recognizer = CSDRecognizer(small_csd, 100.0)
        with pytest.raises(ValueError, match="at least 2 chunks"):
            recognize_parallel(
                recognizer, flat_stays, np.array([0, len(flat_stays)])
            )


def _die(*args, **kwargs):
    os._exit(17)


def _wedge(*args, **kwargs):
    time.sleep(60.0)
    raise AssertionError("the watchdog should have fired first")


class TestWorkerCrash:
    def test_dead_worker_raises_worker_crash(
        self, small_csd, small_csd_config, flat_stays, monkeypatch
    ):
        # fork hands the patched kernel to the workers.
        monkeypatch.setattr(parallel_mod, "vote_stays", _die)
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        with pytest.raises(WorkerCrash, match="died"):
            recognize_parallel(recognizer, flat_stays, _halves(flat_stays))
        assert multiprocessing.active_children() == []

    def test_next_call_after_crash_succeeds(
        self, small_csd, small_csd_config, flat_stays, monkeypatch
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        with monkeypatch.context() as patch:
            patch.setattr(parallel_mod, "vote_stays", _die)
            with pytest.raises(WorkerCrash):
                recognize_parallel(
                    recognizer, flat_stays, _halves(flat_stays)
                )
        props = recognize_parallel(recognizer, flat_stays, _halves(flat_stays))
        assert props == recognizer.recognize_points(flat_stays)
        assert multiprocessing.active_children() == []


class TestPoolWatchdog:
    def test_stall_raises_pool_stall(
        self, small_csd, small_csd_config, flat_stays, monkeypatch
    ):
        monkeypatch.setattr(parallel_mod, "_STALL_TIMEOUT_S", 0.2)
        monkeypatch.setattr(parallel_mod, "vote_stays", _wedge)
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        started = time.monotonic()
        with pytest.raises(PoolStall, match="stalled"):
            recognize_parallel(recognizer, flat_stays, _halves(flat_stays))
        # The wedged workers are killed, not waited for.
        assert time.monotonic() - started < 30.0
        assert multiprocessing.active_children() == []

    def test_recovery_after_stall(
        self, small_csd, small_csd_config, flat_stays, monkeypatch
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        with monkeypatch.context() as patch:
            patch.setattr(parallel_mod, "_STALL_TIMEOUT_S", 0.2)
            patch.setattr(parallel_mod, "vote_stays", _wedge)
            with pytest.raises(PoolStall):
                recognize_parallel(
                    recognizer, flat_stays, _halves(flat_stays)
                )
        props = recognize_parallel(recognizer, flat_stays, _halves(flat_stays))
        assert props == recognizer.recognize_points(flat_stays)
        assert multiprocessing.active_children() == []


class TestWorkerMetrics:
    def _counters(self, recognizer, trajectories, n_jobs):
        old = obs.set_registry(MetricsRegistry(enabled=True))
        try:
            recognizer.recognize(trajectories, n_jobs=n_jobs)
            return obs.get_registry().snapshot()["counters"]
        finally:
            obs.set_registry(old)

    def test_counters_equal_serial_and_parallel(
        self, small_csd, small_csd_config, small_trajectories, monkeypatch
    ):
        monkeypatch.setattr(recognition_mod, "_MIN_STAYS_PER_JOB", 1)
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        serial = self._counters(recognizer, small_trajectories, 1)
        fanned = self._counters(recognizer, small_trajectories, 2)
        for name in (
            "recognition.votes.cast",
            "geo.index.centers",
            "geo.index.candidates",
            "geo.index.hits",
        ):
            assert serial.get(name, 0) > 0, name
            assert fanned.get(name, 0) == serial[name], name
        # One range query per chunk (docs/OBSERVABILITY.md).
        assert serial["geo.index.queries"] == 1
        assert fanned["geo.index.queries"] == 2
