"""Tests for the fault-tolerant checkpointed pipeline runner.

The acceptance-level guarantees: (1) a run interrupted after any stage
and resumed produces bit-identical patterns to an uninterrupted run,
(2) a corpus with malformed rows completes with those rows quarantined
and counted instead of aborting, (3) transient checkpoint I/O failures
are retried with backoff, (4) stale checkpoints (different config or
input) are refused, never silently reused.

Faults are injected through :func:`repro.ioutil.fault_hook` with
:class:`tests.conftest.CrashAt`, which fails one ``(point, artifact,
nth)`` write boundary.
"""

import csv
import json
from dataclasses import asdict

import pytest

from repro import ioutil, obs
from repro.core.config import CSDConfig, MiningConfig
from repro.core.miner import PervasiveMiner
from repro.data.io import QuarantinedRow, iter_trips, write_trips
from repro.data.persistence import read_csd
from repro.data.taxi import trips_to_mining_trajectories
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.geo import index as geo_index
from repro.ioutil import SimulatedCrash, file_sha256
from repro.obs import MetricsRegistry
from repro.runner import (
    CSD_ARTIFACT,
    MANIFEST_NAME,
    PipelineRunner,
    Quarantine,
    RECOGNIZED_ARTIFACT,
    config_hash,
    input_digest,
    parse_manifest,
    retry_with_backoff,
)
from tests.conftest import CrashAt

#: Crash sites of the batch run, named for the pipeline moment they
#: hit.  Manifest writes: #1 fresh, #2 constructor done, #3 recognition
#: done.
CRASH_SITES = {
    "after-constructor-checkpoint": ("replaced", MANIFEST_NAME, 2),
    "before-recognition": ("tmp-open", RECOGNIZED_ARTIFACT, 1),
    "after-recognition-checkpoint": ("replaced", MANIFEST_NAME, 3),
}


def pattern_key(patterns):
    """Exact content of a pattern list, for bit-identity assertions."""
    return [
        (
            p.items,
            tuple(p.member_ids),
            tuple(
                (sp.lon, sp.lat, sp.t, tuple(sorted(sp.semantics)))
                for sp in p.representatives
            ),
            tuple(
                tuple(
                    (sp.lon, sp.lat, sp.t, tuple(sorted(sp.semantics)))
                    for sp in group
                )
                for group in p.groups
            ),
        )
        for p in patterns
    ]


@pytest.fixture(scope="module")
def workload(small_pois, small_trajectories):
    # Uninterrupted, non-checkpointed reference from the plain miner.
    cc = CSDConfig(alpha=0.7)
    mc = MiningConfig(support=10, rho=0.001)
    reference = PervasiveMiner(cc, mc).mine(small_pois, small_trajectories)
    return cc, mc, reference


class TestRunnerEquivalence:
    def test_matches_plain_miner(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        cc, mc, reference = workload
        runner = PipelineRunner(
            tmp_path / "run", cc, mc
        )
        result = runner.run(small_pois, small_trajectories)
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )
        assert [st.stay_points for st in result.recognized] == [
            st.stay_points for st in reference.recognized
        ]

    def test_recognition_block_does_not_change_results(
        self, tmp_path, small_pois, small_trajectories, workload, monkeypatch
    ):
        """Recognition votes in blocks of stays whose candidates fit
        ``PAIR_BUDGET``; a budget far smaller than the corpus changes
        nothing."""
        cc, mc, reference = workload
        monkeypatch.setattr(geo_index, "PAIR_BUDGET", 37)
        result = PipelineRunner(tmp_path / "tiny-blocks", cc, mc).run(
            small_pois, small_trajectories
        )
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )
        assert [st.stay_points for st in result.recognized] == [
            st.stay_points for st in reference.recognized
        ]


class TestCrashResume:
    @pytest.mark.parametrize("crash_point", list(CRASH_SITES))
    def test_resume_after_crash_is_bit_identical(
        self, tmp_path, small_pois, small_trajectories, workload, crash_point
    ):
        cc, mc, reference = workload
        run_dir = tmp_path / "crashed"
        with pytest.raises(SimulatedCrash):
            with ioutil.fault_hook(CrashAt(*CRASH_SITES[crash_point])):
                PipelineRunner(run_dir, cc, mc).run(
                    small_pois, small_trajectories
                )
        result = PipelineRunner(
            run_dir, cc, mc, resume=True
        ).run(small_pois, small_trajectories)
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )
        assert [st.stay_points for st in result.recognized] == [
            st.stay_points for st in reference.recognized
        ]

    def test_resume_skips_completed_stages(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        cc, mc, _ = workload
        run_dir = tmp_path / "skip"
        crash = CrashAt(*CRASH_SITES["after-recognition-checkpoint"])
        with pytest.raises(SimulatedCrash):
            with ioutil.fault_hook(crash):
                PipelineRunner(run_dir, cc, mc).run(
                    small_pois, small_trajectories
                )

        reg = MetricsRegistry(enabled=True)
        old = obs.set_registry(reg)
        try:
            PipelineRunner(
                run_dir, cc, mc, resume=True
            ).run(small_pois, small_trajectories)
        finally:
            obs.set_registry(old)
        snapshot = reg.snapshot()
        # Constructor + recognition loaded from checkpoints; only
        # extraction recomputed.
        assert snapshot["counters"]["pipeline.runner.stages.skipped"] == 2
        assert snapshot["counters"]["pipeline.runner.stages.run"] == 1
        assert snapshot["gauges"]["pipeline.runner.resumed"] == 1.0

    def test_fresh_run_ignores_existing_checkpoints(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        cc, mc, reference = workload
        run_dir = tmp_path / "fresh"
        PipelineRunner(run_dir, cc, mc).run(
            small_pois, small_trajectories
        )
        # Corrupt the CSD checkpoint; a resume=False run must not read it.
        (run_dir / CSD_ARTIFACT).write_text("{}", encoding="utf-8")
        result = PipelineRunner(
            run_dir, cc, mc, resume=False
        ).run(small_pois, small_trajectories)
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )

    def test_fresh_run_removes_previous_run_segments(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        """A fresh run over an old run directory leaves only the POI
        segment its own diagram references."""
        cc, mc, _ = workload
        run_dir = tmp_path / "rerun"
        PipelineRunner(run_dir, cc, mc).run(small_pois, small_trajectories)
        half = small_pois[: len(small_pois) // 2]
        PipelineRunner(run_dir, cc, mc).run(half, small_trajectories)
        _, segments = read_csd(run_dir / CSD_ARTIFACT)
        assert [p.name for p in run_dir.glob("pois-*.json")] == [
            segment.file for segment in segments
        ]

    def test_tampered_artifact_is_recomputed_not_trusted(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        cc, mc, reference = workload
        run_dir = tmp_path / "tampered"
        PipelineRunner(run_dir, cc, mc).run(
            small_pois, small_trajectories
        )
        # Truncate the recognition checkpoint: its SHA no longer matches
        # the manifest, so resume must recompute instead of loading it.
        (run_dir / RECOGNIZED_ARTIFACT).write_text(
            "traj_id,order,lon,lat,t,semantics\n", encoding="utf-8"
        )
        result = PipelineRunner(
            run_dir, cc, mc, resume=True
        ).run(small_pois, small_trajectories)
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )


class TestManifestGuards:
    def test_config_change_refuses_resume(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        cc, mc, _ = workload
        run_dir = tmp_path / "guard"
        PipelineRunner(run_dir, cc, mc).run(
            small_pois, small_trajectories
        )
        other = MiningConfig(support=11, rho=0.001)
        with pytest.raises(ValueError, match="different computation"):
            PipelineRunner(
                run_dir, cc, other, resume=True
            ).run(small_pois, small_trajectories)

    def test_input_change_refuses_resume(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        cc, mc, _ = workload
        run_dir = tmp_path / "guard-input"
        PipelineRunner(run_dir, cc, mc).run(
            small_pois, small_trajectories
        )
        with pytest.raises(ValueError, match="different computation"):
            PipelineRunner(
                run_dir, cc, mc, resume=True
            ).run(small_pois, small_trajectories[:-1])

    def test_manifest_is_strict_json_with_stage_records(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        """Each checkpointed step's record is its artifact's SHA-256."""
        cc, mc, _ = workload
        run_dir = tmp_path / "manifest"
        PipelineRunner(run_dir, cc, mc).run(
            small_pois, small_trajectories
        )
        text = (run_dir / MANIFEST_NAME).read_text(encoding="utf-8")
        document = json.loads(text)
        cfg_hash = config_hash(
            {"csd_config": asdict(cc), "mining_config": asdict(mc)}
        )
        assert document["format_version"] == 2
        assert document["config_hash"] == cfg_hash
        assert document["input_digest"] == input_digest(
            small_pois, small_trajectories
        )
        assert document["artifacts"] == {
            name: file_sha256(run_dir / name)
            for name in (CSD_ARTIFACT, RECOGNIZED_ARTIFACT)
        }
        # Round-trips through the parser.
        manifest = parse_manifest(text)
        assert manifest.config_hash == cfg_hash
        assert manifest.input_digest == document["input_digest"]
        assert manifest.to_document() == document

    def test_version_one_run_dir_refused_on_resume(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        """A run directory of the per-stage-status format (version 1)
        is refused on resume; ``resume=False`` starts it over."""
        cc, mc, reference = workload
        run_dir = tmp_path / "v1"
        PipelineRunner(run_dir, cc, mc).run(small_pois, small_trajectories)
        path = run_dir / MANIFEST_NAME
        document = json.loads(path.read_text(encoding="utf-8"))
        document["format_version"] = 1
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported manifest version"):
            PipelineRunner(run_dir, cc, mc, resume=True).run(
                small_pois, small_trajectories
            )
        result = PipelineRunner(run_dir, cc, mc).run(
            small_pois, small_trajectories
        )
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )

    def test_duplicate_traj_ids_rejected(self, tmp_path, small_pois):
        sts = [
            SemanticTrajectory(1, [StayPoint(121.0, 31.0, 0.0)]),
            SemanticTrajectory(1, [StayPoint(121.1, 31.1, 1.0)]),
        ]
        with pytest.raises(ValueError, match="unique"):
            PipelineRunner(tmp_path / "dup").run(small_pois, sts)

    def test_unsorted_traj_ids_rejected(self, tmp_path, small_pois):
        sts = [
            SemanticTrajectory(2, [StayPoint(121.0, 31.0, 0.0)]),
            SemanticTrajectory(1, [StayPoint(121.1, 31.1, 1.0)]),
        ]
        with pytest.raises(ValueError, match="sorted"):
            PipelineRunner(tmp_path / "unsorted").run(small_pois, sts)


class TestRetry:
    def test_transient_write_failures_are_retried(
        self, tmp_path, small_pois, small_trajectories, workload
    ):
        """Three transient failures of one checkpoint write fit the
        default budget of three retries; the run completes unchanged."""
        cc, mc, reference = workload
        flaky = CrashAt("tmp-open", CSD_ARTIFACT, error=OSError, times=3)
        reg = MetricsRegistry(enabled=True)
        old = obs.set_registry(reg)
        try:
            with ioutil.fault_hook(flaky):
                result = PipelineRunner(
                    tmp_path / "flaky", cc, mc
                ).run(small_pois, small_trajectories)
        finally:
            obs.set_registry(old)
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )
        assert flaky.hits == 4  # 3 failed attempts + the one that landed
        counters = reg.snapshot()["counters"]
        assert counters["pipeline.runner.checkpoint.retries"] == 3

    def test_backoff_is_exponential(self, tmp_path):
        naps = []
        failures = [OSError("injected")] * 3

        def op():
            if failures:
                raise failures.pop()
            return "done"

        assert retry_with_backoff(op, sleep=naps.append) == "done"
        assert naps == [0.05, 0.1, 0.2]

    def test_persistent_failure_raises_after_budget(self, tmp_path):
        attempts = []

        def op():
            attempts.append(1)
            raise OSError("injected persistent failure")

        with pytest.raises(OSError, match="injected"):
            retry_with_backoff(op, sleep=lambda s: None)
        assert len(attempts) == 4  # 1 try + MAX_RETRIES retries

    def test_simulated_crash_is_not_retried(self, tmp_path):
        attempts = []

        def op():
            attempts.append(1)
            raise SimulatedCrash("p")

        with pytest.raises(SimulatedCrash):
            retry_with_backoff(op, sleep=lambda s: None)
        assert len(attempts) == 1


class TestQuarantinedRun:
    def test_dirty_corpus_completes_with_quarantine(
        self, tmp_path, small_pois, small_taxi, workload
    ):
        """The acceptance scenario: malformed rows quarantined + counted,
        run completes, clean rows mine identically to a clean corpus."""
        cc, mc, _ = workload
        trips = small_taxi.trips[:300]
        path = tmp_path / "trips.csv"
        write_trips(path, trips)
        with open(path, "a", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(  # bad float
                [9001, "", "oops", 31.0, 0.0, 121.0, 31.0, 60.0, "R", "R"]
            )
            writer.writerow(  # negative dwell
                [9002, "", 121.0, 31.0, 500.0, 121.0, 31.0, 100.0, "R", "R"]
            )
            writer.writerow(  # non-finite coordinate
                [9003, "", 121.0, "inf", 0.0, 121.0, 31.0, 60.0, "R", "R"]
            )

        reg = MetricsRegistry(enabled=True)
        old = obs.set_registry(reg)
        try:
            with Quarantine(tmp_path / "quarantine.csv") as quarantine:
                ingested = list(
                    iter_trips(path, on_bad_row=quarantine.sink("trips"))
                )
                trajectories = trips_to_mining_trajectories(ingested)
                result = PipelineRunner(
                    tmp_path / "dirty", cc, mc
                ).run(small_pois, trajectories)
        finally:
            obs.set_registry(old)

        assert [t.trip_id for t in ingested] == [
            t.trip_id for t in trips
        ]
        assert quarantine.count == 3
        snapshot = reg.snapshot()
        assert snapshot["counters"]["ingest.quarantined"] == 3
        assert snapshot["counters"]["ingest.rows"] == len(trips) + 3

        clean = trips_to_mining_trajectories(trips)
        reference = PervasiveMiner(cc, mc).mine(small_pois, clean)
        assert pattern_key(result.patterns) == pattern_key(
            reference.patterns
        )

        rows = list(
            csv.DictReader(
                open(tmp_path / "quarantine.csv", encoding="utf-8")
            )
        )
        assert [r["row_number"] for r in rows] == [
            str(len(trips) + 1),
            str(len(trips) + 2),
            str(len(trips) + 3),
        ]
        assert "invalid float" in rows[0]["reason"]
        assert "negative dwell" in rows[1]["reason"]
        assert "non-finite" in rows[2]["reason"]

    def test_clean_run_leaves_no_quarantine_file(self, tmp_path, small_taxi):
        path = tmp_path / "trips.csv"
        write_trips(path, small_taxi.trips[:50])
        with Quarantine(tmp_path / "quarantine.csv") as quarantine:
            trips = list(
                iter_trips(path, on_bad_row=quarantine.sink("trips"))
            )
        assert len(trips) == 50
        assert quarantine.count == 0
        assert not (tmp_path / "quarantine.csv").exists()


class TestQuarantineDurability:
    """Flush-on-add and append-on-reopen: rows must survive crashes and
    sink reuse (a serving/streaming process reopens the same file)."""

    @staticmethod
    def _row(n, reason="bad"):
        return QuarantinedRow(row_number=n, reason=reason, raw=f"raw{n}")

    def test_rows_visible_before_close(self, tmp_path):
        """Every add flushes: a reader (or a post-mortem after SIGKILL)
        sees all recorded rows without waiting for close()."""
        q = Quarantine(tmp_path / "q.csv")
        try:
            q.add("trips", self._row(1))
            q.add("trips", self._row(2))
            rows = list(
                csv.DictReader(open(tmp_path / "q.csv", encoding="utf-8"))
            )
            assert [r["row_number"] for r in rows] == ["1", "2"]
        finally:
            q.close()

    def test_exception_path_closes_and_keeps_rows(self, tmp_path):
        """An exception inside the with-block must still land buffered
        rows on disk and release the file handle."""
        with pytest.raises(RuntimeError, match="ingest blew up"):
            with Quarantine(tmp_path / "q.csv") as q:
                q.add("trips", self._row(7, "truncated"))
                raise RuntimeError("ingest blew up")
        assert q._file is None, "handle released on the error path"
        rows = list(
            csv.DictReader(open(tmp_path / "q.csv", encoding="utf-8"))
        )
        assert len(rows) == 1
        assert rows[0]["reason"] == "truncated"

    def test_reopen_appends_instead_of_truncating(self, tmp_path):
        """A second open of the same quarantine file must append; the
        old 'w'-mode reopen silently destroyed earlier rows."""
        path = tmp_path / "q.csv"
        with Quarantine(path) as q:
            q.add("trips", self._row(1))
            q.close()
            # Same Quarantine object used again after close().
            q.add("trips", self._row(2))
        with Quarantine(path) as q2:
            q2.add("pois", self._row(3))
        rows = list(csv.DictReader(open(path, encoding="utf-8")))
        assert [r["row_number"] for r in rows] == ["1", "2", "3"]
        assert [r["source"] for r in rows] == ["trips", "trips", "pois"]
        content = path.read_text(encoding="utf-8")
        assert content.count("source,row_number,reason,raw") == 1, \
            "exactly one header despite three opens"

    def test_flush_is_safe_when_never_opened(self, tmp_path):
        q = Quarantine(tmp_path / "q.csv")
        q.flush()  # no file yet: must not raise or create one
        assert not (tmp_path / "q.csv").exists()
