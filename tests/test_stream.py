"""Streaming pipeline tests (docs/STREAMING.md).

Four layers, each pinned to an offline oracle:

- :class:`WindowedPrefixSpan` vs from-scratch :func:`prefixspan` over
  the live window — randomized add/retire schedules (the
  decrement-correctness oracle);
- :class:`StreamEngine` window slides vs a scratch mine of its own
  recognised window after every epoch;
- :meth:`IncrementalCSD.repair` vs an offline ``purify`` +
  ``merge_units`` run on the captured dirty scope (the repair oracle);
- :class:`StreamRunner` crash/resume bit-identity at one write
  boundary per moment of the epoch commit (``STREAM_CRASH_SITES``,
  injected through :func:`repro.ioutil.fault_hook`), plus
  quarantine-cursor, retry and append-only guarantees.
"""

import math
import random
import re

import pytest

from repro import ioutil, obs
from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import build_csd
from repro.core.extraction import counterpart_cluster
from repro.core.incremental import IncrementalCSD
from repro.core.merging import merge_units
from repro.core.purification import purify
from repro.data.io import read_pois, write_pois, write_trips
from repro.data.persistence import load_csd, read_csd, save_csd
from repro.data.trajectory import as_tag_sequence
from repro.mining.prefixspan import WindowedPrefixSpan, prefixspan
from repro.obs import MetricsRegistry
from repro.runner import Quarantine, StreamRunner, parse_stream_manifest
from repro.ioutil import SimulatedCrash
from repro.runner.stream import LATEST_CSD_NAME, STREAM_MANIFEST_NAME
from repro.serve import RecognitionService
from repro.stream import StreamEngine
from tests.conftest import CrashAt, diagram_key, fine_key


def window_key(miner):
    """Id-keyed exact pattern content of a windowed miner."""
    return {
        (p.items, p.support, tuple(sorted(p.occurrences)))
        for p in miner.frequent()
    }


def scratch_key(seqs_by_id, min_support, min_length, max_length):
    """From-scratch prefixspan of the same corpus, remapped to ids."""
    ids = sorted(seqs_by_id)
    mined = prefixspan(
        [seqs_by_id[i] for i in ids],
        min_support,
        min_length=min_length,
        max_length=max_length,
    )
    return {
        (
            p.items,
            p.support,
            tuple(sorted((ids[k], pos) for k, pos in p.occurrences)),
        )
        for p in mined
    }


class TestWindowedPrefixSpan:
    def test_randomized_schedules_match_scratch(self):
        """The decrement-correctness oracle: random add/retire batches
        (wildcards included) must match a scratch mine at every step."""
        rng = random.Random(1234)
        alphabet = ["a", "b", "c", "d", None]
        for _trial in range(20):
            min_support = rng.randint(1, 4)
            miner = WindowedPrefixSpan(
                min_support,
                min_length=rng.randint(1, 2),
                max_length=rng.randint(2, 5),
            )
            live = {}
            next_id = 0
            for _step in range(10):
                if live and rng.random() < 0.4:
                    retire = rng.sample(
                        sorted(live), rng.randint(1, len(live))
                    )
                    miner.retire_many(retire)
                    for seq_id in retire:
                        del live[seq_id]
                batch = {}
                for _ in range(rng.randint(0, 6)):
                    seq = tuple(
                        rng.choice(alphabet)
                        for _ in range(rng.randint(0, 7))
                    )
                    batch[next_id] = seq
                    live[next_id] = seq
                    next_id += 1
                miner.add_many(batch)
                assert window_key(miner) == scratch_key(
                    live, min_support, miner.min_length, miner.max_length
                )

    def test_sub_threshold_supporters_survive_retirement(self):
        """A pattern that dips below min_support must keep its
        remaining supporters: later batches can lift it back."""
        miner = WindowedPrefixSpan(min_support=2, min_length=1)
        miner.add_many({0: ("a", "b"), 1: ("a", "c")})
        assert (("a",), 2) in {(p.items, p.support) for p in miner.frequent()}
        miner.retire_many([1])
        assert all(p.items != ("a",) for p in miner.frequent())
        miner.add_many({2: ("x", "a")})
        frequent = {(p.items, p.support) for p in miner.frequent()}
        assert (("a",), 2) in frequent

    def test_duplicate_id_rejected(self):
        miner = WindowedPrefixSpan(min_support=1)
        miner.add_many({7: ("a",)})
        with pytest.raises(ValueError, match="already live"):
            miner.add_many({7: ("b",)})

    def test_empty_batch_is_noop(self):
        miner = WindowedPrefixSpan(min_support=1)
        miner.add_many({0: ("a",)})
        before = window_key(miner)
        miner.add_many({})
        miner.retire_many([])
        assert window_key(miner) == before
        assert len(miner) == 1


@pytest.fixture(scope="module")
def stream_inputs(small_pois, small_trajectories, small_csd_config, small_city):
    """Base diagram from 90% of the POIs; the rest arrive online."""
    n_base = int(len(small_pois) * 0.9)
    stays = [sp for st in small_trajectories for sp in st.stay_points]
    base_csd = build_csd(
        small_pois[:n_base], stays, small_csd_config, small_city.projection
    )
    return base_csd, small_pois[n_base:]


def epoch_batches(items, n_epochs):
    per = max(1, len(items) // n_epochs)
    batches = [items[i * per : (i + 1) * per] for i in range(n_epochs - 1)]
    batches.append(items[(n_epochs - 1) * per :])
    return batches


class TestStreamEngine:
    @pytest.mark.parametrize("threshold", [math.nan, -0.01])
    def test_rejects_bad_staleness_threshold(self, stream_inputs, threshold):
        """With a NaN threshold ``staleness() > threshold`` is always
        false, so the engine would never repair."""
        base_csd, _ = stream_inputs
        with pytest.raises(ValueError, match="staleness_threshold"):
            StreamEngine(base_csd, staleness_threshold=threshold)

    def test_window_always_matches_scratch_mine(
        self, stream_inputs, small_taxi, small_csd_config
    ):
        """After every epoch, the engine's pattern set equals a
        from-scratch prefixspan of its own live window."""
        base_csd, new_pois = stream_inputs
        mining = MiningConfig(support=8, rho=0.001)
        engine = StreamEngine(
            base_csd,
            small_csd_config,
            mining,
            window_epochs=3,
            staleness_threshold=0.01,
        )
        trips = epoch_batches(small_taxi.trips, 6)
        pois = epoch_batches(new_pois, 6)
        repairs = 0
        retired_total = 0
        for trip_batch, poi_batch in zip(trips, pois):
            result = engine.process_epoch(trip_batch, poi_batch)
            repairs += result.repair is not None
            retired_total += len(result.retired_ids)
            live = {
                seq_id: tuple(
                    as_tag_sequence(engine.recognized_sequence(seq_id))
                )
                for ids in engine.window_epoch_ids().values()
                for seq_id in ids
            }
            assert window_key(engine.miner) == scratch_key(
                live, mining.support, mining.min_length, mining.max_length
            )
        # The schedule must actually exercise both maintenance paths.
        assert repairs >= 1
        assert retired_total > 0

    def test_fine_patterns_match_counterpart_cluster(
        self, stream_inputs, small_taxi, small_csd_config
    ):
        """After every epoch, Algorithm 4 over the windowed miner's
        coarse patterns equals a from-scratch ``counterpart_cluster`` of
        the live window in sequence-id order, member ids mapped back."""
        base_csd, new_pois = stream_inputs
        mining = MiningConfig(support=8, rho=0.001)
        engine = StreamEngine(
            base_csd,
            small_csd_config,
            mining,
            window_epochs=3,
            staleness_threshold=0.01,
        )
        emitted = 0
        for trip_batch, poi_batch in zip(
            epoch_batches(small_taxi.trips, 6), epoch_batches(new_pois, 6)
        ):
            engine.process_epoch(trip_batch, poi_batch)
            ids = sorted(
                seq_id
                for window_ids in engine.window_epoch_ids().values()
                for seq_id in window_ids
            )
            expected = counterpart_cluster(
                [engine.recognized_sequence(i) for i in ids],
                mining,
                engine.csd.projection,
            )
            for pattern in expected:
                pattern.member_ids = [ids[k] for k in pattern.member_ids]
            got = engine.fine_patterns()
            assert fine_key(got) == fine_key(expected)
            emitted += len(got)
        assert emitted > 0, "the schedule must emit fine-grained patterns"

    def test_diagram_changed_iff_pois_added_or_units_repaired(
        self, stream_inputs, small_taxi, small_csd_config
    ):
        base_csd, new_pois = stream_inputs
        engine = StreamEngine(
            base_csd, small_csd_config, window_epochs=2,
            staleness_threshold=1.0,
        )
        kinds = []
        for k, batch in enumerate(epoch_batches(small_taxi.trips[:800], 4)):
            if k == 2:
                # The dirty units of epoch 0 are repaired by an epoch
                # that adds no POIs.
                engine.staleness_threshold = 0.0
            before = engine.csd
            result = engine.process_epoch(batch, new_pois if k == 0 else ())
            assert result.diagram_changed == (
                result.n_new_pois > 0 or result.repair is not None
            )
            assert (engine.csd is not before) == result.diagram_changed
            kinds.append(
                "pois" if result.n_new_pois
                else "repair" if result.repair is not None
                else "unchanged"
            )
        assert kinds == ["pois", "unchanged", "repair", "unchanged"]

    def test_sequence_ids_are_stream_unique(self, stream_inputs, small_taxi):
        base_csd, _ = stream_inputs
        engine = StreamEngine(base_csd, window_epochs=2)
        seen = set()
        for batch in epoch_batches(small_taxi.trips[:400], 4):
            result = engine.process_epoch(batch)
            assert not seen.intersection(result.sequence_ids)
            seen.update(result.sequence_ids)

    def test_repair_oracle(self, stream_inputs, small_csd_config):
        """A partial repair must equal an offline ``purify`` +
        ``merge_units`` over exactly the captured dirty scope."""
        base_csd, new_pois = stream_inputs
        updater = IncrementalCSD(
            base_csd,
            merge_radius_m=small_csd_config.merge_radius_m,
            merge_cos=small_csd_config.merge_cos,
        )
        updater.add_pois(new_pois)
        scope = updater.dirty_units()
        assert scope, "workload must dirty some units"
        scope_members = [list(updater._members[u]) for u in scope]
        scope_pending = updater.pending_in_halo(scope)
        xy, popularity, _unit_of = updater.array_state()
        expected_pure = purify(
            [list(m) for m in scope_members],
            xy,
            updater._tags,
            small_csd_config.v_min_m2,
            small_csd_config.r3sigma_m,
        )
        expected_units = merge_units(
            expected_pure,
            list(scope_pending),
            xy,
            updater._tags,
            popularity,
            small_csd_config.merge_cos,
            small_csd_config.merge_radius_m,
        )
        report = updater.repair(
            small_csd_config.v_min_m2, small_csd_config.r3sigma_m
        )
        assert report.scope_units == tuple(scope)
        assert report.scope_members == tuple(tuple(m) for m in scope_members)
        assert report.scope_pending == tuple(scope_pending)
        assert report.new_units == tuple(tuple(m) for m in expected_units)
        # Post-conditions: scope cleared, absorbed pending removed, and
        # the materialised diagram is self-consistent.
        assert updater.dirty_units() == []
        assert not set(report.absorbed) & set(updater.pending_indices())
        diagram = updater.diagram()
        for unit in diagram.units:
            for poi_index in unit.poi_indices:
                assert int(diagram.unit_of[poi_index]) == unit.unit_id

    def test_restore_epoch_rejects_regression(self, stream_inputs):
        base_csd, _ = stream_inputs
        engine = StreamEngine(base_csd, window_epochs=2)
        engine.restore_epoch(0, [])
        with pytest.raises(ValueError, match="not after"):
            engine.restore_epoch(0, [])


#: Mid-stream crash sites, named for the moment of the third epoch
#: (index 2) they hit.  Manifest writes and alias publishes: #1 fresh,
#: then one per epoch.
STREAM_CRASH_SITES = {
    "before-epoch": ("replaced", LATEST_CSD_NAME, 3),
    "after-epoch-recognition": ("tmp-open", "epoch-000002.csv", 1),
    "after-epoch-artifacts": ("replaced", "csd-000003.json", 1),
    "after-epoch-commit": ("replaced", STREAM_MANIFEST_NAME, 4),
}


@pytest.fixture(scope="module")
def stream_run_files(tmp_path_factory, stream_inputs, small_taxi):
    root = tmp_path_factory.mktemp("stream-inputs")
    base_csd, new_pois = stream_inputs
    trips_path = root / "trips.csv"
    pois_path = root / "pois.csv"
    csd_path = root / "base_csd.json"
    write_trips(trips_path, small_taxi.trips)
    write_pois(pois_path, new_pois)
    save_csd(csd_path, base_csd)
    return trips_path, pois_path, csd_path


RUNNER_KW = dict(
    epoch_trips=500,
    poi_batch=100,
    window_epochs=3,
    staleness_threshold=0.01,
)


def make_runner(run_dir, files, resume=False, **overrides):
    trips_path, pois_path, csd_path = files
    kw = dict(RUNNER_KW)
    kw.update(overrides)
    return StreamRunner(
        run_dir,
        trips_path,
        base_csd_path=csd_path,
        pois_path=pois_path,
        csd_config=CSDConfig(alpha=0.7),
        mining_config=MiningConfig(support=8, rho=0.001),
        resume=resume,
        **kw,
    )


def final_state(run_dir, report):
    manifest = parse_stream_manifest(
        (run_dir / STREAM_MANIFEST_NAME).read_text()
    )
    patterns = [
        (p.items, p.support, tuple(sorted(p.occurrences)))
        for p in report.patterns
    ]
    return manifest, patterns


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory, stream_run_files):
    run_dir = tmp_path_factory.mktemp("stream-ref")
    report = make_runner(run_dir, stream_run_files).run()
    assert report.epochs_run > RUNNER_KW["window_epochs"] + 1
    return final_state(run_dir, report)


class TestStreamRunner:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.01])
    def test_rejects_bad_staleness_threshold(
        self, tmp_path, stream_run_files, threshold
    ):
        with pytest.raises(ValueError, match="staleness_threshold"):
            make_runner(
                tmp_path / "run", stream_run_files,
                staleness_threshold=threshold,
            )

    def test_fresh_run_commits_window_artifacts(
        self, tmp_path, stream_run_files, reference_run
    ):
        run_dir = tmp_path / "run"
        report = make_runner(run_dir, stream_run_files).run()
        manifest, patterns = final_state(run_dir, report)
        ref_manifest, ref_patterns = reference_run
        assert patterns == ref_patterns
        assert manifest.csd_sha256 == ref_manifest.csd_sha256
        assert (run_dir / LATEST_CSD_NAME).exists()
        # Only the live window's epoch artifacts remain on disk.
        live = {record.artifact for record in manifest.epochs}
        on_disk = {
            f"epochs/{p.name}" for p in (run_dir / "epochs").glob("*.csv")
        }
        assert on_disk == live
        assert len(manifest.epochs) == RUNNER_KW["window_epochs"]

    def test_resume_after_completion_is_noop(
        self, tmp_path, stream_run_files, reference_run
    ):
        run_dir = tmp_path / "run"
        make_runner(run_dir, stream_run_files).run()
        report = make_runner(run_dir, stream_run_files, resume=True).run()
        assert report.epochs_run == 0
        assert report.resumed
        _, patterns = final_state(run_dir, report)
        assert patterns == reference_run[1]

    @pytest.mark.parametrize("crash_point", list(STREAM_CRASH_SITES))
    def test_crash_resume_is_bit_identical(
        self, tmp_path, stream_run_files, reference_run, crash_point
    ):
        """Kill the run mid-stream at each crash site; the resumed run
        must land on the exact reference patterns and diagram."""
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            with ioutil.fault_hook(CrashAt(*STREAM_CRASH_SITES[crash_point])):
                make_runner(run_dir, stream_run_files).run()
        report = make_runner(run_dir, stream_run_files, resume=True).run()
        assert report.resumed
        manifest, patterns = final_state(run_dir, report)
        ref_manifest, ref_patterns = reference_run
        assert patterns == ref_patterns
        assert manifest.csd_sha256 == ref_manifest.csd_sha256
        assert manifest.trips_consumed == ref_manifest.trips_consumed
        assert manifest.pois_consumed == ref_manifest.pois_consumed
        assert manifest.pending == ref_manifest.pending
        assert [r.sha256 for r in manifest.epochs] == [
            r.sha256 for r in ref_manifest.epochs
        ]

    def test_fresh_start_publishes_alias(self, tmp_path, stream_run_files):
        """A daemon watching the alias has a diagram to load before the
        first epoch commits."""
        run_dir = tmp_path / "run"
        report = make_runner(run_dir, stream_run_files).run(max_epochs=0)
        manifest, _ = final_state(run_dir, report)
        assert manifest.epoch_index == 0
        assert (run_dir / LATEST_CSD_NAME).read_bytes() == (
            run_dir / manifest.csd_artifact
        ).read_bytes()

    def test_fresh_start_removes_previous_run_artifacts(
        self, tmp_path, stream_run_files
    ):
        """Starting over in a finished run's directory leaves only what
        the new manifest references: no older diagram documents, POI
        segments or epoch files."""
        run_dir = tmp_path / "run"
        make_runner(run_dir, stream_run_files).run()
        report = make_runner(run_dir, stream_run_files).run(max_epochs=0)
        manifest, _ = final_state(run_dir, report)
        _, segments = read_csd(run_dir / manifest.csd_artifact)
        expected = {
            STREAM_MANIFEST_NAME,
            LATEST_CSD_NAME,
            manifest.csd_artifact,
            *(segment.file for segment in segments),
        }
        assert {p.name for p in run_dir.glob("*.json")} == expected
        assert list((run_dir / "epochs").iterdir()) == []

    @pytest.mark.parametrize("nth", [1, 2])
    def test_resume_repairs_alias_after_crash_at_publish(
        self, tmp_path, stream_run_files, nth
    ):
        """A crash at an alias copy leaves the alias missing (the
        start-up publish, nth=1) or one epoch behind the commit (nth=2);
        the next start must republish it even when no epoch runs."""
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            with ioutil.fault_hook(CrashAt("tmp-open", LATEST_CSD_NAME, nth)):
                make_runner(run_dir, stream_run_files).run()
        report = make_runner(run_dir, stream_run_files, resume=True).run(
            max_epochs=0
        )
        assert report.epochs_run == 0
        manifest, _ = final_state(run_dir, report)
        alias = run_dir / LATEST_CSD_NAME
        assert ioutil.file_sha256(alias) == manifest.csd_sha256

    def test_resume_rejects_config_change(self, tmp_path, stream_run_files):
        run_dir = tmp_path / "run"
        make_runner(run_dir, stream_run_files).run(max_epochs=1)
        with pytest.raises(ValueError, match="config hash"):
            make_runner(
                run_dir, stream_run_files, resume=True, epoch_trips=123
            ).run()

    def test_resume_rejects_truncated_input(
        self, tmp_path, stream_run_files, small_taxi
    ):
        run_dir = tmp_path / "run"
        make_runner(run_dir, stream_run_files).run(max_epochs=2)
        truncated = tmp_path / "trips.csv"
        write_trips(truncated, small_taxi.trips[:100])
        _, pois_path, csd_path = stream_run_files
        with pytest.raises(ValueError, match="append-only"):
            StreamRunner(
                run_dir,
                truncated,
                base_csd_path=csd_path,
                pois_path=pois_path,
                csd_config=CSDConfig(alpha=0.7),
                mining_config=MiningConfig(support=8, rho=0.001),
                resume=True,
                **RUNNER_KW,
            ).run()

    def test_quarantine_rows_not_duplicated_on_resume(
        self, tmp_path, stream_inputs, small_taxi
    ):
        """Malformed rows already consumed by committed epochs must not
        be re-reported when the resume path skips past them."""
        base_csd, new_pois = stream_inputs
        trips_path = tmp_path / "trips.csv"
        write_trips(trips_path, small_taxi.trips[:1200])
        lines = trips_path.read_text().splitlines()
        # One bad row early (inside epoch 0), one late.
        lines.insert(5, "not,a,valid,trip,row")
        lines.insert(len(lines) - 3, "also,broken")
        trips_path.write_text("\n".join(lines) + "\n")
        csd_path = tmp_path / "base.json"
        save_csd(csd_path, base_csd)

        seen = []
        kw = dict(RUNNER_KW, epoch_trips=400)
        StreamRunner(
            tmp_path / "run",
            trips_path,
            base_csd_path=csd_path,
            mining_config=MiningConfig(support=8, rho=0.001),
            on_bad_row=seen.append,
            **kw,
        ).run(max_epochs=1)
        assert len(seen) == 1  # only the early row was reached
        StreamRunner(
            tmp_path / "run",
            trips_path,
            base_csd_path=csd_path,
            mining_config=MiningConfig(support=8, rho=0.001),
            resume=True,
            on_bad_row=seen.append,
            **kw,
        ).run()
        assert len(seen) == 2  # early row NOT re-reported, late row once

    def test_resume_counts_only_rows_it_reports(
        self, tmp_path, stream_inputs, small_taxi
    ):
        """``ingest.quarantined`` of a resumed leg counts the rows that
        leg quarantines, not the committed prefix's rows it skips."""
        base_csd, _ = stream_inputs
        trips_path = tmp_path / "trips.csv"
        write_trips(trips_path, small_taxi.trips[:1200])
        lines = trips_path.read_text().splitlines()
        lines.insert(5, "not,a,valid,trip,row")  # epoch 0 (committed)
        lines.insert(len(lines) - 3, "also,broken")  # read on resume
        trips_path.write_text("\n".join(lines) + "\n")
        csd_path = tmp_path / "base.json"
        save_csd(csd_path, base_csd)
        quarantine_csv = tmp_path / "run" / "quarantine.csv"

        def leg(resume, max_epochs=None):
            reg = MetricsRegistry(enabled=True)
            old = obs.set_registry(reg)
            try:
                with Quarantine(quarantine_csv) as quarantine:
                    StreamRunner(
                        tmp_path / "run",
                        trips_path,
                        base_csd_path=csd_path,
                        mining_config=MiningConfig(support=8, rho=0.001),
                        resume=resume,
                        on_bad_row=quarantine.sink("trips"),
                        **dict(RUNNER_KW, epoch_trips=400),
                    ).run(max_epochs=max_epochs)
            finally:
                obs.set_registry(old)
            return reg.snapshot()["counters"]["ingest.quarantined"]

        def quarantined_rows():
            return quarantine_csv.read_text().count("\n") - 1  # header

        assert leg(resume=False, max_epochs=1) == quarantined_rows() == 1
        assert leg(resume=True) == quarantined_rows() - 1 == 1

    def test_crash_resume_quarantines_each_row_once(
        self, tmp_path, stream_inputs, small_taxi
    ):
        """A bad row read by an epoch that crashed before committing is
        read again on resume; the quarantine file must still hold it
        once, byte-identical to an uninterrupted run's."""
        base_csd, _ = stream_inputs
        trips_path = tmp_path / "trips.csv"
        write_trips(trips_path, small_taxi.trips[:1200])
        lines = trips_path.read_text().splitlines()
        lines.insert(5, "not,a,valid,trip,row")  # epoch 0 (committed)
        lines.insert(450, "broken,in,epoch,one")  # epoch 1 (replayed)
        lines.append("also,broken")  # after the last valid row
        trips_path.write_text("\n".join(lines) + "\n")
        csd_path = tmp_path / "base.json"
        save_csd(csd_path, base_csd)

        def run(run_dir, resume=False):
            with Quarantine(run_dir / "quarantine.csv") as quarantine:
                StreamRunner(
                    run_dir,
                    trips_path,
                    base_csd_path=csd_path,
                    mining_config=MiningConfig(support=8, rho=0.001),
                    resume=resume,
                    on_bad_row=quarantine.sink("trips"),
                    **dict(RUNNER_KW, epoch_trips=400),
                ).run()
            return (run_dir / "quarantine.csv").read_bytes()

        reference = run(tmp_path / "reference")
        assert reference.count(b"\n") == 4  # header + three rows
        crashed = tmp_path / "crashed"
        with pytest.raises(SimulatedCrash):
            with ioutil.fault_hook(CrashAt("tmp-open", "epoch-000001.csv")):
                run(crashed)
        assert run(crashed, resume=True) == reference

    def test_transient_publish_failure_is_retried(
        self, tmp_path, stream_run_files, reference_run
    ):
        """The csd-latest.json alias goes through the retrying
        checkpoint write: one transient failure there must neither
        abort the run nor skip the epoch's notify callback."""
        notified = []
        reg = MetricsRegistry(enabled=True)
        old = obs.set_registry(reg)
        try:
            flaky = CrashAt("tmp-open", LATEST_CSD_NAME, error=OSError)
            with ioutil.fault_hook(flaky):
                report = make_runner(
                    tmp_path / "run", stream_run_files, on_epoch=notified.append
                ).run()
        finally:
            obs.set_registry(old)
        # One publish at start-up, one per epoch that changed the
        # diagram, plus the retried one.
        changed = sum(result.diagram_changed for result in notified)
        assert 0 < changed < report.epochs_run
        assert flaky.hits == changed + 2
        assert len(notified) == report.epochs_run
        counters = reg.snapshot()["counters"]
        assert counters["pipeline.runner.checkpoint.retries"] == 1
        assert final_state(tmp_path / "run", report)[1] == reference_run[1]


    def test_unchanged_epoch_writes_no_diagram(
        self, tmp_path, stream_run_files
    ):
        """An epoch that left the diagram alone writes no diagram
        document, POI segment or alias, and keeps the committed
        diagram; a changed one writes one segment holding only its
        appended POIs (none when it only repaired)."""
        run_dir = tmp_path / "run"
        written = []
        epochs = []

        def on_epoch(result):
            manifest = parse_stream_manifest(
                (run_dir / STREAM_MANIFEST_NAME).read_text()
            )
            segments = read_csd(run_dir / manifest.csd_artifact)[1]
            epochs.append((result, list(written), manifest, segments))
            written.clear()

        def record(point, target):
            if point == "replaced":
                written.append(target.name)

        with ioutil.fault_hook(record):
            make_runner(run_dir, stream_run_files, on_epoch=on_epoch).run()
        diagram_file = re.compile(r"(csd-.*|pois-.*)\.json")
        unchanged = 0
        for (result, names, manifest, segments), (_, _, before, _) in zip(
            epochs[1:], epochs
        ):
            diagram_writes = [n for n in names if diagram_file.fullmatch(n)]
            if not result.diagram_changed:
                unchanged += 1
                assert diagram_writes == []
                assert manifest.csd_artifact == before.csd_artifact
                assert manifest.csd_sha256 == before.csd_sha256
                continue
            new_segments = [n for n in names if n.startswith("pois-")]
            if result.n_new_pois:
                assert new_segments == [segments[-1].file]
                assert segments[-1].count == result.n_new_pois
            else:
                assert new_segments == []
            assert manifest.csd_artifact in names
            assert LATEST_CSD_NAME in names
        assert unchanged > 0
        # Every segment on disk is referenced by the committed diagram.
        assert {p.name for p in run_dir.glob("pois-*.json")} == {
            segment.file for segment in epochs[-1][3]
        }


class TestServeConditionalReload:
    def test_if_changed_skips_unchanged_artifact(
        self, tmp_path, stream_inputs
    ):
        base_csd, _ = stream_inputs
        path = tmp_path / "csd.json"
        save_csd(path, base_csd)
        with RecognitionService(csd_path=path) as service:
            assert service.reload(if_changed=True)["reloaded"] is False
            assert service.reloads == 0
            assert service.reload()["reloaded"] is True
            assert service.reloads == 1

    def test_if_changed_reloads_on_new_bytes(
        self, tmp_path, stream_inputs, small_csd_config
    ):
        base_csd, new_pois = stream_inputs
        path = tmp_path / "csd.json"
        save_csd(path, base_csd)
        with RecognitionService(csd_path=path) as service:
            updater = IncrementalCSD(base_csd)
            updater.add_pois(new_pois[:50])
            save_csd(path, updater.diagram())
            result = service.reload(if_changed=True)
            assert result["reloaded"] is True
            assert service.csd.n_pois == base_csd.n_pois + 50


    def test_daemon_on_alias_follows_stream(
        self, tmp_path, stream_run_files
    ):
        """A daemon serving ``csd-latest.json`` and told to reload after
        every epoch picks up each changed diagram and skips the rest."""
        run_dir = tmp_path / "run"
        make_runner(run_dir, stream_run_files).run(max_epochs=0)
        outcomes = []

        def on_epoch(result):
            reloaded = service.reload(if_changed=True)["reloaded"]
            outcomes.append((result.diagram_changed, reloaded))
            if reloaded:
                manifest = parse_stream_manifest(
                    (run_dir / STREAM_MANIFEST_NAME).read_text()
                )
                committed = load_csd(run_dir / manifest.csd_artifact)
                assert diagram_key(service.csd) == diagram_key(committed)

        with RecognitionService(csd_path=run_dir / LATEST_CSD_NAME) as service:
            make_runner(
                run_dir, stream_run_files, resume=True, on_epoch=on_epoch
            ).run()
        assert all(changed == reloaded for changed, reloaded in outcomes)
        assert {changed for changed, _ in outcomes} == {True, False}
        assert service.reloads == sum(changed for changed, _ in outcomes)


class TestStreamCLI:
    def test_stream_subcommand_end_to_end(
        self, tmp_path, stream_run_files, capsys
    ):
        from repro.cli import main

        trips_path, pois_path, csd_path = stream_run_files

        def argv(run_dir):
            return [
                "stream",
                "--trips", str(trips_path),
                "--csd", str(csd_path),
                "--pois", str(pois_path),
                "--run-dir", str(run_dir),
                "--epoch-trips", "500",
                "--poi-batch", "100",
                "--window-epochs", "3",
                "--staleness-threshold", "0.01",
                "--support", "8",
            ]

        run_dir = tmp_path / "run"
        assert main(argv(run_dir) + ["--max-epochs", "2"]) == 0
        assert (run_dir / STREAM_MANIFEST_NAME).exists()
        out = capsys.readouterr().out
        assert "epoch 0:" in out
        # And the resume leg picks up where the first invocation ended.
        assert main(argv(run_dir) + ["--resume"]) == 0
        assert "stream [resumed]:" in capsys.readouterr().out
        # The two legs commit the manifest one uninterrupted invocation
        # commits: same diagram, cursors and live-window epoch digests.
        reference = tmp_path / "reference"
        assert main(argv(reference)) == 0
        assert (run_dir / STREAM_MANIFEST_NAME).read_bytes() == (
            reference / STREAM_MANIFEST_NAME
        ).read_bytes()
