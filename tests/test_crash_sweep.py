"""The crash-sweep sanitizer (tools/crash_sweep.py).

The harness itself is exercised end-to-end in fast mode (subsampled
write ordinals, both pipeline paths), plus a per-fault-point
parametrization that kills the batch runner at the first announcement
of each :data:`repro.ioutil.IO_FAULT_POINTS` kind and re-checks the
durability invariants directly — so a regression names the exact
write boundary that broke.

The exhaustive sweep (every ordinal, ~90 crash/resume cycles) runs in
CI via ``python tools/crash_sweep.py``; these tests keep the suite
fast while pinning the harness's own behaviour.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro import ioutil  # noqa: E402
from repro.ioutil import IO_FAULT_POINTS, SimulatedCrash  # noqa: E402

from tools.crash_sweep import (  # noqa: E402
    CrashAtOrdinal,
    RecordingHook,
    SweepFailure,
    _batch_run,
    batch_pattern_key,
    build_workload,
    check_crash_site,
    main as crash_sweep_main,
    sweep_batch,
    sweep_stream,
)


@pytest.fixture(scope="module")
def sweep_workload(tmp_path_factory):
    return build_workload(tmp_path_factory.mktemp("sweep-inputs"))


@pytest.fixture(scope="module")
def batch_reference(sweep_workload, tmp_path_factory):
    """Uninterrupted batch run with its write-ordinal trace."""
    recorder = RecordingHook()
    ref_dir = tmp_path_factory.mktemp("sweep-ref") / "run"
    with ioutil.fault_hook(recorder):
        result = _batch_run(sweep_workload, ref_dir)
    assert result.patterns, "workload must mine patterns"
    return recorder.events, batch_pattern_key(result)


class TestHarnessPieces:
    def test_recording_hook_sees_all_three_points(self, batch_reference):
        events, _ = batch_reference
        assert {point for point, _ in events} == set(IO_FAULT_POINTS)
        # Announcements come in whole tmp-open/tmp-written/replaced
        # triples, one per artifact: writes never nest.
        assert [point for point, _ in events] == list(IO_FAULT_POINTS) * (
            len(events) // len(IO_FAULT_POINTS)
        )
        assert not any(
            name.endswith(ioutil.TMP_SUFFIX) for _, name in events
        )

    def test_crash_at_ordinal_fires_exactly_once(self, tmp_path):
        hook = CrashAtOrdinal(1)
        hook("tmp-open", tmp_path / "a")
        with pytest.raises(SimulatedCrash, match="ordinal 1"):
            hook("tmp-written", tmp_path / "a")
        # Later announcements pass through (the crash is one-shot).
        hook("replaced", tmp_path / "a")

    def test_check_crash_site_flags_tmp_debris(self, tmp_path):
        (tmp_path / "artifact.json.tmp").write_text("{", encoding="utf-8")
        with pytest.raises(SweepFailure, match="tmp debris"):
            check_crash_site(tmp_path)

    def test_check_crash_site_flags_torn_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"a": ', encoding="utf-8")
        with pytest.raises(ioutil.TornArtifactError, match="manifest.json"):
            check_crash_site(tmp_path)

    def test_check_crash_site_counts_clean_artifacts(self, tmp_path):
        ioutil.strict_json_dump(tmp_path / "a.json", {"k": 1})
        ioutil.atomic_write_text(tmp_path / "b.csv", "x,y\r\n")
        assert check_crash_site(tmp_path) == 2

    def test_missing_run_dir_is_trivially_clean(self, tmp_path):
        assert check_crash_site(tmp_path / "never-created") == 0


@pytest.mark.parametrize("point", IO_FAULT_POINTS)
class TestBatchCrashAtEachFaultPoint:
    """Kill the batch runner at the first announcement of each fault
    point kind; every invariant must hold at that exact boundary."""

    def test_invariants_hold(
        self, sweep_workload, batch_reference, tmp_path, point
    ):
        events, ref_key = batch_reference
        ordinal = next(
            i for i, (kind, _) in enumerate(events) if kind == point
        )
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            with ioutil.fault_hook(CrashAtOrdinal(ordinal)):
                _batch_run(sweep_workload, run_dir)
        check_crash_site(run_dir)
        resumed = _batch_run(sweep_workload, run_dir, resume=True)
        assert batch_pattern_key(resumed) == ref_key


class TestFastSweeps:
    """The harness end-to-end in fast mode (CI runs it exhaustively)."""

    def test_batch_fast_sweep(self, sweep_workload, tmp_path):
        result = sweep_batch(sweep_workload, tmp_path, fast=True)
        assert result.path == "batch"
        assert result.ordinals > 0
        assert 0 in result.swept
        assert result.ordinals - 1 in result.swept
        assert result.checks > 0

    def test_stream_fast_sweep(self, sweep_workload, tmp_path):
        result = sweep_stream(sweep_workload, tmp_path, fast=True)
        assert result.path == "stream"
        assert result.ordinals > len(IO_FAULT_POINTS)
        assert 0 in result.swept
        assert result.ordinals - 1 in result.swept

    def test_cli_writes_strict_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = crash_sweep_main(
            [
                "--out", str(tmp_path / "work"),
                "--fast",
                "--path", "batch",
                "--report", str(report),
            ]
        )
        assert rc == 0
        document = ioutil.strict_json_load(report)
        assert document["ok"] is True
        assert document["fast"] is True
        (sweep,) = document["sweeps"]
        assert sweep["path"] == "batch"
        assert sweep["ordinals_swept"]
        assert "OK: batch path" in capsys.readouterr().out
