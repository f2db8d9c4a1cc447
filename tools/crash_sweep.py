"""Crash-sweep sanitizer: kill the pipeline at *every* write boundary.

``repro.ioutil.atomic_write`` announces three fault points per artifact
write (``tmp-open``, ``tmp-written``, ``replaced`` — see
:data:`repro.ioutil.IO_FAULT_POINTS`).  This harness enumerates every
announcement a deterministic reference run makes — the run's **write
ordinals** — then, for each ordinal, repeats the run in a fresh
directory with a hook that raises
:class:`~repro.ioutil.SimulatedCrash` at exactly that announcement,
and asserts the durability contract (``docs/DATA_FORMATS.md``):

(a) **no debris** — no ``*.tmp`` file anywhere under the run directory;
(b) **every surviving artifact is intact** — each ``*.json`` present on
    disk parses under :func:`repro.ioutil.strict_json_load`, each
    ``*.csv`` decodes as UTF-8;
(c) **resume is bit-identical** — a plain ``resume=True`` run lands on
    the reference patterns and the reference artifact bytes
    (SHA-256-compared).  A resumed stream must also leave its
    ``csd-latest.json`` alias equal to the committed diagram, every POI
    segment that diagram references intact, and no other
    ``pois-*.json`` segment in the run directory.

Each reference run must also write every artifact exactly once: no
announced write target may be a ``*.tmp`` sibling (an atomic write
nested inside another).

Both checkpointed drivers are swept: the batch
:class:`~repro.runner.PipelineRunner` and the epoch-at-a-time
:class:`~repro.runner.StreamRunner`.  The stream input carries
malformed trip rows into a :class:`~repro.runner.Quarantine` in the
run directory, and (c) also requires its ``quarantine.csv`` to equal
the reference run's byte for byte: every bad row recorded exactly once
however the run was killed.  The quarantine appends outside
:mod:`repro.ioutil`, so it adds no write ordinals.

Exit code 0 means every swept ordinal upheld all three invariants.
``--report`` writes a strict-JSON sweep report (CI runs the exhaustive
sweep and uploads it as the ``crash-sweep`` job's artifact); ``--fast``
subsamples the ordinals (always keeping the first and last) for a
quick local smoke.

Usage::

    PYTHONPATH=src python tools/crash_sweep.py --out /tmp/sweep
    PYTHONPATH=src python tools/crash_sweep.py --out /tmp/sweep \
        --fast --report /tmp/sweep/report.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import ioutil
from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import build_csd
from repro.data.city import CityModel
from repro.data.io import write_pois, write_trips
from repro.data.persistence import read_csd, save_csd
from repro.data.poi import POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator
from repro.runner import PipelineRunner, Quarantine, StreamRunner
from repro.ioutil import SimulatedCrash
from repro.runner.stream import (
    LATEST_CSD_NAME,
    STREAM_MANIFEST_NAME,
    parse_stream_manifest,
)

CSD_CFG = CSDConfig(alpha=0.7)
MINING_CFG = MiningConfig(support=6, rho=0.001)

STREAM_KW = dict(
    epoch_trips=120,
    poi_batch=80,
    window_epochs=2,
    staleness_threshold=0.01,
)

QUARANTINE_NAME = "quarantine.csv"

#: Malformed trip rows spliced into the stream input, each with the
#: line index it is inserted at (0 is the header; None appends): one
#: inside each of the first four epochs, one after the last valid row.
BAD_TRIP_ROWS = (
    (5, "90001,,bogus,31.0,10.0,121.0,31.0,20.0,Residence,Residence"),
    (141, "90002,,121.0,31.0,500.0,121.0,31.0,100.0,Residence,Residence"),
    (262, "90003,,121.0,31.0,10.0,121.0,31.0,20.0,Residence"),
    (383, "90004,,121.0,nan,10.0,121.0,31.0,20.0,Residence,Residence"),
    (None, "90005,,121.0,31.0,10.0,121.0"),
)


class SweepFailure(AssertionError):
    """A durability invariant did not hold at a swept write ordinal."""


@dataclass
class SweepResult:
    """Outcome of sweeping one pipeline path."""

    path: str
    ordinals: int
    swept: List[int] = field(default_factory=list)
    checks: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "write_ordinals": self.ordinals,
            "ordinals_swept": self.swept,
            "checks": self.checks,
        }


# -- fault hooks --------------------------------------------------------


class RecordingHook:
    """Record every atomic-write announcement of a reference run."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, str]] = []

    def __call__(self, point: str, target: Path) -> None:
        self.events.append((point, target.name))

    def check_single_writes(self) -> None:
        """Every artifact is written once: no announced target is the
        tmp sibling of another atomic write."""
        nested = sorted(
            {name for _, name in self.events
             if name.endswith(ioutil.TMP_SUFFIX)}
        )
        if nested:
            raise SweepFailure(
                f"reference run nests atomic writes (tmp targets: {nested})"
            )


class CrashAtOrdinal:
    """Raise :class:`SimulatedCrash` at the k-th announcement."""

    def __init__(self, ordinal: int) -> None:
        self.ordinal = ordinal
        self.count = 0

    def __call__(self, point: str, target: Path) -> None:
        k = self.count
        self.count += 1
        if k == self.ordinal:
            raise SimulatedCrash(
                f"injected crash at write ordinal {k} "
                f"({point} of {target.name})"
            )


# -- durability checks --------------------------------------------------


def check_crash_site(run_dir: Path) -> int:
    """Invariants (a) and (b) over a freshly crashed run directory;
    returns the number of artifacts checked."""
    if not run_dir.exists():
        # Crashed before the run directory was created — trivially
        # debris-free.
        return 0
    debris = sorted(
        str(p.relative_to(run_dir))
        for p in run_dir.rglob(f"*{ioutil.TMP_SUFFIX}")
    )
    if debris:
        raise SweepFailure(f"tmp debris survived the crash: {debris}")
    checks = 0
    for p in sorted(run_dir.rglob("*.json")):
        ioutil.strict_json_load(p)
        checks += 1
    for p in sorted(run_dir.rglob("*.csv")):
        p.read_text(encoding="utf-8")
        checks += 1
    return checks


def artifact_shas(run_dir: Path) -> Dict[str, str]:
    """SHA-256 of every committed artifact under ``run_dir`` (tmp-free
    by invariant (a); ``csd-latest.json`` included — it must track)."""
    return {
        str(p.relative_to(run_dir)): ioutil.file_sha256(p)
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def _subsample(n: int, fast: bool) -> List[int]:
    """Ordinals to sweep: all of them, or a fast subsample that always
    keeps the first and last write."""
    if not fast or n <= 8:
        return list(range(n))
    stride = max(1, n // 6)
    picked = sorted(set(range(0, n, stride)) | {0, n - 1})
    return picked


# -- workload -----------------------------------------------------------


@dataclass
class Workload:
    """One deterministic corpus shared by both pipeline paths."""

    pois: list
    trajectories: list
    trips_path: Path
    pois_path: Path
    base_csd_path: Path


def build_workload(root: Path) -> Workload:
    """Small deterministic city/taxi corpus (same generators and seeds
    as the test fixtures, scaled down for per-ordinal repetition)."""
    city = CityModel.generate(extent_m=3_000.0, block_size_m=400.0, seed=3)
    pois = POIGenerator(city, seed=5).generate(1_500)
    corpus = ShanghaiTaxiSimulator(city, seed=9).simulate(
        n_passengers=25, days=2
    )
    trajectories = corpus.mining_trajectories()

    # Stream inputs: base diagram from 90% of the POIs, the rest arrive
    # online; the trips file is the append-only stream.
    n_base = int(len(pois) * 0.9)
    stays = [sp for st in trajectories for sp in st.stay_points]
    base_csd = build_csd(pois[:n_base], stays, CSD_CFG, city.projection)
    root.mkdir(parents=True, exist_ok=True)
    trips_path = root / "trips.csv"
    pois_path = root / "pois.csv"
    base_csd_path = root / "base_csd.json"
    write_trips(trips_path, corpus.trips)
    lines = trips_path.read_text(encoding="utf-8").splitlines()
    for index, row in BAD_TRIP_ROWS:
        lines.insert(len(lines) if index is None else index, row)
    trips_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_pois(pois_path, pois[n_base:])
    save_csd(base_csd_path, base_csd)
    return Workload(pois, trajectories, trips_path, pois_path, base_csd_path)


# -- batch path ---------------------------------------------------------


def _batch_run(work: Workload, run_dir: Path, resume: bool = False):
    return PipelineRunner(run_dir, CSD_CFG, MINING_CFG, resume=resume).run(
        work.pois, work.trajectories
    )


def batch_pattern_key(result) -> List[Tuple[object, ...]]:
    return [
        (
            p.items,
            p.support,
            tuple(p.member_ids),
            tuple((r.lon, r.lat) for r in p.representatives),
        )
        for p in result.patterns
    ]


def sweep_batch(
    work: Workload,
    root: Path,
    *,
    fast: bool = False,
    log: Callable[[str], None] = lambda line: None,
) -> SweepResult:
    recorder = RecordingHook()
    ref_dir = root / "batch-reference"
    with ioutil.fault_hook(recorder):
        reference = _batch_run(work, ref_dir)
    if not reference.patterns:
        raise SweepFailure("workload mined no patterns; sweep is vacuous")
    recorder.check_single_writes()
    ref_key = batch_pattern_key(reference)
    ref_shas = artifact_shas(ref_dir)
    result = SweepResult("batch", ordinals=len(recorder.events))
    for k in _subsample(len(recorder.events), fast):
        run_dir = root / f"batch-crash-{k:04d}"
        try:
            with ioutil.fault_hook(CrashAtOrdinal(k)):
                _batch_run(work, run_dir)
            raise SweepFailure(f"crash at write ordinal {k} did not fire")
        except SimulatedCrash:
            pass
        result.checks += check_crash_site(run_dir)
        resumed = _batch_run(work, run_dir, resume=True)
        if batch_pattern_key(resumed) != ref_key:
            raise SweepFailure(
                f"ordinal {k}: resumed patterns differ from reference"
            )
        if artifact_shas(run_dir) != ref_shas:
            raise SweepFailure(
                f"ordinal {k}: resumed artifacts are not bit-identical "
                "to the reference run"
            )
        result.checks += 2
        result.swept.append(k)
        log(
            f"batch ordinal {k}/{result.ordinals - 1}: "
            f"{recorder.events[k][0]} of {recorder.events[k][1]} ok"
        )
    return result


# -- stream path --------------------------------------------------------


def _stream_run(work: Workload, run_dir: Path, resume: bool = False):
    with Quarantine(run_dir / QUARANTINE_NAME) as quarantine:
        return StreamRunner(
            run_dir,
            work.trips_path,
            base_csd_path=work.base_csd_path,
            pois_path=work.pois_path,
            csd_config=CSD_CFG,
            mining_config=MINING_CFG,
            resume=resume,
            on_bad_row=quarantine.sink("trips"),
            **STREAM_KW,
        ).run()


def stream_state(run_dir: Path, report):
    """Comparable committed state: parsed manifest fields plus the
    bytes (SHA-256) of every manifest-referenced artifact and of every
    POI segment the committed diagram references.  Raises
    :class:`SweepFailure` when the ``csd-latest.json`` alias does not
    hold the committed diagram or a segment is orphaned."""
    manifest = parse_stream_manifest(
        (run_dir / STREAM_MANIFEST_NAME).read_text(encoding="utf-8"),
        source=str(run_dir / STREAM_MANIFEST_NAME),
    )
    alias = run_dir / LATEST_CSD_NAME
    if not alias.exists() or ioutil.file_sha256(alias) != manifest.csd_sha256:
        raise SweepFailure(
            f"{LATEST_CSD_NAME} in {run_dir} is missing or does not hold "
            f"the committed diagram {manifest.csd_artifact}"
        )
    csd_path = run_dir / manifest.csd_artifact
    # read_csd verifies each segment against the SHA-256 it is listed with.
    _, segments = read_csd(csd_path)
    orphans = sorted(
        {p.name for p in run_dir.glob("pois-*.json")}
        - {segment.file for segment in segments}
    )
    if orphans:
        raise SweepFailure(
            f"{run_dir} holds POI segments the committed diagram does "
            f"not reference: {orphans}"
        )
    shas = {manifest.csd_artifact: ioutil.file_sha256(csd_path)}
    for segment in segments:
        shas[segment.file] = segment.sha256
    for record in manifest.epochs:
        shas[record.artifact] = ioutil.file_sha256(run_dir / record.artifact)
    patterns = sorted(
        (p.items, p.support, tuple(sorted(p.occurrences)))
        for p in report.patterns
    )
    fields = (
        manifest.csd_sha256,
        manifest.trips_consumed,
        manifest.pois_consumed,
        manifest.next_seq_id,
        manifest.epoch_index,
        tuple(manifest.pending),
        tuple((r.index, r.sha256) for r in manifest.epochs),
    )
    return fields, shas, patterns


def sweep_stream(
    work: Workload,
    root: Path,
    *,
    fast: bool = False,
    log: Callable[[str], None] = lambda line: None,
) -> SweepResult:
    recorder = RecordingHook()
    ref_dir = root / "stream-reference"
    with ioutil.fault_hook(recorder):
        reference = _stream_run(work, ref_dir)
    if reference.epochs_run < 2:
        raise SweepFailure(
            f"stream workload committed only {reference.epochs_run} "
            "epoch(s); sweep needs a multi-epoch run"
        )
    recorder.check_single_writes()
    ref_state = stream_state(ref_dir, reference)
    ref_quarantine = (ref_dir / QUARANTINE_NAME).read_bytes()
    if ref_quarantine.count(b"\n") != 1 + len(BAD_TRIP_ROWS):
        raise SweepFailure(
            f"reference run did not quarantine the {len(BAD_TRIP_ROWS)} "
            "malformed trip rows exactly once"
        )
    result = SweepResult("stream", ordinals=len(recorder.events))
    for k in _subsample(len(recorder.events), fast):
        run_dir = root / f"stream-crash-{k:04d}"
        try:
            with ioutil.fault_hook(CrashAtOrdinal(k)):
                _stream_run(work, run_dir)
            raise SweepFailure(f"crash at write ordinal {k} did not fire")
        except SimulatedCrash:
            pass
        result.checks += check_crash_site(run_dir)
        resumed_report = _stream_run(work, run_dir, resume=True)
        if stream_state(run_dir, resumed_report) != ref_state:
            raise SweepFailure(
                f"ordinal {k}: resumed stream state differs from the "
                "reference run"
            )
        if (run_dir / QUARANTINE_NAME).read_bytes() != ref_quarantine:
            raise SweepFailure(
                f"ordinal {k}: {QUARANTINE_NAME} differs from the "
                "reference run's (a bad row was lost or recorded twice)"
            )
        result.checks += 2
        result.swept.append(k)
        log(
            f"stream ordinal {k}/{result.ordinals - 1}: "
            f"{recorder.events[k][0]} of {recorder.events[k][1]} ok"
        )
    return result


# -- entry point --------------------------------------------------------


def run_sweep(
    root: Path,
    *,
    fast: bool = False,
    paths: Sequence[str] = ("batch", "stream"),
    log: Callable[[str], None] = lambda line: None,
) -> List[SweepResult]:
    work = build_workload(root / "inputs")
    results = []
    if "batch" in paths:
        results.append(sweep_batch(work, root, fast=fast, log=log))
    if "stream" in paths:
        results.append(sweep_stream(work, root, fast=fast, log=log))
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="scratch directory")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="subsample write ordinals (quick smoke; first and last "
        "always swept)",
    )
    parser.add_argument(
        "--path",
        choices=("batch", "stream"),
        action="append",
        dest="paths",
        help="sweep only this pipeline path (repeatable; default: both)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a strict-JSON sweep report here",
    )
    args = parser.parse_args(argv)
    root = Path(args.out)
    try:
        results = run_sweep(
            root,
            fast=args.fast,
            paths=tuple(args.paths) if args.paths else ("batch", "stream"),
            log=print,
        )
    except SweepFailure as exc:
        print(f"FAIL: {exc}")
        return 1
    document = {
        "schema": 1,
        "fast": bool(args.fast),
        "ok": True,
        "sweeps": [r.to_dict() for r in results],
    }
    if args.report:
        ioutil.strict_json_dump(
            args.report, document, indent=2, trailing_newline=True
        )
    for r in results:
        print(
            f"OK: {r.path} path — {len(r.swept)}/{r.ordinals} write "
            f"ordinals swept, {r.checks} artifact checks"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
