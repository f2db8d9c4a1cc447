"""Command-line interface for the Pervasive Miner reproduction.

Subcommands cover the release workflow end to end:

- ``repro simulate``  — generate a synthetic city, POIs and taxi corpus
  to CSV files;
- ``repro build-csd`` — construct the City Semantic Diagram from those
  files and export it as GeoJSON;
- ``repro mine``      — run one of the six approaches and export the
  fine-grained patterns (GeoJSON + summary CSV);
- ``repro run``       — the fault-tolerant pipeline: quarantined
  ingestion, stage checkpoints in a run directory, crash/resume
  (``docs/RUNNER.md``);
- ``repro evaluate``  — run all six approaches and print the Section 5
  metric table;
- ``repro checkins``  — regenerate the Table 1 semantic-bias study;
- ``repro serve``     — long-running HTTP daemon answering recognition
  and CSD queries from a persisted diagram (``docs/SERVING.md``);
- ``repro stream``    — the online pipeline: epoch-at-a-time ingest,
  incremental recognition, windowed pattern maintenance with durable
  per-epoch commits and crash/resume (``docs/STREAMING.md``).

All state flows through files, so each step is resumable and the
pipeline works on real data dropped into the same CSV formats.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import urllib.request
from pathlib import Path
from typing import List, Optional, Sequence

from repro import ioutil, obs
from repro.baselines.registry import APPROACHES, approach_by_name, run_approach
from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import build_csd
from repro.core.patterns import summarize
from repro.data.checkins import PROFILES, CheckinSimulator
from repro.data.city import CityModel
from repro.data.geojson import (
    csd_to_geojson,
    patterns_to_geojson,
    write_geojson,
)
from repro.data.io import (
    iter_trips,
    read_pois,
    read_trips,
    write_pois,
    write_trips,
)
from repro.data.persistence import load_csd, save_csd
from repro.runner import PipelineRunner, Quarantine, StreamRunner
from repro.serve import RecognitionService, ServeConfig, make_server
from repro.stream import EpochResult
from repro.viz.svg import render_csd_svg, render_patterns_svg, save_svg
from repro.data.poi import POIGenerator
from repro.data.taxi import (
    ShanghaiTaxiSimulator,
    TaxiTrip,
    trips_to_mining_trajectories,
)
from repro.data.trajectory import SemanticTrajectory
from repro.eval.metrics import summarize_patterns
from repro.eval.reporting import format_table
from repro.geo.projection import LocalProjection


def _add_mining_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--support", type=int, default=20,
                        help="sigma, minimum supporting trajectories")
    parser.add_argument("--delta-t-min", type=float, default=60.0,
                        help="temporal constraint in minutes")
    parser.add_argument("--rho", type=float, default=0.001,
                        help="density threshold, points per m^2")
    parser.add_argument("--alpha", type=float, default=0.7,
                        help="Algorithm 1 popularity-ratio threshold")


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    return MiningConfig(
        support=args.support,
        delta_t_s=args.delta_t_min * 60.0,
        rho=args.rho,
    )


def _trips_to_trajectories(
    trips: Sequence[TaxiTrip],
) -> List[SemanticTrajectory]:
    return trips_to_mining_trajectories(trips)


def cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: write a synthetic POI + trip workload."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    city = CityModel.generate(extent_m=args.extent_m, seed=args.seed)
    pois = POIGenerator(city, seed=args.seed + 4).generate(args.pois)
    taxi = ShanghaiTaxiSimulator(city, seed=args.seed + 16).simulate(
        n_passengers=args.passengers, days=args.days
    )
    write_pois(out / "pois.csv", pois)
    write_trips(out / "trips.csv", taxi.trips)
    print(f"wrote {len(pois)} POIs -> {out / 'pois.csv'}")
    print(f"wrote {len(taxi.trips)} trips -> {out / 'trips.csv'}")
    return 0


def cmd_build_csd(args: argparse.Namespace) -> int:
    """``repro build-csd``: construct, report, and export the CSD."""
    pois = read_pois(args.pois)
    trips = read_trips(args.trips)
    trajectories = _trips_to_trajectories(trips)
    stays = [sp for st in trajectories for sp in st.stay_points]
    csd = build_csd(pois, stays, CSDConfig(alpha=args.alpha))
    stats = csd.describe()
    print(format_table(["statistic", "value"], list(stats.items())))
    if args.geojson:
        write_geojson(args.geojson, csd_to_geojson(csd))
        print(f"wrote CSD -> {args.geojson}")
    if args.svg:
        save_svg(args.svg, render_csd_svg(csd))
        print(f"wrote CSD map -> {args.svg}")
    if args.save:
        save_csd(args.save, csd)
        print(f"saved diagram -> {args.save}")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """``repro mine``: run one approach and export its patterns."""
    try:
        approach = approach_by_name(args.approach)
    except KeyError:
        names = ", ".join(a.name for a in APPROACHES)
        print(f"unknown approach {args.approach!r}; choose from: {names}",
              file=sys.stderr)
        return 2
    pois = read_pois(args.pois)
    trips = read_trips(args.trips)
    trajectories = _trips_to_trajectories(trips)
    csd = load_csd(args.load_csd) if args.load_csd else None
    patterns = run_approach(
        approach, pois, trajectories,
        CSDConfig(alpha=args.alpha), _mining_config(args), csd=csd,
    )
    lonlat = [(p.lon, p.lat) for p in pois]
    projection = LocalProjection.for_points(lonlat)
    rows = summarize(patterns, projection)
    print(f"{approach.name}: {len(patterns)} patterns, "
          f"coverage {sum(p.support for p in patterns)}")
    print(format_table(
        ["route", "support", "len", "bucket", "span_m"],
        [(r.route, r.support, r.length, r.bucket, round(r.span_m)) for r in rows[:20]],
    ))
    if args.geojson:
        write_geojson(args.geojson, patterns_to_geojson(patterns))
        print(f"wrote patterns -> {args.geojson}")
    if args.svg and patterns:
        save_svg(args.svg, render_patterns_svg(patterns, projection))
        print(f"wrote pattern map -> {args.svg}")
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["route", "support", "length", "bucket",
             "start_lon", "start_lat", "end_lon", "end_lat", "span_m"]
        )
        for r in rows:
            writer.writerow([
                r.route, r.support, r.length, r.bucket,
                r.start_lonlat[0], r.start_lonlat[1],
                r.end_lonlat[0], r.end_lonlat[1], r.span_m,
            ])
        ioutil.atomic_write_text(args.csv, buffer.getvalue())
        print(f"wrote summary -> {args.csv}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: the fault-tolerant, resumable CSD-PM pipeline.

    Malformed trip rows are quarantined instead of aborting the run;
    stage checkpoints land in ``--run-dir`` and ``--resume`` skips any
    stage whose checkpoint matches the manifest (``docs/RUNNER.md``).
    """
    run_dir = Path(args.run_dir)
    quarantine_path = Path(
        args.quarantine if args.quarantine else run_dir / "quarantine.csv"
    )
    pois = read_pois(args.pois)
    with Quarantine(quarantine_path) as quarantine:
        trips = list(
            iter_trips(args.trips, on_bad_row=quarantine.sink("trips"))
        )
        trajectories = _trips_to_trajectories(trips)
        runner = PipelineRunner(
            run_dir,
            CSDConfig(alpha=args.alpha),
            _mining_config(args),
            resume=args.resume,
            chunk_size=args.chunk_size,
        )
        result = runner.run(pois, trajectories)
    print(f"CSD-PM: {result.n_patterns} patterns, "
          f"coverage {result.coverage} "
          f"({len(trips)} trips ingested, "
          f"{quarantine.count} rows quarantined)")
    if quarantine.count:
        print(f"quarantined rows -> {quarantine_path}")
    lonlat = [(p.lon, p.lat) for p in pois]
    projection = LocalProjection.for_points(lonlat)
    rows = summarize(result.patterns, projection)
    print(format_table(
        ["route", "support", "len", "bucket", "span_m"],
        [(r.route, r.support, r.length, r.bucket, round(r.span_m))
         for r in rows[:20]],
    ))
    if args.geojson:
        write_geojson(args.geojson, patterns_to_geojson(result.patterns))
        print(f"wrote patterns -> {args.geojson}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: the Section 5 metric table, all approaches."""
    pois = read_pois(args.pois)
    trips = read_trips(args.trips)
    trajectories = _trips_to_trajectories(trips)
    lonlat = [(p.lon, p.lat) for p in pois]
    projection = LocalProjection.for_points(lonlat)
    csd_config = CSDConfig(alpha=args.alpha)
    mining_config = _mining_config(args)

    rows = []
    for approach in APPROACHES:
        patterns = run_approach(
            approach, pois, trajectories, csd_config, mining_config
        )
        metrics = summarize_patterns(approach.name, patterns, projection)
        rows.append(metrics.as_row())
    print(format_table(
        ["approach", "#patterns", "coverage", "avg sparsity", "avg consistency"],
        rows,
    ))
    return 0


def cmd_checkins(args: argparse.Namespace) -> int:
    """``repro checkins``: regenerate the Table 1 bias study."""
    for name, profile in PROFILES.items():
        study = CheckinSimulator(profile, seed=args.seed).run(args.activities)
        print(f"\n{name} — top {args.top} observed topics "
              f"({study.n_checkins} check-ins):")
        rows = [
            (topic, f"{ratio * 100:.2f}%")
            for topic, ratio in study.top_topics(args.top)
        ]
        print(format_table(["topic", "ratio"], rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the HTTP query daemon over a persisted CSD.

    Observability is always on while serving — ``GET /metrics`` returns
    a live snapshot and never resets, so scraping is repeatable.  A
    ``--metrics-json`` file, if requested, is written once on shutdown.
    """
    config = ServeConfig(
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        query_dtype=args.query_dtype,
    )
    obs.enable()
    service = RecognitionService(csd_path=args.csd, config=config)
    server = make_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[0], server.server_address[1]
    print(
        f"serving CSD ({service.csd.n_pois} POIs, "
        f"{service.csd.n_units} units) on http://{host}:{port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _notify_serve(base_url: str) -> None:
    """Nudge a running ``repro serve`` daemon to hot-reload the diagram.

    POSTs ``/admin/reload?if_changed=1``: epochs that left the diagram
    untouched skip the parse + cache flush on the serving side.
    Failures are reported but never abort the stream — the daemon may
    simply be down.
    """
    url = base_url.rstrip("/") + "/admin/reload?if_changed=1"
    request = urllib.request.Request(url, data=b"", method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            response.read()
    except (OSError, ValueError) as exc:
        print(f"warning: serve notification failed: {exc}", file=sys.stderr)
        return
    registry = obs.get_registry()
    if registry.enabled:
        registry.counter("stream.serve.notified").inc()


def cmd_stream(args: argparse.Namespace) -> int:
    """``repro stream``: the online pipeline (docs/STREAMING.md).

    Consumes the trips CSV as an append-only stream in epochs of
    ``--epoch-trips`` valid rows, absorbs ``--pois`` online, and keeps
    the pattern set exact over a sliding window of ``--window-epochs``.
    Every epoch is one durable commit in ``--run-dir``; ``--resume``
    continues a killed run bit-identically.  ``--notify-serve`` points
    at a ``repro serve`` daemon watching the run directory's
    ``csd-latest.json`` alias.
    """
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    quarantine_path = Path(
        args.quarantine if args.quarantine else run_dir / "quarantine.csv"
    )
    notify_url = args.notify_serve

    def on_epoch(result: EpochResult) -> None:
        line = (
            f"epoch {result.epoch_index}: {result.n_trips} trips, "
            f"{result.n_new_pois} new POIs, "
            f"{len(result.patterns)} window patterns"
        )
        if result.repair is not None:
            line += f", repaired {len(result.repair.scope_units)} units"
        print(line, flush=True)
        if notify_url:
            _notify_serve(notify_url)

    with Quarantine(quarantine_path) as quarantine:
        runner = StreamRunner(
            run_dir,
            args.trips,
            base_csd_path=args.csd,
            pois_path=args.pois,
            csd_config=CSDConfig(alpha=args.alpha),
            mining_config=_mining_config(args),
            epoch_trips=args.epoch_trips,
            poi_batch=args.poi_batch,
            window_epochs=args.window_epochs,
            staleness_threshold=args.staleness_threshold,
            resume=args.resume,
            on_bad_row=quarantine.sink("trips"),
            on_epoch=on_epoch,
        )
        report = runner.run(max_epochs=args.max_epochs)
    resumed = " [resumed]" if report.resumed else ""
    print(
        f"stream{resumed}: {report.epochs_run} epochs this invocation, "
        f"{report.trips_consumed} trips consumed, "
        f"{report.pois_consumed} POIs absorbed, "
        f"{len(report.patterns)} live window patterns "
        f"({quarantine.count} rows quarantined)"
    )
    if quarantine.count:
        print(f"quarantined rows -> {quarantine_path}")
    rows = [
        (
            " > ".join("*" if item is None else str(item) for item in p.items),
            p.support,
            len(p.items),
        )
        for p in report.patterns[:20]
    ]
    if rows:
        print(format_table(["sequence", "support", "len"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pervasive Miner / City Semantic Diagram reproduction",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="enable pipeline observability and write the metrics "
        "snapshot (docs/OBSERVABILITY.md) to PATH after the command "
        "finishes; goes before the subcommand, e.g. "
        "'repro --metrics-json m.json build-csd ...'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic workload")
    p.add_argument("--out", default="data", help="output directory")
    p.add_argument("--extent-m", type=float, default=6_000.0)
    p.add_argument("--pois", type=int, default=12_000)
    p.add_argument("--passengers", type=int, default=250)
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build-csd", help="construct the CSD from CSVs")
    p.add_argument("--pois", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--geojson", help="write unit polygons here")
    p.add_argument("--svg", help="write the Figure 6 map here")
    p.add_argument("--save", help="persist the diagram (JSON) here")
    p.set_defaults(func=cmd_build_csd)

    p = sub.add_parser("mine", help="run one approach end to end")
    p.add_argument("--pois", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--approach", default="CSD-PM")
    _add_mining_args(p)
    p.add_argument("--geojson", help="write pattern lines here")
    p.add_argument("--svg", help="write the Figure 14 map here")
    p.add_argument("--csv", help="write a pattern summary table here")
    p.add_argument("--load-csd", help="reuse a diagram saved by build-csd")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser(
        "run", help="fault-tolerant checkpointed pipeline (docs/RUNNER.md)"
    )
    p.add_argument("--pois", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--run-dir", required=True,
                   help="checkpoint directory (manifest + stage artifacts)")
    p.add_argument("--resume", action="store_true",
                   help="skip stages whose checkpoints match the manifest")
    p.add_argument("--quarantine",
                   help="malformed-row CSV (default: RUN_DIR/quarantine.csv)")
    p.add_argument("--chunk-size", type=int, default=8192,
                   help="stay points per recognition batch (bounds memory)")
    _add_mining_args(p)
    p.add_argument("--geojson", help="write pattern lines here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="run all six approaches")
    p.add_argument("--pois", required=True)
    p.add_argument("--trips", required=True)
    _add_mining_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("checkins", help="Table 1 semantic-bias study")
    p.add_argument("--activities", type=int, default=200_000)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_checkins)

    p = sub.add_parser(
        "serve", help="HTTP daemon answering CSD queries (docs/SERVING.md)"
    )
    p.add_argument("--csd", required=True,
                   help="diagram JSON saved by 'build-csd --save'")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8355,
                   help="0 picks an ephemeral port (printed on startup)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="largest micro-batch one kernel call may serve")
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="admission-queue bound; beyond it requests get 503")
    p.add_argument("--cache-size", type=int, default=65536,
                   help="per-cell LRU entries; 0 disables the cache")
    p.add_argument("--query-dtype", choices=["float64", "float32"],
                   default="float64",
                   help="recognition kernel precision")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "stream",
        help="online epoch-at-a-time pipeline (docs/STREAMING.md)",
    )
    p.add_argument("--trips", required=True,
                   help="trips CSV, treated as an append-only stream")
    p.add_argument("--csd",
                   help="base diagram JSON from 'build-csd --save' "
                        "(required for a fresh run, ignored on --resume)")
    p.add_argument("--pois",
                   help="CSV of newly discovered POIs to absorb online")
    p.add_argument("--run-dir", required=True,
                   help="durable commit directory (manifest + artifacts)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the run directory's last commit")
    p.add_argument("--quarantine",
                   help="malformed-row CSV (default: RUN_DIR/quarantine.csv)")
    p.add_argument("--epoch-trips", type=int, default=256,
                   help="valid trips per epoch (the streaming unit)")
    p.add_argument("--poi-batch", type=int, default=None,
                   help="new POIs absorbed per epoch "
                        "(default: all at the first epoch)")
    p.add_argument("--window-epochs", type=int, default=4,
                   help="sliding-window width for pattern maintenance")
    p.add_argument("--staleness-threshold", type=float, default=0.05,
                   help="pending-POI fraction that triggers a partial "
                        "diagram repair")
    p.add_argument("--max-epochs", type=int, default=None,
                   help="stop after this many epochs this invocation")
    p.add_argument("--notify-serve", metavar="URL",
                   help="POST URL/admin/reload?if_changed=1 after each "
                        "committed epoch")
    _add_mining_args(p)
    p.set_defaults(func=cmd_stream)

    return parser


def _metrics_begin() -> None:
    """Start a per-invocation metrics scope: clean registry, collecting.

    The reset lives here — deliberately apart from the snapshot write —
    so reading metrics never zeroes them.  ``repro serve`` relies on
    that split: its ``/metrics`` endpoint snapshots the same registry
    repeatedly while the daemon keeps accumulating.
    """
    obs.get_registry().reset()
    obs.enable()


def _metrics_write(path: str) -> None:
    """Snapshot the registry to ``path``.  Pure read: no reset.

    Atomic so a dashboard tailing the snapshot never reads a torn file.
    """
    ioutil.atomic_write_text(path, obs.to_json() + "\n")
    print(f"wrote metrics snapshot -> {path}")


def _metrics_end() -> None:
    """Close the per-invocation scope (after any snapshot was written)."""
    obs.disable()
    obs.get_registry().reset()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.metrics_json:
        # Per-invocation snapshot: start from a clean registry so the
        # file reflects exactly this command's work.
        _metrics_begin()
    try:
        code = int(args.func(args))
    finally:
        if args.metrics_json:
            _metrics_write(args.metrics_json)
            _metrics_end()
    return code


if __name__ == "__main__":
    sys.exit(main())
