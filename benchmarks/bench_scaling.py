#!/usr/bin/env python
"""POI scaling curve: constructor + serial batched recognition.

Sweeps ``n_pois`` at constant POI density (the city extent grows with
``sqrt(n_pois)``) and writes ``BENCH_scaling.json``:

* ``build_s`` — full CSD construction (popularity, vectorised
  Algorithm 1 clustering, purification, merging);
* ``build_peak_rss_mb`` — how far ``build_csd`` raises the process's
  peak RSS (``ru_maxrss``) above the peak the setup left;
* ``recognize_s`` — batched Algorithm 3 (``recognize_points``) over a
  synthetic stay corpus, best of two runs.

Each size runs in a child process of its own, so no size inherits the
heap or the peak RSS of another.  In ``--fast`` mode (the CI smoke) the
bench fails when a build adds more than :data:`BUILD_RSS_CEILING_MB`.

The stay corpus is synthesised directly (POI positions + GPS-like
Gaussian noise, inverse-projected to lon/lat) instead of running the
taxi simulator — at 1M POIs the simulator would dominate the bench by
an order of magnitude without exercising either kernel.

``n_cpus`` is recorded so curves from different hosts can be compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--fast] [--out PATH]
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.core.recognition import CSDRecognizer
from repro.data.city import CityModel
from repro.data.poi import POIGenerator
from repro.data.trajectory import StayPoint
from repro.eval.reporting import format_table, write_report_json

#: Base workload: 12k POIs in a 6 km downtown slice (DESIGN.md §3).
BASE_POIS = 12_000
BASE_EXTENT_M = 6_000.0

FULL_SIZES = (12_000, 50_000, 200_000, 1_000_000)
FAST_SIZES = (12_000, 50_000)

#: Stays per POI in the synthetic corpus, and the cap that keeps the 1M
#: point recognition batch within laptop memory.
STAYS_PER_POI = 3
MAX_STAYS = 600_000

#: Most RSS a ``--fast`` build may add.  The constructor works in
#: blocks of ``repro.geo.index.PAIR_BUDGET`` candidate pairs, so its
#: transient memory stays far below this (23–26 MB at 50k POIs on a
#: 2-vCPU Linux host, where one batch of all pairs added 404 MB).
BUILD_RSS_CEILING_MB = 100.0


def peak_rss_mb():
    """This process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def synth_stays(csd_city, poi_xy, n_stays, seed):
    """GPS-noised stay corpus anchored at random POIs."""
    rng = np.random.default_rng(seed)
    anchors = poi_xy[rng.integers(0, len(poi_xy), n_stays)]
    xy = anchors + rng.normal(0.0, 40.0, size=(n_stays, 2))
    lonlat = csd_city.projection.to_lonlat_array(xy)
    return [
        StayPoint(lon=float(lon), lat=float(lat), t=float(i))
        for i, (lon, lat) in enumerate(lonlat)
    ]


def bench_size(n_pois, seed=7, repeat=2):
    extent = BASE_EXTENT_M * math.sqrt(n_pois / BASE_POIS)
    t0 = time.perf_counter()
    city = CityModel.generate(extent_m=extent, seed=seed)
    pois = POIGenerator(city, seed=seed + 4).generate(n_pois)
    config = CSDConfig(alpha=0.7)
    poi_lonlat = np.array([[p.lon, p.lat] for p in pois])
    poi_xy = city.projection.to_meters_array(poi_lonlat)
    n_stays = min(STAYS_PER_POI * n_pois, MAX_STAYS)
    stays = synth_stays(city, poi_xy, n_stays, seed + 11)
    t_setup = time.perf_counter() - t0

    rss_before = peak_rss_mb()
    t0 = time.perf_counter()
    csd = build_csd(pois, stays, config, city.projection)
    t_build = time.perf_counter() - t0
    build_rss = peak_rss_mb() - rss_before

    recognizer = CSDRecognizer(csd, config.r3sigma_m)
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        recognizer.recognize_points(stays)
        best = min(best, time.perf_counter() - t0)
    return {
        "n_pois": n_pois,
        "n_stays": n_stays,
        "extent_m": round(extent, 1),
        "n_units": csd.n_units,
        "setup_s": round(t_setup, 4),
        "build_s": round(t_build, 4),
        "build_peak_rss_mb": round(build_rss, 1),
        "recognize_s": round(best, 4),
    }


def bench_size_in_child(n_pois):
    """:func:`bench_size` in a fresh (spawned) child process."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(bench_size, n_pois).result()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="CI smoke: 12k + 50k POIs only",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_scaling.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    sizes = FAST_SIZES if args.fast else FULL_SIZES
    results = []
    for n_pois in sizes:
        print(f"-- n_pois={n_pois}")
        r = bench_size_in_child(n_pois)
        results.append(r)
        print(
            f"   build {r['build_s']:.3f}s  +{r['build_peak_rss_mb']:.1f} MB  "
            f"units {r['n_units']}  stays {r['n_stays']}  "
            f"recognize {r['recognize_s']:.3f}s"
        )

    report = {
        "mode": "fast" if args.fast else "full",
        "n_cpus": os.cpu_count() or 1,
        "sizes": results,
    }
    write_report_json(args.out, report)
    print(f"wrote {args.out}")

    rows = [
        (r["n_pois"], r["n_stays"], r["build_s"], r["build_peak_rss_mb"],
         r["recognize_s"])
        for r in results
    ]
    print("\nScaling — wall seconds, build peak RSS growth in MB")
    print(format_table(
        ["n_pois", "n_stays", "build", "build MB", "recognize"], rows
    ))
    if args.fast:
        over = [
            r for r in results if r["build_peak_rss_mb"] > BUILD_RSS_CEILING_MB
        ]
        for r in over:
            print(
                f"FAIL: the {r['n_pois']}-POI build added "
                f"{r['build_peak_rss_mb']:.1f} MB, over the "
                f"{BUILD_RSS_CEILING_MB:.0f} MB ceiling"
            )
        if over:
            raise SystemExit(1)
    return report


if __name__ == "__main__":
    main()
