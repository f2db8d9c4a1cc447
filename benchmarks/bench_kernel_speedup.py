#!/usr/bin/env python
"""Kernel speedup bench: seed per-point loops vs. the batched CSR paths.

Times the hottest pipeline stages on the standard bench workload
(12k POIs, 250 passengers x 7 days — DESIGN.md section 3):

* popularity (Eq. 3): per-POI ``query_radius`` loop vs. the vectorised
  ``compute_popularity`` (one CSR batch query + ``np.bincount`` per
  block of ``repro.geo.index.PAIR_BUDGET`` candidates);
* recognition (Algorithm 3): per-stay-point dict voting vs.
  ``CSDRecognizer.recognize_points`` (one cell-window table query +
  ``np.bincount`` over ``(stay, unit)`` pairs per block);
* recognition at serving batch sizes: ``vote_stays`` on 1-stay and
  64-stay calls against the grid-query vote it replaced
  (``tests/test_kernel_equivalence.py::vote_stays_oracle``);
* OPTICS (Algorithm 4 line 6): the seed heap walk
  (``tests/test_kernel_equivalence.py::optics_seed_oracle``) vs.
  ``repro.cluster.optics.optics`` on every call one
  ``counterpart_cluster`` run makes over the recognised workload;
* the constructor's steps on the workload's own inputs — Algorithm 1
  clustering, Algorithm 2 purification and the Eq. 6-8 merge — and
  recognition's semantic assembly, each against its per-POI loop
  oracle from ``tests/test_kernel_equivalence.py``;
* the stream's diagram refresh: ``IncrementalCSD.diagram()`` after one
  51-POI ``add_pois`` batch (the ``stream-epochs`` batch size), which
  rebuilds only the units that gained a member, against the full
  rebuild of every unit (``tests/test_incremental.py::diagram_oracle``).

Every comparison also verifies the results are identical, then writes
the measurements to ``BENCH_kernel.json`` at the repo root.  Run with
``--fast`` for a small-workload smoke check (CI); timings in fast mode
are not meaningful.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_speedup.py [--fast] [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # the seed OPTICS oracle lives in tests/

from repro import obs
from repro.cluster.optics import MAX_EPS_M, optics
from repro.core import extraction
from repro.core.config import MiningConfig
from repro.core.constructor import popularity_based_clustering
from repro.core.incremental import IncrementalCSD
from repro.core.merging import merge_units
from repro.core.popularity import compute_popularity
from repro.core.purification import purify
from repro.core.recognition import CSDRecognizer, vote_stays
from repro.data.poi import POI
from repro.data.trajectory import NO_SEMANTICS
from repro.eval.experiments import make_workload
from repro.eval.reporting import write_report_json
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import GridIndex
from tests.conftest import diagram_key
from tests.test_incremental import diagram_oracle, unit_key
from tests.test_kernel_equivalence import (
    assemble_semantics_oracle,
    clustering_frontier_oracle,
    merge_units_oracle,
    optics_seed_oracle,
    purify_loop_oracle,
    vote_stays_oracle,
)


def popularity_loop(poi_xy, stay_xy, r3sigma):
    """Seed implementation: one scalar range query per POI."""
    pois = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    stays = np.asarray(stay_xy, dtype=float).reshape(-1, 2)
    index = GridIndex(stays, cell_size=r3sigma)
    pop = np.zeros(len(pois))
    for i, (x, y) in enumerate(pois):
        hits = index.query_radius(x, y, r3sigma)
        if len(hits) == 0:
            continue
        d = np.sqrt(((stays[hits] - (x, y)) ** 2).sum(axis=1))
        pop[i] = float(gaussian_coefficients(d, r3sigma).sum())
    return pop


def recognize_loop(recognizer, stay_points):
    """Seed implementation: per-stay-point projection + dict voting."""
    csd = recognizer.csd
    out = []
    for sp in stay_points:
        x, y = csd.projection.to_meters(sp.lon, sp.lat)
        hits = csd.range_query(x, y, recognizer.r3sigma_m)
        if len(hits) == 0:
            out.append(NO_SEMANTICS)
            continue
        d = np.sqrt(((csd.poi_xy[hits] - (x, y)) ** 2).sum(axis=1))
        weights = gaussian_coefficients(d, recognizer.r3sigma_m)
        votes = {}
        in_range_tags = {}
        for poi_idx, w in zip(hits, weights):
            unit_id = csd.find_semantic_unit(int(poi_idx))
            if unit_id < 0:
                continue
            score = float(csd.popularity[poi_idx]) * float(w)
            votes[unit_id] = votes.get(unit_id, 0.0) + score
            in_range_tags.setdefault(unit_id, set()).add(
                csd.poi_tag(int(poi_idx))
            )
        if not votes:
            out.append(NO_SEMANTICS)
            continue
        winner = min(votes, key=lambda uid: (-votes[uid], uid))
        unit = csd.unit(winner)
        distribution = unit.semantic_distribution
        tags = {
            tag
            for tag in in_range_tags[winner]
            if distribution.get(tag, 0.0) >= recognizer.min_tag_share
        }
        tags.add(unit.dominant_tag())
        out.append(frozenset(tags))
    return out


def capture_optics_calls(recognized, mining_config, projection):
    """Algorithm 4's own OPTICS inputs: wrap the line-6 lookup site for
    one ``counterpart_cluster`` run and record ``(xy, min_pts, max_eps)``."""
    calls = []
    wrapped = extraction.optics_auto_clusters

    def recording(xy, min_pts):
        calls.append((xy, min_pts, MAX_EPS_M))
        return wrapped(xy, min_pts)

    extraction.optics_auto_clusters = recording
    try:
        extraction.counterpart_cluster(recognized, mining_config, projection)
    finally:
        extraction.optics_auto_clusters = wrapped
    return calls


def optics_all(fn, calls):
    return [fn(xy, min_pts, max_eps) for xy, min_pts, max_eps in calls]


def timed(fn, *args, repeat=3, **kwargs):
    """Best-of-``repeat`` wall time; returns (last result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return result, best


#: POIs per batch of the stream-epochs workload.
STREAM_BATCH = 51


def time_stream_diagram(csd, config, batch, build, repeat=5):
    """Best-of-``repeat`` time of ``build(updater)`` on a fresh updater
    that has just absorbed ``batch``; returns (last result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        updater = IncrementalCSD(csd, config.merge_radius_m, config.merge_cos)
        updater.add_pois(batch)
        t0 = time.perf_counter()
        result = build(updater)
        best = min(best, time.perf_counter() - t0)
    return result, best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="small workload smoke run (CI); timings not meaningful",
    )
    parser.add_argument(
        "--out", type=Path,
        default=ROOT / "BENCH_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--metrics-json", type=Path, default=None,
        help="also write the repro.obs metrics snapshot to this path "
        "(stage-level attribution; docs/OBSERVABILITY.md)",
    )
    args = parser.parse_args(argv)

    if args.fast:
        workload = make_workload(n_pois=2_000, n_passengers=50, days=2)
    else:
        workload = make_workload(n_pois=12_000, n_passengers=250, days=7)
    config = workload.csd_config
    stays = [sp for st in workload.trajectories for sp in st.stay_points]
    stay_lonlat = np.array([[sp.lon, sp.lat] for sp in stays])
    stay_xy = workload.projection.to_meters_array(stay_lonlat)
    poi_lonlat = np.array([[p.lon, p.lat] for p in workload.pois])
    poi_xy = workload.projection.to_meters_array(poi_lonlat)
    print(
        f"workload: {len(workload.pois)} POIs, "
        f"{len(workload.trajectories)} trajectories, {len(stays)} stay points"
    )

    pop_loop, t_pop_loop = timed(
        popularity_loop, poi_xy, stay_xy, config.r3sigma_m
    )
    pop_batch, t_pop_batch = timed(
        compute_popularity, poi_xy, stay_xy, config.r3sigma_m
    )
    # The seed loop summed each POI's hits with np.sum (pairwise); the
    # batched path accumulates sequentially via bincount, so the two
    # may differ in the last ulp on dense POIs.  Bit-identity against
    # the sequential-order oracle is enforced by the equivalence tests.
    denom = np.maximum(np.abs(pop_loop), 1e-300)
    pop_max_rel = float(np.max(np.abs(pop_loop - pop_batch) / denom))
    pop_ok = bool(np.allclose(pop_loop, pop_batch, rtol=1e-12, atol=0.0))
    pop_speedup = t_pop_loop / t_pop_batch
    print(
        f"popularity:  loop {t_pop_loop:.3f}s  batched {t_pop_batch:.3f}s  "
        f"speedup x{pop_speedup:.1f}  max_rel_diff={pop_max_rel:.2e}"
    )

    csd, t_build = timed(workload.build_csd, repeat=1)
    print(f"csd build: {t_build:.3f}s ({csd.n_units} units)")
    recognizer = CSDRecognizer(csd, config.r3sigma_m)
    rec_loop, t_rec_loop = timed(recognize_loop, recognizer, stays)
    rec_batch, t_rec_batch = timed(recognizer.recognize_points, stays)
    rec_equal = rec_loop == rec_batch
    rec_speedup = t_rec_loop / t_rec_batch
    print(
        f"recognition: loop {t_rec_loop:.3f}s  batched {t_rec_batch:.3f}s  "
        f"speedup x{rec_speedup:.1f}  identical={rec_equal}"
    )

    # Algorithm 3's vote at the batch sizes a serving daemon sees: one
    # stay per call (a cache-missing request) and 64-stay blocks.
    stay_xy_rec = recognizer.project_stays(stays)
    singles = stay_xy_rec[: 300 if args.fast else 3000]

    def vote_blocks(vote, xy, size):
        return [vote(xy[s : s + size]) for s in range(0, len(xy), size)]

    def kernel(xy):
        return vote_stays(csd, recognizer.table, xy)

    def oracle(xy):
        return vote_stays_oracle(csd, xy, config.r3sigma_m)

    small_rows = {}
    small_equal = True
    for label, xy, size in (("one_stay", singles, 1), ("block64", stay_xy_rec, 64)):
        want, t_oracle = timed(vote_blocks, oracle, xy, size)
        got, t_kernel = timed(vote_blocks, kernel, xy, size)
        small_equal &= all(
            g.dtype == w.dtype and np.array_equal(g, w)
            for got_call, want_call in zip(got, want)
            for g, w in zip(got_call, want_call)
        )
        calls = len(want)
        small_rows[label] = {
            "calls": calls,
            "oracle_us": round(t_oracle / calls * 1e6, 2),
            "kernel_us": round(t_kernel / calls * 1e6, 2),
            "ratio": round(t_kernel / t_oracle, 3),
        }
        print(
            f"vote {label}: {calls} calls  oracle {t_oracle / calls * 1e6:.1f}us  "
            f"kernel {t_kernel / calls * 1e6:.1f}us  "
            f"ratio {t_kernel / t_oracle:.2f}  identical={small_equal}"
        )

    # Algorithm 4 line 6 at the end-to-end bench's support and rho; the
    # fast corpus is too short for support 20 to leave any pattern.
    mining_config = MiningConfig(support=2 if args.fast else 20, rho=0.001)
    recognized = recognizer.recognize(workload.trajectories)
    calls = capture_optics_calls(recognized, mining_config, csd.projection)
    opt_seed, t_opt_seed = timed(optics_all, optics_seed_oracle, calls)
    opt_kernel, t_opt_kernel = timed(optics_all, optics, calls)
    opt_equal = bool(calls) and all(
        np.array_equal(got.ordering, want[0])
        and np.array_equal(got.reachability, want[1])
        and np.array_equal(got.core_distance, want[2])
        for got, want in zip(opt_kernel, opt_seed)
    )
    opt_speedup = t_opt_seed / t_opt_kernel
    opt_points = sum(len(xy) for xy, _, _ in calls)
    print(
        f"optics:      {len(calls)} calls, {opt_points} points  "
        f"seed {t_opt_seed:.3f}s  kernel {t_opt_kernel:.3f}s  "
        f"speedup x{opt_speedup:.1f}  identical={opt_equal}"
    )

    # The constructor's steps and recognition's assembly, each replayed
    # on the inputs the workload's own build and recognition give it.
    tags = [getattr(p, config.semantic_level) for p in workload.pois]
    clus_args = (poi_xy, tags, pop_batch, config)
    (want_clusters, want_left, _, _), t_clus_oracle = timed(
        clustering_frontier_oracle, *clus_args
    )
    (coarse, leftovers), t_clus = timed(popularity_based_clustering, *clus_args)
    pur_args = (coarse, poi_xy, tags, config.v_min_m2, config.r3sigma_m)
    want_pure, t_pur_oracle = timed(purify_loop_oracle, *pur_args)
    pure, t_pur = timed(purify, *pur_args)
    merge_args = (
        pure, leftovers, poi_xy, tags, pop_batch,
        config.merge_cos, config.merge_radius_m,
    )
    want_final, t_merge_oracle = timed(merge_units_oracle, *merge_args)
    final, t_merge = timed(merge_units, *merge_args)
    votes = vote_stays(csd, recognizer.table, stay_xy_rec)
    want_props, t_asm_oracle = timed(
        assemble_semantics_oracle, recognizer, *votes
    )
    props, t_asm = timed(recognizer.assemble_semantics, *votes)
    constructor_rows = {
        "clustering": (
            t_clus_oracle, t_clus,
            (coarse, leftovers) == (want_clusters, want_left),
        ),
        "purification": (t_pur_oracle, t_pur, pure == want_pure),
        "merging": (t_merge_oracle, t_merge, final == want_final),
        "assembly": (
            t_asm_oracle, t_asm,
            props == want_props and all(
                (a is NO_SEMANTICS) == (b is NO_SEMANTICS)
                for a, b in zip(props, want_props)
            ),
        ),
    }
    for name, (t_oracle, t_kernel, same) in constructor_rows.items():
        print(
            f"{name + ':':<14}oracle {t_oracle:.3f}s  kernel {t_kernel:.3f}s  "
            f"speedup x{t_oracle / t_kernel:.1f}  identical={same}"
        )

    # The stream's diagram refresh after one POI batch: copies of POIs
    # spread over the city, 1 m east of their originals, so most join
    # the original's unit.
    step = max(1, len(workload.pois) // STREAM_BATCH)
    batch = [
        POI(10**7 + k, p.lon + 1e-5, p.lat, p.major, p.minor, p.name)
        for k, p in enumerate(workload.pois[::step][:STREAM_BATCH])
    ]
    stream_kernel, t_stream = time_stream_diagram(
        csd, config, batch, IncrementalCSD.diagram
    )
    stream_oracle, t_stream_oracle = time_stream_diagram(
        csd, config, batch, diagram_oracle
    )
    stream_equal = unit_key(stream_kernel.units) == unit_key(
        stream_oracle.units
    ) and diagram_key(stream_kernel) == diagram_key(stream_oracle)
    stream_rebuilt = sum(
        a is not b for a, b in zip(stream_kernel.units, csd.units)
    )
    print(
        f"stream diagram: {stream_rebuilt}/{csd.n_units} units rebuilt  "
        f"oracle {t_stream_oracle * 1e3:.2f}ms  kernel {t_stream * 1e3:.2f}ms  "
        f"speedup x{t_stream_oracle / t_stream:.1f}  identical={stream_equal}"
    )

    # Observability: time the registry-disabled and registry-enabled
    # paths as one freshly-warmed back-to-back pair.  Comparing against
    # the *earlier* t_rec_batch measurement used to report a negative
    # overhead (-4%): the interpreter, allocator, and CPU state had
    # drifted across the intervening runs, which is exactly the
    # kind of cross-measurement noise a relative overhead must exclude.
    registry = obs.get_registry()
    registry.reset()
    recognizer.recognize_points(stays)  # warm the disabled path
    obs.enable()
    recognizer.recognize_points(stays)  # warm the enabled path
    obs.disable()
    rec_plain, t_rec_disabled = timed(recognizer.recognize_points, stays)
    registry.reset()
    obs.enable()
    rec_obs, t_rec_enabled = timed(recognizer.recognize_points, stays)
    metrics = obs.report()
    obs.disable()
    # Clamp at zero: the true no-op-wrapper overhead cannot be negative,
    # so any residual negative reading is measurement noise.
    enabled_overhead = max(0.0, t_rec_enabled / t_rec_disabled - 1.0)
    print(
        f"observability: recognition disabled {t_rec_disabled:.3f}s  "
        f"enabled {t_rec_enabled:.3f}s  "
        f"enabled_overhead {enabled_overhead * 100:+.1f}%  "
        f"identical={rec_obs == rec_batch}"
    )

    report = {
        "mode": "fast" if args.fast else "full",
        "workload": {
            "n_pois": len(workload.pois),
            "n_trajectories": len(workload.trajectories),
            "n_stay_points": len(stays),
        },
        "popularity": {
            "loop_s": round(t_pop_loop, 4),
            "batched_s": round(t_pop_batch, 4),
            "speedup": round(pop_speedup, 2),
            "max_rel_diff": pop_max_rel,
            "allclose": pop_ok,
        },
        "recognition": {
            "loop_s": round(t_rec_loop, 4),
            "batched_s": round(t_rec_batch, 4),
            "speedup": round(rec_speedup, 2),
            "identical": bool(rec_equal),
        },
        "recognition_small_batch": {
            **small_rows,
            "table_entries": len(recognizer.table),
            "identical": bool(small_equal),
        },
        "optics": {
            "calls": len(calls),
            "points": opt_points,
            "max_points": max((len(xy) for xy, _, _ in calls), default=0),
            "seed_s": round(t_opt_seed, 4),
            "kernel_s": round(t_opt_kernel, 4),
            "speedup": round(opt_speedup, 2),
            "identical": bool(opt_equal),
        },
        **{
            name: {
                "oracle_s": round(t_oracle, 4),
                "kernel_s": round(t_kernel, 4),
                "speedup": round(t_oracle / t_kernel, 2),
                "identical": bool(same),
            }
            for name, (t_oracle, t_kernel, same) in constructor_rows.items()
        },
        "stream_diagram": {
            "batch_pois": len(batch),
            "units": csd.n_units,
            "units_rebuilt": stream_rebuilt,
            "oracle_ms": round(t_stream_oracle * 1e3, 3),
            "kernel_ms": round(t_stream * 1e3, 3),
            "speedup": round(t_stream_oracle / t_stream, 2),
            "identical": bool(stream_equal),
        },
        "csd_build_s": round(t_build, 4),
        "observability": {
            "recognition_disabled_s": round(t_rec_disabled, 4),
            "recognition_enabled_s": round(t_rec_enabled, 4),
            "enabled_overhead": round(enabled_overhead, 4),
            "identical": bool(
                rec_obs == rec_batch and rec_plain == rec_batch
            ),
        },
        "metrics": metrics,
    }
    write_report_json(args.out, report)
    print(f"wrote {args.out}")
    if args.metrics_json is not None:
        write_report_json(args.metrics_json, metrics)
        print(f"wrote metrics snapshot {args.metrics_json}")
    if not (
        pop_ok and rec_equal and small_equal and opt_equal and stream_equal
        and rec_obs == rec_batch
        and all(same for _, _, same in constructor_rows.values())
    ):
        raise SystemExit("batched results diverged from the loop reference")
    return report


if __name__ == "__main__":
    main()
