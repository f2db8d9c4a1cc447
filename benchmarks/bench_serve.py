#!/usr/bin/env python
"""Serving bench: micro-batched vs per-request scalar recognition.

Drives :class:`repro.serve.RecognitionService` directly (no HTTP socket
overhead — the daemon's JSON layer is covered by the serve smoke test)
with the standard bench workload, and answers three questions:

* **throughput** — 64 closed-loop client threads hammering single-point
  recognition: the admission queue's micro-batching (one
  ``recognize_points`` kernel call per tick) versus the naive
  per-request ``recognize_point`` a thread-per-request server would do.
  The acceptance bar is a >= 3x throughput win on the 12k-POI workload;
* **latency** — open-loop arrivals replayed from a Poisson steady phase
  plus a rush-hour burst (arrival pattern taken from the taxi
  simulator's day shape): p50/p99 per-request latency and how many
  requests the bounded queue shed (HTTP-503 equivalents);
* **bit-identity** — every micro-batched answer must equal the
  sequential ``recognize_point`` oracle exactly.

Results land in ``BENCH_serve.json`` at the repo root.  ``--fast`` is
the CI smoke mode: a small workload and request counts; its timings are
not meaningful.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--fast] [--out PATH]
"""

from __future__ import annotations

import argparse
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.recognition import CSDRecognizer
from repro.eval.experiments import make_workload
from repro.eval.reporting import write_report_json
from repro.serve import RecognitionService, ServeConfig, ServerOverloaded


def percentiles(samples):
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p90_ms": float(np.percentile(arr, 90) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "max_ms": float(arr.max() * 1e3),
    }


def closed_loop(n_clients, requests, call):
    """``n_clients`` threads each firing their share back-to-back.

    Returns (results aligned with ``requests``, wall seconds).
    """
    results = [None] * len(requests)
    barrier = threading.Barrier(n_clients + 1)
    errors = []

    def client(worker_id):
        try:
            barrier.wait(timeout=60)
            for i in range(worker_id, len(requests), n_clients):
                lon, lat = requests[i]
                results[i] = call(lon, lat)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(n_clients)
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=60)
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return results, elapsed


def open_loop(n_clients, requests, arrival_s, call):
    """Replay an arrival schedule; returns (latencies, n_rejected).

    ``arrival_s[i]`` is request ``i``'s offset from the replay start.
    Each client thread owns a stride of the schedule, sleeps until each
    of its arrivals is due, then issues the request and records the
    due-time-to-response latency (so queueing delay counts, as it
    would for a real caller).
    """
    latencies = []
    lock = threading.Lock()
    rejected = [0]
    barrier = threading.Barrier(n_clients + 1)
    t0_box = [0.0]

    def client(worker_id):
        barrier.wait(timeout=60)
        t0 = t0_box[0]
        mine = []
        shed = 0
        for i in range(worker_id, len(requests), n_clients):
            due = t0 + arrival_s[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lon, lat = requests[i]
            try:
                call(lon, lat)
            except ServerOverloaded:
                shed += 1
                continue
            mine.append(time.perf_counter() - due)
        with lock:
            latencies.extend(mine)
            rejected[0] += shed
    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(n_clients)
    ]
    for t in threads:
        t.start()
    t0_box[0] = time.perf_counter() + 0.05  # everyone sees the same epoch
    barrier.wait(timeout=60)
    for t in threads:
        t.join()
    return latencies, rejected[0]


def arrival_schedule(rng, n_steady, steady_rps, n_burst, burst_rps):
    """Poisson steady phase followed by a rush-hour burst.

    The burst models the taxi corpus's morning peak: arrival rate jumps
    well past the steady rate for a short window, which is exactly what
    the admission queue + backpressure exist to absorb.
    """
    steady = np.cumsum(rng.exponential(1.0 / steady_rps, size=n_steady))
    burst = steady[-1] + np.cumsum(
        rng.exponential(1.0 / burst_rps, size=n_burst)
    )
    return np.concatenate([steady, burst])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="small workload smoke run (CI); timings not meaningful",
    )
    parser.add_argument(
        "--clients", type=int, default=64,
        help="concurrent closed-loop client threads",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="closed-loop requests (default: 30000, fast: 2000)",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_serve.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.fast:
        workload = make_workload(n_pois=2_000, n_passengers=50, days=2)
        n_requests = args.requests or 2_000
        n_clients = min(args.clients, 16)
        n_steady, n_burst = 1_000, 400
    else:
        workload = make_workload(n_pois=12_000, n_passengers=250, days=7)
        n_requests = args.requests or 30_000
        n_clients = args.clients
        n_steady, n_burst = 10_000, 4_000

    stays = [sp for st in workload.trajectories for sp in st.stay_points]
    print(
        f"workload: {len(workload.pois)} POIs, {len(stays)} stay points, "
        f"{n_clients} clients"
    )
    csd = workload.build_csd()
    rng = np.random.default_rng(20260808)
    picks = rng.integers(0, len(stays), size=n_requests)
    requests = [(stays[int(i)].lon, stays[int(i)].lat) for i in picks]

    # Sequential oracle for bit-identity (and the per-point floor).
    oracle_recognizer = CSDRecognizer(csd, workload.csd_config.r3sigma_m)
    t0 = time.perf_counter()
    expected = [
        oracle_recognizer.recognize_point(stays[int(i)]) for i in picks
    ]
    t_oracle = time.perf_counter() - t0
    print(f"sequential oracle: {t_oracle:.3f}s "
          f"({t_oracle / n_requests * 1e6:.0f}us/req)")

    # -- throughput: unbatched baseline ---------------------------------
    # What a thread-per-request server does: every handler thread runs
    # its own one-point kernel.  Same recognizer object, no batching,
    # no cache.
    base_results, t_unbatched = closed_loop(
        n_clients, requests,
        lambda lon, lat: oracle_recognizer.recognize_point(_mk_stay(lon, lat)),
    )
    unbatched_rps = n_requests / t_unbatched
    print(f"unbatched: {t_unbatched:.3f}s ({unbatched_rps:,.0f} req/s)")
    assert base_results == expected, "unbatched baseline diverged"

    # -- throughput: micro-batched service ------------------------------
    # Cache off so the comparison isolates batching itself.  In a
    # closed loop at most n_clients requests are ever outstanding, so
    # max_batch == n_clients never splits what is queued.
    config = ServeConfig(
        max_batch=n_clients,
        queue_limit=8_192,
        cache_size=0,
    )
    with RecognitionService(csd=csd, config=config) as service:
        batched_results, t_batched = closed_loop(
            n_clients, requests, service.recognize_one
        )
        batched_rps = n_requests / t_batched
        batch_stats = service.batcher.stats()
    speedup = t_unbatched / t_batched
    bit_identical = batched_results == expected
    print(
        f"batched:   {t_batched:.3f}s ({batched_rps:,.0f} req/s)  "
        f"speedup x{speedup:.1f}  mean batch "
        f"{batch_stats['mean_batch_size']:.1f}  identical={bit_identical}"
    )

    # -- throughput: cache on (repeat-heavy traffic) --------------------
    cache_config = ServeConfig(
        max_batch=n_clients, queue_limit=8_192, cache_size=65_536,
    )
    with RecognitionService(csd=csd, config=cache_config) as service:
        warm_results, _ = closed_loop(
            n_clients, requests, service.recognize_one
        )
        cached_results, t_cached = closed_loop(
            n_clients, requests, service.recognize_one
        )
        cache_stats = service.cache.stats()
    cached_rps = n_requests / t_cached
    cache_identical = (
        warm_results == expected and cached_results == expected
    )
    print(
        f"cached:    {t_cached:.3f}s ({cached_rps:,.0f} req/s)  "
        f"hits {cache_stats['hits']}  identical={cache_identical}"
    )

    # -- latency under Poisson + rush-hour arrivals ---------------------
    steady_rps = min(batched_rps * 0.4, 20_000.0)
    burst_rps = batched_rps * 2.0
    arrivals = arrival_schedule(rng, n_steady, steady_rps, n_burst, burst_rps)
    lat_requests = [
        (stays[int(i)].lon, stays[int(i)].lat)
        for i in rng.integers(0, len(stays), size=n_steady + n_burst)
    ]
    with RecognitionService(csd=csd, config=config) as service:
        latencies, n_rejected = open_loop(
            n_clients, lat_requests, arrivals, service.recognize_one
        )
    steady_lat = percentiles(latencies[:n_steady])
    overall_lat = percentiles(latencies)
    print(
        f"open-loop: steady {steady_rps:,.0f} req/s then burst "
        f"{burst_rps:,.0f} req/s — p50 {steady_lat['p50_ms']:.2f}ms "
        f"p99 {steady_lat['p99_ms']:.2f}ms (steady), "
        f"{n_rejected} shed in burst"
    )

    report = {
        "bench": "serve",
        "mode": "fast" if args.fast else "full",
        "workload": {
            "n_pois": len(workload.pois),
            "n_stays": len(stays),
            "n_units": csd.n_units,
        },
        "clients": n_clients,
        "requests": n_requests,
        "throughput": {
            "sequential_oracle_s": t_oracle,
            "unbatched_s": t_unbatched,
            "unbatched_rps": unbatched_rps,
            "batched_s": t_batched,
            "batched_rps": batched_rps,
            "speedup_batched_vs_unbatched": speedup,
            "cached_s": t_cached,
            "cached_rps": cached_rps,
            "mean_batch_size": batch_stats["mean_batch_size"],
            "batches_dispatched": batch_stats["batches_dispatched"],
        },
        "bit_identical": {
            "batched_vs_sequential": bit_identical,
            "cached_vs_sequential": cache_identical,
        },
        "cache": cache_stats,
        "latency_open_loop": {
            "steady_rps": steady_rps,
            "burst_rps": burst_rps,
            "n_steady": n_steady,
            "n_burst": n_burst,
            "steady": steady_lat,
            "overall": overall_lat,
            "rejected": n_rejected,
        },
    }
    write_report_json(args.out, report)
    print(f"wrote {args.out}")

    if not bit_identical or not cache_identical:
        raise SystemExit("FAIL: serving results diverged from the oracle")
    if not args.fast and speedup < 3.0:
        raise SystemExit(
            f"FAIL: batched speedup x{speedup:.2f} below the 3x bar"
        )
    return 0


def _mk_stay(lon, lat):
    from repro.data.trajectory import StayPoint

    return StayPoint(lon=lon, lat=lat, t=0.0)


if __name__ == "__main__":
    raise SystemExit(main())
