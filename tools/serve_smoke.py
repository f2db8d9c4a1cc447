"""CI smoke test: boot the serve daemon, hammer it, verify, shut down.

End-to-end over a real socket (unlike ``benchmarks/bench_serve.py``,
which drives the service layer directly):

1. simulate a tiny city, build a CSD, and persist it with
   ``save_csd`` (the artifact ``repro serve --csd`` would load);
2. start the HTTP daemon on an ephemeral port via the same code path
   as the CLI (``RecognitionService(csd_path=...)`` + ``make_server``);
3. fire a concurrent burst of mixed requests — single recognitions,
   client batches, range/unit/tag queries, health checks — and assert
   every response is 200 with single-point answers **bit-identical**
   to sequential ``CSDRecognizer.recognize_point``;
4. scrape ``/metrics`` twice and assert the second scrape did not
   reset the first (the repeat-scrape contract), then write the final
   snapshot to ``<out>/serve_metrics.json`` for CI to upload;
5. shut the daemon down and assert no handler/batcher threads leak.

Exit code 0 means the serving contracts hold.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py --out /tmp/serve_smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request
from pathlib import Path
from typing import List, Tuple

from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.core.recognition import CSDRecognizer
from repro.data.city import CityModel
from repro.data.persistence import save_csd
from repro.data.poi import POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator
from repro.serve import RecognitionService, make_server

N_CLIENTS = 8
ROUNDS_PER_CLIENT = 5


def _get(base: str, path: str) -> Tuple[int, dict]:
    with urllib.request.urlopen(base + path, timeout=30) as r:
        return r.status, json.loads(r.read())


def _post(base: str, path: str, doc: dict) -> Tuple[int, dict]:
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, json.loads(r.read())


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path("/tmp/serve_smoke"),
        help="work directory (CSD artifact + metrics snapshot)",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    # 1. Tiny workload -> persisted CSD artifact.
    city = CityModel.generate(extent_m=2_500.0, seed=7)
    pois = POIGenerator(city, seed=11).generate(600)
    taxi = ShanghaiTaxiSimulator(city, seed=23).simulate(
        n_passengers=30, days=2
    )
    stays = [
        sp for st in taxi.mining_trajectories() for sp in st.stay_points
    ]
    csd = build_csd(pois, stays, CSDConfig(), city.projection)
    csd_path = args.out / "csd.json"
    save_csd(csd_path, csd)
    print(f"built CSD: {csd.n_pois} POIs, {csd.n_units} units -> {csd_path}")

    # Sequential oracle for the bit-identity assertion.
    oracle = CSDRecognizer(csd)
    probe = stays[: N_CLIENTS * ROUNDS_PER_CLIENT]
    expected = [sorted(oracle.recognize_point(sp)) for sp in probe]

    # 2. Boot the daemon exactly as `repro serve --csd` does.
    from repro import obs

    obs.enable()
    service = RecognitionService(csd_path=csd_path)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"daemon up at {base}")

    failures: List[str] = []
    try:
        # 3. Concurrent mixed-request burst.
        results: List[List[str]] = [[] for _ in probe]

        def client(worker_id: int) -> None:
            try:
                for round_no in range(ROUNDS_PER_CLIENT):
                    i = worker_id * ROUNDS_PER_CLIENT + round_no
                    sp = probe[i]
                    status, doc = _post(
                        base, "/v1/recognize",
                        {"lon": sp.lon, "lat": sp.lat},
                    )
                    if status != 200:
                        raise RuntimeError(f"recognize -> {status}")
                    results[i] = doc["semantics"]
                    status, _ = _get(base, "/healthz")
                    if status != 200:
                        raise RuntimeError(f"healthz -> {status}")
                    status, doc = _post(
                        base, "/v1/recognize/batch",
                        {"points": [[sp.lon, sp.lat]]},
                    )
                    if status != 200:
                        raise RuntimeError(f"batch -> {status}")
                    if doc["results"][0]["semantics"] != results[i]:
                        raise RuntimeError("batch disagrees with single")
                    status, _ = _post(
                        base, "/v1/range",
                        {"lon": sp.lon, "lat": sp.lat, "radius_m": 200.0},
                    )
                    if status != 200:
                        raise RuntimeError(f"range -> {status}")
                    status, _ = _get(base, "/v1/units/0")
                    if status != 200:
                        raise RuntimeError(f"units -> {status}")
            except Exception as exc:  # noqa: BLE001 -- collected below
                failures.append(f"client {worker_id}: {exc}")

        threads = [
            threading.Thread(target=client, args=(w,))
            for w in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        if failures:
            print("FAIL: " + "; ".join(failures), file=sys.stderr)
            return 1
        if results != expected:
            print("FAIL: served answers diverge from the sequential "
                  "oracle", file=sys.stderr)
            return 1
        print(f"burst ok: {len(probe)} single-point answers bit-identical "
              f"to recognize_point across {N_CLIENTS} clients")

        # 4. /metrics repeat-scrape contract + artifact.
        _, first = _get(base, "/metrics")
        _, second = _get(base, "/metrics")
        if not (
            second["counters"]["serve.requests"]
            >= first["counters"]["serve.requests"]
            > 0
        ):
            print("FAIL: /metrics scrape reset the counters",
                  file=sys.stderr)
            return 1
        metrics_path = args.out / "serve_metrics.json"
        metrics_path.write_text(json.dumps(second, indent=2) + "\n")
        print(f"metrics snapshot -> {metrics_path} "
              f"({second['counters']['serve.requests']:.0f} requests, "
              f"{second['counters'].get('serve.batches', 0):.0f} batches)")
    finally:
        # 5. Clean shutdown.
        server.shutdown()
        server.server_close()
        service.close()
        obs.disable()
        obs.get_registry().reset()
    thread.join(timeout=10)
    leftovers = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("repro-serve")
    ]
    if thread.is_alive() or leftovers:
        print(f"FAIL: threads leaked after shutdown: {leftovers}",
              file=sys.stderr)
        return 1
    print("clean shutdown, no leaked threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
