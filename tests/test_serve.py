"""Tests for repro.serve: batcher, cache, service, and the HTTP daemon.

The load-bearing property is **bit-identity**: any point answered
through the serving stack — micro-batched or cached — must
return exactly what a sequential ``CSDRecognizer.recognize_point`` call
on the same diagram returns.  Concurrency, backpressure, reload
invalidation, and the repeat-scrape ``/metrics`` contract are the other
pillars.
"""

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core.csd import UNASSIGNED, CitySemanticDiagram
from repro.core.recognition import CSDRecognizer
from repro.data.persistence import save_csd
from repro.data.trajectory import StayPoint
from repro.obs import MetricsRegistry
from repro.serve import (
    BatcherClosed,
    CellCache,
    MicroBatcher,
    RecognitionService,
    ServeConfig,
    ServerOverloaded,
    make_server,
)


@pytest.fixture()
def registry():
    """A fresh enabled registry installed as the process default."""
    reg = MetricsRegistry(enabled=True)
    old = obs.set_registry(reg)
    yield reg
    obs.set_registry(old)


@pytest.fixture(scope="module")
def stays(small_trajectories):
    pts = [sp for st in small_trajectories for sp in st.stay_points]
    assert len(pts) > 200
    return pts[:200]


def _sequential_oracle(csd, stays):
    recognizer = CSDRecognizer(csd)
    return [recognizer.recognize_point(sp) for sp in stays]


# ---------------------------------------------------------------------------
# MicroBatcher


class TestMicroBatcher:
    def test_single_submit_round_trips(self, small_csd):
        recognizer = CSDRecognizer(small_csd)
        with MicroBatcher(recognizer.recognize_points) as mb:
            sp = StayPoint(lon=small_csd.pois[0].lon,
                           lat=small_csd.pois[0].lat, t=0.0)
            assert mb.submit(sp) == recognizer.recognize_point(sp)

    @pytest.mark.parametrize("query_dtype", ["float64"])
    def test_concurrent_submits_bit_identical(
        self, small_csd, stays, query_dtype
    ):
        """64 threads hammering submit() must each get exactly the
        sequential answer for their point — batching is invisible."""
        recognizer = CSDRecognizer(small_csd, query_dtype=query_dtype)
        expected = _sequential_oracle(small_csd, stays)
        results = [None] * len(stays)
        errors = []
        with MicroBatcher(recognizer.recognize_points, max_batch=32) as mb:
            barrier = threading.Barrier(64)

            def worker(worker_id):
                try:
                    barrier.wait(timeout=30)
                    for i in range(worker_id, len(stays), 64):
                        results[i] = mb.submit(stays[i])
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(64)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert mb.batches_dispatched >= 1
            assert mb.points_dispatched == len(stays)
        assert not errors
        assert results == expected
        # Micro-batching actually coalesced: far fewer kernel calls
        # than points.
        assert mb.batches_dispatched < len(stays)

    def test_backpressure_sheds_with_503_semantics(self, registry):
        release = threading.Event()

        def slow_kernel(batch):
            release.wait(timeout=30)
            return [frozenset() for _ in batch]

        sp = StayPoint(lon=0.0, lat=0.0, t=0.0)
        mb = MicroBatcher(slow_kernel, max_batch=1, queue_limit=2)
        try:
            started = threading.Event()

            def occupant():
                started.set()
                mb.submit(sp)

            t = threading.Thread(target=occupant)
            t.start()
            started.wait(timeout=10)
            # Fill the queue behind the in-flight request, then overflow.
            def filler():
                try:
                    mb.submit(sp)
                except ServerOverloaded:
                    # Lost the race with the dispatch thread; the
                    # queue is full either way, which is the point.
                    pass

            fillers = []
            for _ in range(2):
                ft = threading.Thread(target=filler)
                ft.start()
                fillers.append(ft)
            deadline_misses = 0
            for _ in range(200):
                if mb.stats()["queue_depth"] >= 2:
                    break
                deadline_misses += 1
                threading.Event().wait(0.01)
            with pytest.raises(ServerOverloaded):
                mb.submit(sp)
            assert registry.counter("serve.rejected").value >= 1
            release.set()
            t.join(timeout=10)
            for ft in fillers:
                ft.join(timeout=10)
        finally:
            release.set()
            mb.close()

    def test_batch_wait_counts_time_queued_behind_kernel(self, registry):
        """``serve.batch_wait_s`` is each request's submit -> kernel
        start, so a request stuck behind a slow kernel call records the
        time it was blocked."""
        entered = threading.Event()
        release = threading.Event()

        def slow_kernel(batch):
            entered.set()
            release.wait(timeout=30)
            return [frozenset() for _ in batch]

        sp = StayPoint(lon=0.0, lat=0.0, t=0.0)
        blocked_s = 0.2
        with MicroBatcher(slow_kernel, max_batch=1) as mb:
            first = threading.Thread(target=mb.submit, args=(sp,))
            first.start()
            assert entered.wait(timeout=10)
            second = threading.Thread(target=mb.submit, args=(sp,))
            second.start()
            for _ in range(1000):
                if mb.stats()["queue_depth"] >= 1:
                    break
                time.sleep(0.005)
            time.sleep(blocked_s)
            release.set()
            first.join(timeout=10)
            second.join(timeout=10)
        wait = registry.histogram("serve.batch_wait_s").to_dict()
        assert wait["count"] == 2  # once per request, not per batch
        assert wait["max"] >= blocked_s

    def test_kernel_error_reaches_every_waiter(self, small_csd):
        def broken(batch):
            raise RuntimeError("kernel exploded")

        sp = StayPoint(lon=0.0, lat=0.0, t=0.0)
        with MicroBatcher(broken) as mb:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                mb.submit(sp)
            # The dispatch thread survived the error.
            with pytest.raises(RuntimeError, match="kernel exploded"):
                mb.submit(sp)

    def test_submit_after_close_raises(self):
        mb = MicroBatcher(lambda b: [frozenset() for _ in b])
        mb.close()
        with pytest.raises(BatcherClosed):
            mb.submit(StayPoint(lon=0.0, lat=0.0, t=0.0))

    def test_close_joins_dispatch_thread(self):
        mb = MicroBatcher(lambda b: [frozenset() for _ in b])
        name = mb._thread.name
        mb.close()
        assert not mb._thread.is_alive()
        assert name not in [t.name for t in threading.enumerate()]

    def test_validates_parameters(self):
        kernel = lambda b: []  # noqa: E731
        with pytest.raises(ValueError):
            MicroBatcher(kernel, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(kernel, queue_limit=0)


# ---------------------------------------------------------------------------
# CellCache


class TestCellCache:
    def test_exact_coordinates_key_the_cache(self, small_csd):
        cache = CellCache(max_entries=16)
        poi = small_csd.pois[0]
        k1 = (poi.lon, poi.lat)
        # A nearby-but-different point must not hit.
        k2 = (poi.lon + 1e-7, poi.lat)
        cache.put(k1, frozenset({"A"}))
        assert cache.get(k1) == frozenset({"A"})
        assert cache.get(k2) is None

    def test_lru_eviction(self):
        cache = CellCache(max_entries=2)
        keys = [(121.0 + i * 0.01, 31.0) for i in range(3)]
        cache.put(keys[0], frozenset({"a"}))
        cache.put(keys[1], frozenset({"b"}))
        cache.get(keys[0])  # refresh 0 → 1 becomes LRU
        cache.put(keys[2], frozenset({"c"}))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None
        assert len(cache) == 2

    def test_equal_answers_share_one_object(self):
        cache = CellCache(max_entries=8)
        k1 = (121.0, 31.0)
        k2 = (121.01, 31.0)
        cache.put(k1, frozenset({"a", "b"}))
        cache.put(k2, frozenset({"b", "a"}))
        assert cache.get(k1) is cache.get(k2)

    def test_zero_entries_disables(self):
        cache = CellCache(max_entries=0)
        key = (121.0, 31.0)
        cache.put(key, frozenset({"a"}))
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_clear_drops_everything(self):
        cache = CellCache(max_entries=8)
        key = (121.0, 31.0)
        cache.put(key, frozenset({"a"}))
        cache.clear()
        assert cache.get(key) is None


# ---------------------------------------------------------------------------
# RecognitionService


class TestRecognitionService:
    @pytest.mark.parametrize("query_dtype", ["float64"])
    @pytest.mark.parametrize("cache_size", [0, 65536])
    def test_recognize_one_bit_identical(
        self, small_csd, stays, query_dtype, cache_size
    ):
        """The full service path, with and without the cache, equals
        the sequential oracle."""
        expected = _sequential_oracle(small_csd, stays)
        config = ServeConfig(query_dtype=query_dtype, cache_size=cache_size)
        with RecognitionService(csd=small_csd, config=config) as service:
            got = [service.recognize_one(sp.lon, sp.lat) for sp in stays]
            # Second pass: with the cache on this is all hits; either
            # way the answers must not change.
            again = [service.recognize_one(sp.lon, sp.lat) for sp in stays]
        assert got == expected
        assert again == expected

    def test_query_dtype_float32_refused(self, small_csd):
        """Votes are float64 only: both entry points that take a
        ``query_dtype`` refuse any other value instead of ignoring it."""
        with pytest.raises(ValueError, match="query_dtype"):
            CSDRecognizer(small_csd, query_dtype="float32")
        with pytest.raises(ValueError, match="query_dtype"):
            RecognitionService(
                csd=small_csd, config=ServeConfig(query_dtype="float32")
            )

    def test_concurrent_service_calls_bit_identical(self, small_csd, stays):
        expected = _sequential_oracle(small_csd, stays)
        results = [None] * len(stays)
        with RecognitionService(csd=small_csd) as service:
            def worker(worker_id):
                for i in range(worker_id, len(stays), 16):
                    results[i] = service.recognize_one(
                        stays[i].lon, stays[i].lat
                    )

            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert results == expected

    def test_cache_hits_skip_the_queue(self, small_csd, stays, registry):
        with RecognitionService(csd=small_csd) as service:
            sp = stays[0]
            service.recognize_one(sp.lon, sp.lat)
            before = service.batcher.points_dispatched
            service.recognize_one(sp.lon, sp.lat)
            assert service.batcher.points_dispatched == before
            assert registry.counter("serve.cache.hits").value >= 1

    def test_recognize_many_matches_oracle(self, small_csd, stays):
        expected = _sequential_oracle(small_csd, stays)
        with RecognitionService(csd=small_csd) as service:
            got = service.recognize_many([(sp.lon, sp.lat) for sp in stays])
        assert got == expected

    def test_range_and_unit_queries(self, small_csd):
        with RecognitionService(csd=small_csd) as service:
            poi = small_csd.pois[0]
            hits = service.range_query(poi.lon, poi.lat, 150.0)
            assert any(h["poi_id"] == poi.poi_id for h in hits)
            info = service.unit_info(0)
            assert info["unit_id"] == 0 and info["n_pois"] > 0
            with pytest.raises(KeyError):
                service.unit_info(10**9)
            with pytest.raises(ValueError):
                service.range_query(poi.lon, poi.lat, -5.0)
            tag = small_csd.unit(0).dominant_tag()
            units = service.units_with_tag(tag)
            assert any(u["unit_id"] == 0 for u in units)
            shares = [u["share"] for u in units]
            assert shares == sorted(shares, reverse=True)

    def test_reload_invalidates_cache(self, small_csd, stays, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        with RecognitionService(csd_path=path) as service:
            sp = stays[0]
            expected = service.recognize_one(sp.lon, sp.lat)
            assert len(service.cache) == 1
            old_recognizer = service.recognizer
            out = service.reload()
            assert out["reloaded"] is True
            assert len(service.cache) == 0
            assert service.recognizer is not old_recognizer
            # Same artifact → same answers after the swap.
            assert service.recognize_one(sp.lon, sp.lat) == expected

    def test_reload_during_cache_fill_leaves_no_stale_entry(
        self, small_csd, stays, tmp_path
    ):
        """A reload landing between a result's recognizer check and its
        cache fill must not leave that (now stale) result cached."""
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        # Same POIs, no semantic units: recognises nothing.
        blank = CitySemanticDiagram(
            small_csd.pois,
            small_csd.projection,
            small_csd.poi_xy,
            small_csd.popularity,
            [],
            np.full(small_csd.n_pois, UNASSIGNED, dtype=np.int64),
        )
        with RecognitionService(csd_path=path) as service:
            sp = next(s for s in stays if service.recognizer.recognize_point(s))
            save_csd(path, blank)
            reloader = threading.Thread(target=service.reload)
            real_put = service.cache.put

            def put_after_reload(key, prop):
                reloader.start()
                # Unfixed, the reload completes here; fixed, it waits
                # for the fill's lock and clears the cache after it.
                reloader.join(timeout=2.0)
                real_put(key, prop)

            service.cache.put = put_after_reload
            stale = service.recognize_one(sp.lon, sp.lat)
            reloader.join(timeout=30)
            assert not reloader.is_alive()
            service.cache.put = real_put
            assert stale
            assert service.reloads == 1
            assert len(service.cache) == 0
            fresh = CSDRecognizer(blank).recognize_point(sp)
            assert fresh == frozenset()
            assert service.recognize_one(sp.lon, sp.lat) == fresh

    def test_reload_requires_path(self, small_csd):
        with RecognitionService(csd=small_csd) as service:
            with pytest.raises(ValueError, match="csd_path"):
                service.reload()

    def test_requires_exactly_one_source(self, small_csd, tmp_path):
        with pytest.raises(ValueError):
            RecognitionService()
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        with pytest.raises(ValueError):
            RecognitionService(csd=small_csd, csd_path=path)


# ---------------------------------------------------------------------------
# HTTP daemon


@pytest.fixture()
def http_server(small_csd):
    """A live daemon on an ephemeral port; yields its base URL."""
    service = RecognitionService(csd=small_csd)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        leaked = [
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-serve")
        ]
        assert not leaked, f"threads alive after shutdown: {leaked}"


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as r:
        return r.status, json.loads(r.read())


def _post(base, path, doc):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, json.loads(r.read())


class TestHTTPEndpoints:
    def test_healthz(self, http_server, small_csd):
        base, _ = http_server
        status, doc = _get(base, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["n_pois"] == small_csd.n_pois

    def test_recognize_matches_oracle(self, http_server, small_csd, stays):
        base, _ = http_server
        recognizer = CSDRecognizer(small_csd)
        for sp in stays[:20]:
            status, doc = _post(
                base, "/v1/recognize", {"lon": sp.lon, "lat": sp.lat}
            )
            assert status == 200
            expected = recognizer.recognize_point(sp)
            assert doc["semantics"] == sorted(expected)
            assert doc["recognized"] == (len(expected) > 0)

    def test_batch_endpoint(self, http_server, small_csd, stays):
        base, _ = http_server
        points = [[sp.lon, sp.lat] for sp in stays[:50]]
        status, doc = _post(base, "/v1/recognize/batch", {"points": points})
        assert status == 200
        expected = _sequential_oracle(small_csd, stays[:50])
        assert [r["semantics"] for r in doc["results"]] == [
            sorted(e) for e in expected
        ]

    def test_range_units_tags(self, http_server, small_csd):
        base, _ = http_server
        poi = small_csd.pois[0]
        status, doc = _post(
            base, "/v1/range",
            {"lon": poi.lon, "lat": poi.lat, "radius_m": 150.0},
        )
        assert status == 200 and doc["count"] == len(doc["pois"]) > 0
        status, doc = _get(base, "/v1/units/0")
        assert status == 200 and doc["unit_id"] == 0
        tag = small_csd.unit(0).dominant_tag()
        status, doc = _get(base, "/v1/tags/" + urllib.request.quote(tag))
        assert status == 200 and len(doc["units"]) > 0

    def test_multi_word_tag_is_percent_decoded(self, http_server, small_csd):
        """A tag with a space or ``&`` reaches the service decoded: the
        daemon answers with the same units as the in-process call."""
        base, service = http_server
        tag = next(
            tag
            for unit in small_csd.units
            for tag in sorted(unit.semantic_distribution)
            if " " in tag or "&" in tag
        )
        expected = service.units_with_tag(tag)
        assert expected
        status, doc = _get(
            base, "/v1/tags/" + urllib.parse.quote(tag, safe="")
        )
        assert status == 200
        assert doc["tag"] == tag
        assert doc["units"] == expected

    def test_metrics_scrape_does_not_reset(self, http_server, registry):
        """Two scrapes straddling traffic: counters must only grow."""
        base, _ = http_server
        _get(base, "/healthz")
        _, first = _get(base, "/metrics")
        _get(base, "/healthz")
        _, second = _get(base, "/metrics")
        assert second["counters"]["serve.requests"] > \
            first["counters"]["serve.requests"] > 0

    def test_error_statuses(self, http_server):
        base, _ = http_server
        cases = [
            ("GET", "/nope", None, 404),
            ("GET", "/v1/units/99999999", None, 404),
            ("GET", "/v1/units/abc", None, 400),
            ("POST", "/v1/recognize", {"lon": "x", "lat": 0}, 400),
            ("POST", "/v1/recognize", None, 400),
            ("POST", "/v1/range", {"lon": 0, "lat": 0, "radius_m": -1}, 400),
            ("POST", "/v1/recognize/batch", {"points": [[1]]}, 400),
            ("GET", "/v1/tags/Residence?min_share=nan", None, 400),
            ("GET", "/v1/tags/Residence?min_share=inf", None, 400),
        ]
        for method, path, body, want in cases:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                if method == "GET":
                    _get(base, path)
                elif body is None:
                    req = urllib.request.Request(
                        base + path, data=b"", method="POST"
                    )
                    urllib.request.urlopen(req, timeout=30)
                else:
                    _post(base, path, body)
            assert exc_info.value.code == want, (method, path)

    def test_reload_endpoint(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        service = RecognitionService(csd_path=path)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, doc = _post(base, "/admin/reload", {})
            assert status == 200 and doc["reloaded"] is True
            assert service.reloads == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_concurrent_http_bit_identity(self, http_server, small_csd, stays):
        """Mixed concurrent HTTP traffic stays bit-identical."""
        base, _ = http_server
        subset = stays[:60]
        expected = _sequential_oracle(small_csd, subset)
        results = [None] * len(subset)
        errors = []

        def worker(worker_id):
            try:
                for i in range(worker_id, len(subset), 12):
                    _, doc = _post(
                        base, "/v1/recognize",
                        {"lon": subset[i].lon, "lat": subset[i].lat},
                    )
                    results[i] = doc["semantics"]
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results == [sorted(e) for e in expected]


def _port(base):
    return int(base.rsplit(":", 1)[1])


def _recognize_body(sp):
    return json.dumps({"lon": sp.lon, "lat": sp.lat}).encode("utf-8")


class TestHTTPTransport:
    def test_keepalive_requests_do_not_stall(self, http_server, stays):
        """Sequential requests on one keep-alive connection must not
        wait out the client's delayed ACK (~40 ms each): the response
        leaves in one send, so Nagle has nothing to hold back."""
        base, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=30)
        try:
            t0 = time.perf_counter()
            for sp in stays[:20]:
                conn.request(
                    "POST", "/v1/recognize", body=_recognize_body(sp),
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                json.loads(resp.read())
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400(self, http_server, registry, length):
        base, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=5)
        try:
            conn.putrequest("POST", "/v1/recognize")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert "Content-Length" in body["error"]
        # The body's extent is unknown: the daemon drops the connection.
        assert resp.getheader("Connection") == "close"
        assert registry.counter("serve.errors").value == 0

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/recognize", '{"lon": NaN, "lat": 31.2}'),
            ("/v1/recognize", '{"lon": Infinity, "lat": 31.2}'),
            ("/v1/recognize", '{"lon": 121.4, "lat": 1e999}'),
            ("/v1/recognize/batch", '{"points": [[NaN, 31.2]]}'),
            ("/v1/recognize/batch", '{"points": [[121.4, -Infinity]]}'),
            ("/v1/range", '{"lon": 121.4, "lat": 31.2, "radius_m": NaN}'),
            ("/v1/range", '{"lon": 121.4, "lat": 31.2, "radius_m": Infinity}'),
            ("/v1/range", '{"lon": NaN, "lat": 31.2, "radius_m": 100}'),
            pytest.param(
                "/v1/recognize",
                '{"lon": %s, "lat": 31.2}' % ("9" * 400),
                id="recognize-400-digit-int",
            ),
            pytest.param(
                "/v1/recognize",
                '{"lon": %s, "lat": 31.2}' % ("9" * 5000),
                id="recognize-5000-digit-int",
            ),
            pytest.param(
                "/v1/recognize/batch",
                '{"points": [[%s, 31.2]]}' % ("9" * 400),
                id="batch-400-digit-int",
            ),
            pytest.param(
                "/v1/range",
                '{"lon": 121.4, "lat": 31.2, "radius_m": %s}' % ("9" * 400),
                id="range-400-digit-int",
            ),
        ],
    )
    def test_non_finite_number_is_400(self, http_server, registry, path, body):
        """Python's JSON parser accepts NaN/Infinity, overflows 1e999
        to inf and parses integers of any length; the daemon rejects
        all of them as bad input."""
        base, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=5)
        try:
            conn.request(
                "POST", path, body=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400, doc
        assert "finite" in doc["error"]
        assert registry.counter("serve.errors").value == 0

    def test_client_reset_is_quiet(self, http_server, registry, stays, capsys):
        """A client that sends a request and hangs up with RST gets no
        traceback logged and no ``serve.errors`` count, and the daemon
        keeps answering."""
        base, _ = http_server
        before = set(threading.enumerate())
        for sp in stays[:5]:
            body = _recognize_body(sp)
            sock = socket.create_connection(("127.0.0.1", _port(base)), timeout=10)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.sendall(
                b"POST /v1/recognize HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            sock.close()
        status, doc = _post(
            base, "/v1/recognize", {"lon": stays[5].lon, "lat": stays[5].lat}
        )
        assert status == 200 and "semantics" in doc
        # Let every handler thread of the reset connections finish.
        deadline = time.monotonic() + 10
        while any(
            t.is_alive() and "process_request" in t.name
            for t in set(threading.enumerate()) - before
        ):
            assert time.monotonic() < deadline, "handler thread hung"
            time.sleep(0.01)
        assert capsys.readouterr().err == ""
        assert registry.counter("serve.errors").value == 0


class TestServeCLI:
    def test_parser_wires_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--csd", "x.json"])
        assert args.func.__name__ == "cmd_serve"
        assert args.max_batch == 64
        assert args.queue_limit == 1024
        assert not hasattr(args, "query_dtype")
        # Batching is self-clocking: there is no follower-wait knob.
        assert not hasattr(args, "max_wait_ms")
