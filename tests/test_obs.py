"""Tests for the repro.obs observability layer.

Unit coverage of the metric primitives (Counter/Gauge/Histogram/Timer/
Span, registry lifecycle, JSON snapshot) plus the acceptance-level
integration test: one ``PervasiveMiner.mine`` run must leave a snapshot
with all three pipeline stage keys and non-zero counters for each
stage.
"""

import json

import pytest

from repro import obs
from repro.core.config import MiningConfig
from repro.core.miner import PervasiveMiner
from repro.obs import MetricsRegistry


@pytest.fixture()
def registry():
    """A fresh enabled registry installed as the process default."""
    reg = MetricsRegistry(enabled=True)
    old = obs.set_registry(reg)
    yield reg
    obs.set_registry(old)


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_object(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_rejects_negative_increment(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_noop_when_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("x").inc(100)
        assert reg.counter("x").value == 0


class TestGauge:
    def test_set_overwrites(self, registry):
        g = registry.gauge("pending")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5

    def test_noop_when_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.gauge("pending").set(9.0)
        assert reg.gauge("pending").value == 0.0


class TestHistogram:
    def test_observations_land_in_buckets(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(100.0)
        d = h.to_dict()
        assert d["count"] == 3
        assert d["buckets"] == {"0.1": 1, "1.0": 1, "+inf": 1}
        assert d["min"] == 0.05 and d["max"] == 100.0

    def test_buckets_must_ascend(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 1.0))

    def test_noop_when_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.histogram("lat").observe(1.0)
        assert reg.histogram("lat").count == 0


class TestTimerAndSpan:
    def test_timer_records_aggregate(self, registry):
        for _ in range(3):
            with registry.timer("stage"):
                pass
        snap = registry.snapshot()
        t = snap["timers"]["stage"]
        assert t["count"] == 3
        assert t["total_s"] >= t["max_s"] >= t["min_s"] >= 0.0

    def test_timer_exposes_elapsed(self, registry):
        with registry.timer("stage") as t:
            pass
        assert t.elapsed >= 0.0

    def test_disabled_timer_is_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        a = reg.timer("x")
        b = reg.timer("y")
        assert a is b  # one shared no-op object, zero allocation
        with a as t:
            pass
        assert t.elapsed == 0.0
        assert reg.snapshot()["timers"] == {}

    def test_span_nesting_builds_dotted_names(self, registry):
        with registry.span("pipeline"):
            with registry.span("constructor"):
                pass
            with registry.span("recognition"):
                pass
        timers = registry.snapshot()["timers"]
        assert "pipeline" in timers
        assert "pipeline.constructor" in timers
        assert "pipeline.recognition" in timers

    def test_span_stack_unwinds_after_exit(self, registry):
        with registry.span("outer"):
            pass
        with registry.span("second"):
            pass
        timers = registry.snapshot()["timers"]
        assert "second" in timers and "outer.second" not in timers


class TestRegistryLifecycle:
    def test_reset_clears_values_keeps_enabled(self, registry):
        registry.counter("c").inc(5)
        registry.gauge("g").set(2.0)
        with registry.timer("t"):
            pass
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {"g": 0.0}
        assert snap["timers"] == {}
        assert registry.enabled

    def test_module_level_enable_disable(self):
        reg = MetricsRegistry()
        old = obs.set_registry(reg)
        try:
            obs.enable()
            obs.get_registry().counter("hits").inc()
            obs.disable()
            obs.get_registry().counter("hits").inc()  # no-op now
            assert obs.report()["counters"] == {"hits": 1}
        finally:
            obs.set_registry(old)

    def test_snapshot_is_json_serialisable(self, registry):
        registry.counter("c").inc()
        registry.histogram("h").observe(0.2)
        with registry.timer("t"):
            pass
        payload = json.loads(registry.to_json())
        assert payload["enabled"] is True
        assert payload["counters"]["c"] == 1
        assert "t" in payload["timers"]
        assert payload["histograms"]["h"]["count"] == 1


class TestPipelineIntegration:
    """Acceptance: all three Pervasive Miner stages emit metrics."""

    @pytest.fixture(scope="class")
    def mined_snapshot(self):
        from repro.eval.experiments import make_workload

        reg = MetricsRegistry(enabled=True)
        old = obs.set_registry(reg)
        try:
            workload = make_workload(
                n_pois=800, n_passengers=30, days=2, extent_m=2_500.0
            )
            miner = PervasiveMiner(
                workload.csd_config, MiningConfig(support=5, rho=0.0)
            )
            miner.mine(workload.pois, workload.trajectories)
            return reg.snapshot()
        finally:
            obs.set_registry(old)

    def test_stage_spans_present(self, mined_snapshot):
        timers = mined_snapshot["timers"]
        for stage in (
            "pipeline",
            "pipeline.constructor",
            "pipeline.recognition",
            "pipeline.extraction",
        ):
            assert stage in timers, f"missing stage span {stage}"
            assert timers[stage]["count"] >= 1

    def test_constructor_metrics_nonzero(self, mined_snapshot):
        counters = mined_snapshot["counters"]
        timers = mined_snapshot["timers"]
        assert counters["constructor.pois.total"] > 0
        assert counters["constructor.units.final"] > 0
        assert counters["constructor.pois.merged"] > 0
        for name in (
            "constructor.popularity",
            "constructor.clustering",
            "constructor.purification",
            "constructor.merging",
        ):
            assert timers[name]["total_s"] >= 0.0

    def test_recognition_metrics_nonzero(self, mined_snapshot):
        counters = mined_snapshot["counters"]
        assert counters["recognition.batches"] >= 1
        assert counters["recognition.stays.recognized"] > 0
        assert counters["recognition.votes.cast"] > 0
        hist = mined_snapshot["histograms"]["recognition.batch_latency_s"]
        assert hist["count"] == counters["recognition.batches"]
        assert (
            mined_snapshot["histograms"]["recognition.batch_size"]["count"]
            >= 1
        )

    def test_extraction_metrics_nonzero(self, mined_snapshot):
        counters = mined_snapshot["counters"]
        assert counters["prefixspan.sequences.mined"] > 0
        assert counters["prefixspan.patterns.emitted"] > 0
        assert counters["prefixspan.nodes.expanded"] > 0
        assert counters["extraction.patterns.coarse"] > 0
        assert "extraction.prefixspan" in mined_snapshot["timers"]
        assert "extraction.refinement" in mined_snapshot["timers"]

    def test_grid_index_metrics_nonzero(self, mined_snapshot):
        counters = mined_snapshot["counters"]
        assert counters["geo.index.queries"] > 0
        assert counters["geo.index.centers"] > 0
        # Selectivity is well-defined: every hit was first a candidate.
        assert (
            counters["geo.index.candidates"] >= counters["geo.index.hits"]
        )

    def test_every_emitted_name_is_registered(self, mined_snapshot):
        """Snapshot names are a subset of the repro.obs.names registry.

        The inverse direction (call sites use registered literals) is
        enforced statically by reprolint rule RPL008; together the two
        checks pin the registry to reality from both sides.
        """
        from repro.obs import names

        assert set(mined_snapshot["counters"]) <= names.COUNTERS
        assert set(mined_snapshot["gauges"]) <= names.GAUGES
        assert set(mined_snapshot["histograms"]) <= names.HISTOGRAMS
        # Timer snapshots mix plain timers with dotted span names.
        assert set(mined_snapshot["timers"]) <= names.TIMERS | names.SPAN_NAMES

    def test_disabled_registry_records_nothing(self, small_csd):
        from repro.core.recognition import CSDRecognizer
        from repro.data.trajectory import StayPoint

        reg = MetricsRegistry(enabled=False)
        old = obs.set_registry(reg)
        try:
            CSDRecognizer(small_csd, 100.0).recognize_point(
                StayPoint(121.47, 31.23, 0.0)
            )
            snap = reg.snapshot()
        finally:
            obs.set_registry(old)
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert snap["histograms"] == {}


class TestNamesRegistry:
    """The central metric-name registry (repro.obs.names)."""

    def test_kinds_are_disjoint(self):
        from repro.obs import names

        kinds = [names.COUNTERS, names.GAUGES, names.HISTOGRAMS, names.TIMERS]
        for i, a in enumerate(kinds):
            for b in kinds[i + 1 :]:
                assert not (a & b)

    def test_unions_compose(self):
        from repro.obs import names

        assert names.METRIC_NAMES == (
            names.COUNTERS | names.GAUGES | names.HISTOGRAMS | names.TIMERS
        )
        assert names.DOCUMENTED_NAMES == names.METRIC_NAMES | names.SPAN_NAMES


class TestThreadSafety:
    """Concurrent mutation hammer: totals must be exact, not racy.

    Unsynchronised ``+=`` on counters/histograms loses increments under
    contention; the registry's locks make every operation atomic, and a
    serving daemon mutates these from many handler threads at once.
    """

    def test_counter_hammer_exact_total(self, registry):
        import threading

        c = registry.counter("x")
        n_threads, per_thread = 16, 5_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait(timeout=30)
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert c.value == n_threads * per_thread

    def test_histogram_hammer_exact_count(self, registry):
        import threading

        h = registry.histogram("lat", buckets=(0.5,))
        n_threads, per_thread = 16, 5_000
        barrier = threading.Barrier(n_threads)

        def worker(value):
            barrier.wait(timeout=30)
            for _ in range(per_thread):
                h.observe(value)

        threads = [
            threading.Thread(target=worker, args=(0.1 if i % 2 else 0.9,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        d = h.to_dict()
        assert d["count"] == n_threads * per_thread
        assert d["buckets"]["0.5"] == n_threads * per_thread // 2

    def test_mixed_hammer_with_snapshots(self, registry):
        """Snapshots taken mid-hammer must never crash or observe torn
        state (count present but total missing, etc.)."""
        import threading

        stop = threading.Event()
        snaps = []

        def mutator():
            while not stop.is_set():
                registry.counter("c").inc()
                registry.gauge("g").set(1.0)
                registry.histogram("h").observe(0.01)

        def scraper():
            while not stop.is_set():
                snap = registry.snapshot()
                snaps.append(snap)

        threads = [threading.Thread(target=mutator) for _ in range(4)]
        threads.append(threading.Thread(target=scraper))
        for t in threads:
            t.start()
        import time as _time  # test-only; RPL006 governs src/repro

        _time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert snaps
        for snap in snaps:
            for hist in snap["histograms"].values():
                assert set(hist) >= {"count", "total", "buckets"}


class TestResetIdentity:
    """``reset()`` must zero in place, never orphan cached handles.

    A long-lived process (the serve daemon) caches metric objects;
    the old reset cleared the histogram dict, so cached handles kept
    recording into objects no snapshot would ever see again.
    """

    def test_cached_histogram_survives_reset(self, registry):
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        registry.reset()
        assert h.to_dict()["count"] == 0
        # The cached handle still feeds snapshots after reset.
        h.observe(0.7)
        assert registry.snapshot()["histograms"]["lat"]["count"] == 1
        assert registry.histogram("lat") is h

    def test_cached_counter_and_gauge_survive_reset(self, registry):
        c = registry.counter("c")
        g = registry.gauge("g")
        c.inc(5)
        g.set(3.0)
        registry.reset()
        assert c.value == 0 and g.value == 0.0
        c.inc()
        g.set(2.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 1
        assert snap["gauges"]["g"] == 2.0

    def test_reset_preserves_histogram_buckets(self, registry):
        h = registry.histogram("lat", buckets=(0.25, 4.0))
        h.observe(1.0)
        registry.reset()
        d = h.to_dict()
        assert d["count"] == 0
        assert set(d["buckets"]) == {"0.25", "4.0", "+inf"}
