"""Component micro-benchmarks (not tied to a paper figure).

Throughput of the substrates the pipeline is built on: spatial index,
clustering algorithms, PrefixSpan, popularity, recognition.  These are
the ablation-style numbers a downstream user needs to size a workload.
"""

import numpy as np
import pytest

from repro.cluster.dbscan import dbscan
from repro.cluster.meanshift import mean_shift
from repro.cluster.optics import optics_auto_clusters
from repro.core.popularity import compute_popularity
from repro.core.recognition import CSDRecognizer
from repro.geo.index import GridIndex
from repro.mining.prefixspan import prefixspan


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(0)
    centers = rng.uniform(-3000, 3000, (30, 2))
    return np.vstack([c + rng.normal(0, 25, (100, 2)) for c in centers])


def test_grid_index_range_queries(benchmark, cloud):
    index = GridIndex(cloud, cell_size=100.0)

    def run():
        total = 0
        for x, y in cloud[:500]:
            total += len(index.query_radius(x, y, 100.0))
        return total

    total = benchmark(run)
    assert total > 0


def test_dbscan_throughput(benchmark, cloud):
    labels = benchmark(dbscan, cloud, 60.0, 10)
    assert len(set(labels) - {-1}) >= 25


def test_optics_throughput(benchmark, cloud):
    labels = benchmark(optics_auto_clusters, cloud, 10)
    assert len(set(labels) - {-1}) >= 25


def test_mean_shift_throughput(benchmark, cloud):
    sample = cloud[::4]
    labels, modes = benchmark(mean_shift, sample, 100.0)
    assert len(modes) >= 20


def test_prefixspan_throughput(benchmark):
    rng = np.random.default_rng(1)
    alphabet = [f"cat{i}" for i in range(12)]
    seqs = [
        [alphabet[int(j)] for j in rng.integers(0, 12, rng.integers(2, 8))]
        for _ in range(3000)
    ]
    patterns = benchmark(prefixspan, seqs, 100, 2, 4)
    assert patterns


def test_popularity_throughput(benchmark, cloud):
    pois = cloud[::3]
    pop = benchmark(compute_popularity, pois, cloud, 100.0)
    assert pop.max() > 0


def test_recognition_throughput(benchmark, runner, workload):
    recognizer = CSDRecognizer(runner.csd, workload.csd_config.r3sigma_m)
    sample = workload.trajectories[:1000]

    recognized = benchmark.pedantic(
        recognizer.recognize, args=(sample,), rounds=1, iterations=1
    )
    labeled = sum(1 for st in recognized for sp in st if sp.semantics)
    assert labeled > 0
