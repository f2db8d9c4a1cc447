"""OPTICS (Ankerst et al., 1999) with automatic cluster extraction.

Algorithm 4 uses OPTICS "to finish clustering tasks without the
configuration of distance threshold": it starts from a default maximum
distance and the support threshold as the minimum cluster size, computes
the reachability ordering, and then picks a distance cut with
sufficiently high density.  We implement the classic ordering pass plus
two extractions from its reachability plot:

- :func:`extract_valley_clusters` — the per-cluster adaptive cut the
  miner uses (through :func:`optics_auto_clusters`): the plot is split
  at dominant peaks until every valley is one cluster;
- :func:`extract_dbscan_clustering` — the standard DBSCAN-equivalent cut
  at a caller-supplied ``eps'``, which the tests use to check the
  ordering against an independent DBSCAN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.index import GridIndex
from repro.types import Float64Array, IndexArray, MetersArray

_INF = np.inf

#: Algorithm 4's default maximum OPTICS distance, in metres.
MAX_EPS_M = 1_000.0
#: Valley split ratio of Algorithm 4's OPTICS step: a reachability peak
#: above this factor times the segment median splits the cluster.
VALLEY_SPLIT_RATIO = 3.0


@dataclass
class OpticsResult:
    """Reachability plot: visit order plus per-point distances."""

    ordering: IndexArray       # point indices in visit order
    reachability: Float64Array # reachability distance per point (inf = never reached)
    core_distance: Float64Array  # core distance per point (inf = never core)

    def __len__(self) -> int:
        return len(self.ordering)


def optics(xy: MetersArray, min_pts: int, max_eps: float = _INF) -> OpticsResult:
    """Compute the OPTICS ordering of ``(n, 2)`` metre coordinates.

    ``max_eps`` bounds the neighbourhood search; pass a generous default
    (e.g. 1 km) for speed — anything beyond it is treated as unreachable,
    exactly like the original algorithm.

    Every neighbourhood is fetched once, as one CSR batch query, so
    memory grows with the number of in-range pairs (16 B each), not
    with the number of points.  The walk pops the unprocessed point of
    lowest ``(reachability, index)`` — the order a ``(r, j)`` heap
    gives — so the result matches the classic per-point formulation
    exactly.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    if np.isnan(max_eps):
        raise ValueError("max_eps must not be NaN")
    reach = np.full(n, _INF, dtype=np.float64)
    core = np.full(n, _INF, dtype=np.float64)
    ordering = np.empty(n, dtype=np.int64)
    if n == 0:
        return OpticsResult(ordering, reach, core)

    # A radius beyond the data diagonal reaches everything anyway; the
    # clamp keeps the grid scan bounded when max_eps is infinite.
    diagonal = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))) + 1.0
    search_eps = min(max_eps, diagonal)
    index = GridIndex(pts, cell_size=max(min(search_eps, 250.0), 1e-9))
    nbrs, offsets = index.query_radius_many(pts, search_eps)
    dists = _pair_distances(pts, nbrs, offsets)

    # Each point is processed exactly once, so its core distance can be
    # computed before the walk: the min_pts-th smallest neighbour distance.
    kth = min_pts - 1
    for i in np.flatnonzero(np.diff(offsets) >= min_pts):
        seg = dists[offsets[i] : offsets[i + 1]]
        core[i] = np.partition(seg, kth)[kth]

    # ``pending`` holds the reachability of every reached, unprocessed
    # point and inf elsewhere; argmin breaks ties toward the lowest index.
    pending = np.full(n, _INF, dtype=np.float64)
    todo = np.ones(n, dtype=bool)
    for pos in range(n):
        j = int(pending.argmin())
        if pending[j] == _INF:
            j = int(todo.argmax())  # start the next component
        todo[j] = False
        pending[j] = _INF
        ordering[pos] = j
        if core[j] == _INF:
            continue
        lo, hi = offsets[j], offsets[j + 1]
        nb = nbrs[lo:hi]
        new_reach = np.maximum(core[j], dists[lo:hi])
        better = (new_reach < reach[nb]) & todo[nb]
        nb = nb[better]
        reach[nb] = pending[nb] = new_reach[better]
    return OpticsResult(ordering, reach, core)


#: Neighbour pairs whose distances are computed per chunk; bounds the
#: gather/difference temporaries of :func:`_pair_distances`.
_PAIR_CHUNK = 65_536


def _pair_distances(
    pts: MetersArray, nbrs: IndexArray, offsets: IndexArray
) -> Float64Array:
    """Distance of every CSR pair ``(i, nbrs[p])``, one block of centres
    at a time.

    Per element this is the per-point ``sqrt(((pts[nb] - pts[i]) **
    2).sum(axis=1))`` (square, add the two axes, root), so every
    distance is bit-identical to it.
    """
    xs = np.ascontiguousarray(pts[:, 0], dtype=np.float64)
    ys = np.ascontiguousarray(pts[:, 1], dtype=np.float64)
    out = np.empty(len(nbrs), dtype=np.float64)
    n = len(offsets) - 1
    c0 = 0
    while c0 < n:
        # Centres [c0, c1) hold at most _PAIR_CHUNK pairs, or are one centre.
        end = np.searchsorted(offsets, offsets[c0] + _PAIR_CHUNK, side="right")
        c1 = max(c0 + 1, int(end) - 1)
        lo, hi = offsets[c0], offsets[c1]
        owner = np.repeat(
            np.arange(c0, c1, dtype=np.int64), np.diff(offsets[c0 : c1 + 1])
        )
        nb = nbrs[lo:hi]
        dx = xs[nb] - xs[owner]
        dy = ys[nb] - ys[owner]
        dx *= dx
        dy *= dy
        dx += dy
        out[lo:hi] = np.sqrt(dx)
        c0 = c1
    return out


def extract_dbscan_clustering(
    result: OpticsResult, eps_prime: float, min_pts: int
) -> IndexArray:
    """DBSCAN-equivalent labels from an OPTICS ordering at ``eps_prime``.

    Walks the ordering: a reachability jump above ``eps_prime`` either
    starts a new cluster (if the point is core at ``eps_prime``) or marks
    noise.  ``min_pts`` only matters through the recorded core distances.
    """
    del min_pts  # core distances already encode it; kept for API clarity
    n = len(result)
    labels = np.full(n, -1, dtype=np.int64)
    cluster_id = -1
    for idx in result.ordering:
        if result.reachability[idx] > eps_prime:
            if result.core_distance[idx] <= eps_prime:
                cluster_id += 1
                labels[idx] = cluster_id
            else:
                labels[idx] = -1
        else:
            labels[idx] = cluster_id
    return labels


def extract_valley_clusters(
    result: OpticsResult, min_pts: int, split_ratio: float = VALLEY_SPLIT_RATIO
) -> IndexArray:
    """Per-cluster adaptive extraction from the reachability plot.

    The paper's Algorithm 4 description says OPTICS "chooses an optimal
    distance threshold with sufficiently high density *for each
    cluster*" — a single global cut cannot do that when venue footprints
    range from a shop door to an airport kerb.  This extraction treats
    the reachability plot as valleys separated by peaks: a segment of
    the ordering is recursively split at its dominant interior peak
    whenever that peak exceeds ``split_ratio`` times the segment's
    median reachability, and a segment is accepted as one cluster once
    no dominant peak remains.  Segments smaller than ``min_pts`` are
    noise.
    """
    if split_ratio <= 1.0:
        raise ValueError("split_ratio must exceed 1")
    n = len(result)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    order = result.ordering
    reach = result.reachability[order]  # reach in visit order

    segments = [(0, n)]  # half-open [start, stop) over the ordering
    accepted = []
    while segments:
        start, stop = segments.pop()
        if stop - start < min_pts:
            continue
        interior = reach[start + 1 : stop]
        if len(interior) == 0:
            accepted.append((start, stop))
            continue
        peak_offset = int(np.argmax(interior))
        peak_value = float(interior[peak_offset])
        finite = interior[np.isfinite(interior)]
        median = float(np.median(finite)) if len(finite) else 0.0
        threshold = max(median * split_ratio, 1e-9)
        if not np.isfinite(peak_value) or peak_value > threshold:
            split_at = start + 1 + peak_offset
            segments.append((start, split_at))
            segments.append((split_at, stop))
        else:
            accepted.append((start, stop))

    for cluster_id, (start, stop) in enumerate(sorted(accepted)):
        labels[order[start:stop]] = cluster_id
    return labels


def optics_auto_clusters(xy: MetersArray, min_pts: int) -> IndexArray:
    """One-call OPTICS clustering with per-cluster adaptive extraction.

    This is the exact routine Algorithm 4 line 6 invokes: OPTICS out to
    :data:`MAX_EPS_M`, then the :data:`VALLEY_SPLIT_RATIO` valley cut.
    """
    result = optics(xy, min_pts=min_pts, max_eps=MAX_EPS_M)
    return extract_valley_clusters(result, min_pts)
