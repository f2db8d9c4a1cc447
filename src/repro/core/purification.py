"""Semantic purification (Algorithm 2, Equations 4-5).

Coarse clusters from popularity-based clustering may mix semantics
(skyscrapers, zoning boundaries).  Purification repeatedly splits any
cluster that is neither single-semantic nor spatially tight
(``Var < V_min``): the POI closest to the cluster centre is the
reference, Kullback-Leibler divergence between each member's local
semantic distribution and the reference's is computed, and members above
the median divergence break away into a new cluster.  Both halves go
back on the work list until every cluster qualifies as a fine-grained
semantic unit (Definition 3).

Tags are integer codes here (:func:`~repro.core.csd.tag_codes`), so a
cluster's local distributions are one ``(members, tags)`` matrix built
with ``np.bincount`` and its divergences one array.  Both add in the
order the tag-keyed dict definitions did, so the split decisions are
bit-identical to them (``docs/PERFORMANCE.md``, "Constructor and
assembly kernels").
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.core.csd import tag_codes
from repro.geo.distance import gaussian_coefficients
from repro.geo.stats import medoid_index, spatial_variance
from repro.types import Float64Array, IndexArray, MetersArray

#: Additive smoothing for the KL computation: Eq. 5 divides by
#: probabilities that are zero for tags absent near one POI.
_KL_EPS = 1e-9

#: Cap on the Gaussian weights materialised per block of rows in
#: :func:`semantic_distributions`; bounds memory on large clusters.
_BLOCK_ELEMENTS = 1 << 20


@array_contract(
    xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    codes=ArraySpec(dtype="int64", ndim=1, same_length_as="xy", coerced=True),
    ret=ArraySpec(dtype="float64", ndim=2, finite=True),
)
def semantic_distributions(
    xy: MetersArray, codes: IndexArray, n_tags: int, r3sigma: float
) -> Float64Array:
    """Per-POI local semantic distribution ``Pr_{p_i}(s)`` (Eq. 4).

    ``codes[j]`` is member ``j``'s tag code in ``range(n_tags)``; row
    ``i`` of the ``(n, n_tags)`` result is ``Pr_{p_i}`` over those
    codes.  ``Pr_{p_i}(s)`` weighs every cluster member's tag by its
    Gaussian coefficient to ``p_i``, so nearby members dominate the view
    each POI has of its cluster's semantics.  One ``np.bincount`` over
    ``row * n_tags + code`` adds each row's weights in member order.
    """
    pts = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    codes = np.asarray(codes, dtype=np.int64)
    n = len(pts)
    if n != len(codes):
        raise ValueError("xy and codes must align")
    out = np.empty((n, n_tags), dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // max(n, 1))
    # reprolint: allow-loop -- memory blocking over rows; each block is
    # one broadcast distance matrix and one bincount.
    for start in range(0, n, block):
        rows = pts[start : start + block]
        m = len(rows)
        d = np.sqrt(((pts[None, :, :] - rows[:, None, :]) ** 2).sum(axis=2))
        w = gaussian_coefficients(d, r3sigma)
        bins = np.arange(m, dtype=np.int64)[:, None] * n_tags + codes
        acc = np.bincount(
            bins.ravel(), weights=w.ravel(), minlength=m * n_tags
        ).reshape(m, n_tags)
        out[start : start + m] = acc / w.sum(axis=1)[:, None]
    return out


@array_contract(
    dists=ArraySpec(dtype="float64", ndim=2),
    ret=ArraySpec(dtype="float64", ndim=1, same_length_as="dists"),
)
def kl_divergences(dists: Float64Array, ref: int) -> Float64Array:
    """Smoothed ``KL(Pr_k || Pr_ref)`` for every row ``k`` (Eq. 5).

    The sum runs over the columns (the tag support) in order, one
    column at a time across all rows, so every row adds its terms in
    the same sequence a per-member scalar loop would.
    """
    p = np.asarray(dists, dtype=np.float64) + _KL_EPS
    q = p[ref]
    total = np.zeros(len(p), dtype=np.float64)
    # reprolint: allow-loop -- fixed summation order over the (small)
    # tag support; each step is vectorised across members.
    for s in range(p.shape[1]):
        total += p[:, s] * np.log(p[:, s] / q[s])
    return total


def is_fine_grained(
    xy: MetersArray, tags: Sequence[object], v_min: float
) -> bool:
    """Definition 3 qualification: single-semantic OR tight variance.

    ``tags`` may be tag strings or integer tag codes.
    """
    if len(set(tags)) <= 1:
        return True
    return spatial_variance(xy) < v_min


def purify(
    clusters: List[List[int]],
    poi_xy: MetersArray,
    poi_tags: Sequence[str],
    v_min: float,
    r3sigma: float,
) -> List[List[int]]:
    """Algorithm 2: split clusters until all are fine-grained units.

    ``clusters`` holds POI index lists; the output preserves every input
    index exactly once.  Termination is guaranteed: each split strictly
    shrinks a cluster, and a split that moves nothing (all divergences
    equal, e.g. perfectly mixed stacks) force-accepts the cluster — the
    paper leaves this degenerate case implicit.
    """
    if v_min < 0:
        raise ValueError("v_min must be non-negative")
    work = [np.asarray(c, dtype=np.int64) for c in clusters if len(c)]
    if not work:
        return []
    # Codes for the clustered POIs only: a repair pass purifies a few
    # units of a much larger diagram.
    members = np.concatenate(work)
    codes = np.empty(len(poi_tags), dtype=np.int64)
    codes[members] = tag_codes([poi_tags[i] for i in members.tolist()])[1]
    units: List[List[int]] = []
    while work:
        cluster = work.pop()
        xy = poi_xy[cluster]
        if is_fine_grained(xy, codes[cluster].tolist(), v_min):
            units.append(cluster.tolist())
            continue
        # Codes follow string order, so the support is sorted by tag.
        support, local = np.unique(codes[cluster], return_inverse=True)
        dists = semantic_distributions(xy, local, len(support), r3sigma)
        kl = kl_divergences(dists, medoid_index(xy))
        moved = kl > float(np.median(kl))
        if moved.all() or not moved.any():
            # Degenerate divergence profile: cannot make progress by the
            # median rule; accept as-is rather than loop forever.
            units.append(cluster.tolist())
            continue
        work.append(cluster[~moved])
        work.append(cluster[moved])
    return units
