"""Semantic unit merging (Section 4.1, Equations 6-8).

Purification can fragment one logical unit (a shopping street cut by a
pedestrian square), and popularity-based clustering leaves stray POIs
unclustered.  Merging repairs both: nearby units whose
popularity-weighted semantic distributions have cosine similarity at or
above the threshold fuse (union-find), and leftover POIs join a nearby
compatible unit as singleton candidates.

The distributions of all units are one unit x tag matrix
(:func:`distribution_matrix`), and each candidate pair's cosine is a
``math.fsum`` over one product row of it — the same correctly rounded
value the tag-keyed :func:`cosine_similarity` gives, so no merge
decision depends on how the kernel is laid out
(``docs/PERFORMANCE.md``, "Constructor and assembly kernels").
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.contracts import ArraySpec, SameLength, array_contract
from repro.core.csd import tag_codes
from repro.geo.index import GridIndex
from repro.types import Float64Array, IndexArray, MetersArray

#: Popularity floor of Eq. 6: a POI with zero popularity still counts,
#: so a unit in a never-visited area keeps a defined distribution.
_POPULARITY_FLOOR = 1e-12

#: Cap on the product-matrix elements materialised per block of
#: candidate pairs in :func:`_pair_cosines`.
_PAIR_BLOCK_ELEMENTS = 1 << 20


@array_contract(
    ret=(
        ArraySpec(dtype="int64", ndim=1, item=0),
        ArraySpec(dtype="int64", ndim=1, item=1),
    )
)
def flatten_units(units: Sequence[Sequence[int]]) -> Tuple[IndexArray, IndexArray]:
    """``(members, owner)``: every unit's POI indices concatenated in
    unit order, and the position of the unit each one came from."""
    sizes = np.fromiter(map(len, units), dtype=np.int64, count=len(units))
    members = np.fromiter(
        chain.from_iterable(units), dtype=np.int64, count=int(sizes.sum())
    )
    owner = np.repeat(np.arange(len(units), dtype=np.int64), sizes)
    return members, owner


@array_contract(
    owner=ArraySpec(dtype="int64", ndim=1),
    codes=ArraySpec(dtype="int64", ndim=1, same_length_as="owner"),
    weights=ArraySpec(dtype="float64", ndim=1, finite=True, same_length_as="owner"),
    ret=ArraySpec(dtype="float64", ndim=2, finite=True),
)
def distribution_matrix(
    owner: IndexArray,
    codes: IndexArray,
    weights: Float64Array,
    n_units: int,
    n_tags: int,
) -> Float64Array:
    """Tag distributions of many units as one ``(n_units, n_tags)``
    matrix: row ``u`` holds the normalised weights of the members with
    ``owner == u``, per tag code.

    ``np.bincount`` adds each ``(unit, tag)`` bin's weights in member
    order, the order a per-unit dict accumulation adds them; each row is
    divided by its ``math.fsum``, which the zero entries of absent tags
    do not change.  An empty unit's row stays all zero.
    """
    acc = np.bincount(
        owner * n_tags + codes, weights=weights, minlength=n_units * n_tags
    ).reshape(n_units, n_tags)
    totals = row_fsums(acc)
    return acc / np.where(totals > 0.0, totals, 1.0).reshape(-1, 1)


@array_contract(
    matrix=ArraySpec(dtype="float64", ndim=2),
    ret=ArraySpec(dtype="float64", ndim=1, same_length_as="matrix"),
)
def row_fsums(matrix: Float64Array) -> Float64Array:
    """``math.fsum`` of every row of a mostly-zero matrix.

    Only the nonzero entries are summed: a zero does not change the
    exact sum, so it cannot change the correctly rounded one either.
    """
    rows, cols = np.nonzero(matrix)
    values = matrix[rows, cols].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(matrix))).tolist()
    sums: List[float] = []
    start = 0
    # reprolint: allow-loop -- one exact sum per row over its nonzeros.
    for end in ends:
        sums.append(math.fsum(values[start:end]))
        start = end
    return np.array(sums, dtype=np.float64)


@array_contract(
    popularity=ArraySpec(dtype="float64", ndim=1, finite=True, same_length_as="tags"),
    ret=SameLength(of="units"),
)
def unit_distributions(
    units: Sequence[Sequence[int]], tags: Sequence[str], popularity: Float64Array
) -> List[Dict[str, float]]:
    """Popularity-weighted tag distribution ``Pr_u(s)`` (Eq. 6) of
    every unit.

    POIs with zero popularity still count with a tiny floor weight so a
    unit in a never-visited area keeps a defined distribution.  Each
    dict lists its tags in order of first appearance among the unit's
    members (``save_csd`` writes them in that order).
    """
    members, owner = flatten_units(units)
    names, codes = tag_codes([tags[i] for i in members.tolist()])
    n_tags = len(names)
    dist = distribution_matrix(
        owner, codes, popularity[members] + _POPULARITY_FLOOR, len(units), n_tags
    )
    # Members are grouped by unit, so ordering the (unit, tag) bins by
    # their first member puts each unit's tags in first-seen order.
    first = np.sort(np.unique(owner * n_tags + codes, return_index=True)[1])
    unit_at, code_at = owner[first], codes[first]
    out: List[Dict[str, float]] = [{} for _ in units]
    # reprolint: allow-loop -- builds the output dicts, one entry per
    # distinct (unit, tag) pair.
    for u, c, share in zip(
        unit_at.tolist(), code_at.tolist(), dist[unit_at, code_at].tolist()
    ):
        out[u][names[c]] = share
    return out


def cosine_similarity(p: Dict[str, float], q: Dict[str, float]) -> float:
    """Cosine of two tag distributions (Equations 7-8).

    All three reductions use ``math.fsum``: it is correctly rounded and
    therefore order-independent, so the similarity is bit-identical no
    matter how ``set(p) | set(q)`` happens to iterate (a plain ``sum``
    here changed with ``PYTHONHASHSEED``, which RPL003 exists to catch).
    """
    if not p or not q:
        return 0.0
    prod = math.fsum(p.get(s, 0.0) * q.get(s, 0.0) for s in set(p) | set(q))
    pp = math.fsum(v * v for v in p.values())
    qq = math.fsum(v * v for v in q.values())
    denominator = math.sqrt(pp * qq)
    if denominator == 0.0:
        return 0.0
    return prod / denominator


def _pair_cosines(
    dist: Float64Array, a: IndexArray, b: IndexArray
) -> Float64Array:
    """:func:`cosine_similarity` of rows ``a[k]`` and ``b[k]`` of a
    distribution matrix, for every ``k``.

    Every reduction is a ``math.fsum`` over a matrix row
    (:func:`row_fsums`); the zero entries of tags a unit lacks add
    nothing to it, so each value is the one the tag-keyed definition
    computes.
    """
    pp = row_fsums(dist * dist)
    dot = np.empty(len(a), dtype=np.float64)
    block = max(1, _PAIR_BLOCK_ELEMENTS // max(dist.shape[1], 1))
    # reprolint: allow-loop -- memory blocking over candidate pairs.
    for start in range(0, len(a), block):
        stop = start + block
        dot[start:stop] = row_fsums(dist[a[start:stop]] * dist[b[start:stop]])
    denominator = np.sqrt(pp[a] * pp[b])
    return np.divide(
        dot, denominator, out=np.zeros_like(dot), where=denominator != 0.0
    )


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    @array_contract(ret=ArraySpec(dtype="int64", ndim=1))
    def roots(self) -> IndexArray:
        """Root of every element; a component's root is its smallest
        element, whatever order the unions came in."""
        parent = np.asarray(self.parent, dtype=np.int64)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                return parent
            parent = up


def _nearby_pairs(
    members: IndexArray, owner: IndexArray, poi_xy: MetersArray, radius: float
) -> Tuple[IndexArray, IndexArray]:
    """Unit pairs ``(a, b)``, ``a < b`` and sorted, with at least one
    POI pair within ``radius`` metres; ``owner[k]`` is the unit of POI
    ``members[k]``."""
    if not len(members):
        return members[:0], members[:0]
    flat_xy = poi_xy[members]
    index = GridIndex(flat_xy, cell_size=max(radius, 1.0))
    n_units = int(owner.max()) + 1
    # A batched self-query per block of POIs yields every within-radius
    # POI pair, once from each end: the radius test is symmetric, so
    # keeping the end whose unit is the smaller keeps each unit pair.
    # The unit pairs are then a vectorised dedup over the owner labels,
    # per block and once more across blocks.
    keys = [members[:0]]
    # reprolint: allow-loop -- memory blocking over POIs.
    for start, stop in index.blocks(flat_xy, radius):
        nbr_idx, nbr_off = index.query_radius_many(flat_xy[start:stop], radius)
        ua = np.repeat(owner[start:stop], np.diff(nbr_off))
        ub = owner[nbr_idx]
        below = ua < ub
        keys.append(np.unique(ua[below] * n_units + ub[below]))
    pairs = np.unique(np.concatenate(keys))
    return pairs // n_units, pairs % n_units


@array_contract(
    poi_xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    popularity=ArraySpec(
        dtype="float64", ndim=1, finite=True, same_length_as="poi_xy"
    ),
)
def merge_units(
    units: List[List[int]],
    leftovers: Sequence[int],
    poi_xy: MetersArray,
    poi_tags: Sequence[str],
    popularity: Float64Array,
    cos_threshold: float,
    radius: float,
) -> List[List[int]]:
    """Merge similar nearby units and absorb compatible leftover POIs.

    Returns the final unit membership lists; leftover POIs that match no
    nearby unit stay outside the diagram (their ``unit_of`` entry remains
    unassigned).
    """
    if not 0.0 <= cos_threshold <= 1.0:
        raise ValueError("cos_threshold must be in [0, 1]")
    # Leftover POIs participate as singleton pseudo-units; whether the
    # merge keeps them is decided by the same cosine rule.
    unit_members, unit_owner = flatten_units(units)
    left = np.asarray(leftovers, dtype=np.int64).reshape(-1)
    n_all = len(units) + len(left)
    members = np.concatenate((unit_members, left))
    owner = np.concatenate(
        (unit_owner, np.arange(len(units), n_all, dtype=np.int64))
    )
    names, codes = tag_codes([poi_tags[i] for i in members.tolist()])
    dist = distribution_matrix(
        owner, codes, popularity[members] + _POPULARITY_FLOOR, n_all, len(names)
    )
    a, b = _nearby_pairs(
        members, owner, np.asarray(poi_xy, dtype=np.float64), radius
    )
    similar = _pair_cosines(dist, a, b) >= cos_threshold
    uf = _UnionFind(n_all)
    # reprolint: allow-loop -- union-find over the similar nearby pairs;
    # pair count is tiny relative to the POI corpus.
    for i, j in zip(a[similar].tolist(), b[similar].tolist()):
        uf.union(i, j)
    root = uf.roots()[owner]
    # A group made only of leftovers is not a unit: Algorithm 1 already
    # rejected those POIs as too sparse to anchor semantics.
    has_unit = np.zeros(n_all, dtype=bool)
    has_unit[root[: len(unit_members)]] = True
    keep = has_unit[root]
    root, members = root[keep], members[keep]
    order = np.lexsort((members, root))
    root, flat = root[order], members[order].tolist()
    bounds = [0] + (np.flatnonzero(np.diff(root)) + 1).tolist() + [len(flat)]
    return [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:]) if e > s]
