"""Uniform-grid spatial index over points in local metre coordinates.

Every range search in the paper (Algorithm 1 line 3, Algorithm 3 line 5,
popularity computation, unit merging) is a fixed-radius circular query,
for which a uniform grid with cell size equal to the typical radius is
both simple and near-optimal.  The index is immutable after
construction, mirroring how the POI dataset is static during mining.

Internally the grid is a CSR-style layout rather than a dict of
buckets: each point's cell is linearised to a single integer code,
points are argsorted by code once at build time, and a query resolves
any cell to its contiguous slice of the sorted order with binary
search.  That makes the batched :meth:`GridIndex.query_radius_many`
pure numpy — every centre's ``(2*span+1)^2`` cell window is expanded,
located, and distance-filtered with broadcasting, no per-centre Python
loop — which is what lets popularity, recognition, clustering, and
merging run at hardware speed instead of interpreter speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import ArraySpec, CSRSpec, array_contract
from repro.obs import get_registry
from repro.types import CSRQuery, Float64Array, IndexArray, MetersArray

#: Cap on candidate window cells (batch path) or pairwise distances
#: (brute path) materialised per chunk; bounds peak query memory.
_CHUNK_BUDGET = 4_194_304


@dataclass(frozen=True)
class GridCSRState:
    """The complete post-construction state of a :class:`GridIndex`.

    ``repro.serve``'s cell cache reads the cell size and grid origin
    from it.  The arrays are the index's *live* internals — treat
    them as read-only.
    """

    xy: MetersArray
    order: IndexArray
    codes: IndexArray
    xs: Float64Array
    ys: Float64Array
    cell: float
    gx_lo: int
    gx_hi: int
    gy_lo: int
    gy_hi: int
    ny: int
    n_cells: int


class GridIndex:
    """Static point index supporting circular range queries.

    Parameters
    ----------
    xy:
        ``(n, 2)`` array of point coordinates in metres.
    cell_size:
        Edge length of a grid cell in metres.  Choose it close to the
        most common query radius; queries with other radii remain
        correct, only touching more cells.
    """

    def __init__(self, xy: MetersArray, cell_size: float = 100.0) -> None:
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self._xy = np.asarray(xy, dtype=float).reshape(-1, 2).copy()
        self._cell = float(cell_size)
        n = len(self._xy)
        if n:
            gx = np.floor(self._xy[:, 0] / self._cell).astype(np.int64)
            gy = np.floor(self._xy[:, 1] / self._cell).astype(np.int64)
            self._gx_lo = int(gx.min())
            self._gx_hi = int(gx.max())
            self._gy_lo = int(gy.min())
            self._gy_hi = int(gy.max())
            self._ny = self._gy_hi - self._gy_lo + 1
            codes = (gx - self._gx_lo) * self._ny + (gy - self._gy_lo)
            # Stable sort keeps same-cell points in ascending index
            # order, so per-cell slices come out already sorted.
            self._order = np.argsort(codes, kind="stable")
            self._codes = codes[self._order]
            # Contiguous per-axis copies: 1-D gathers are markedly
            # faster than row gathers on the (n, 2) layout.
            self._xs = np.ascontiguousarray(self._xy[self._order, 0], dtype=np.float64)
            self._ys = np.ascontiguousarray(self._xy[self._order, 1], dtype=np.float64)
            self._n_cells = int(np.count_nonzero(np.diff(self._codes))) + 1
        else:
            self._gx_lo = self._gx_hi = self._gy_lo = self._gy_hi = 0
            self._ny = 1
            self._order = np.empty(0, dtype=np.int64)
            self._codes = np.empty(0, dtype=np.int64)
            self._xs = np.empty(0, dtype=float)
            self._ys = np.empty(0, dtype=float)
            self._n_cells = 0

    def __len__(self) -> int:
        return len(self._xy)

    def csr_state(self) -> GridCSRState:
        """Snapshot of the built index's CSR layout.

        The returned arrays are the index's own internals (no copies);
        callers must not mutate them.
        """
        return GridCSRState(
            xy=self._xy,
            order=self._order,
            codes=self._codes,
            xs=self._xs,
            ys=self._ys,
            cell=self._cell,
            gx_lo=self._gx_lo,
            gx_hi=self._gx_hi,
            gy_lo=self._gy_lo,
            gy_hi=self._gy_hi,
            ny=self._ny,
            n_cells=self._n_cells,
        )

    @property
    def points(self) -> MetersArray:
        """Read-only view of the indexed coordinates."""
        view = self._xy.view()
        view.flags.writeable = False
        return view

    @property
    def n_occupied_cells(self) -> int:
        """Number of grid cells holding at least one point."""
        return self._n_cells

    @array_contract(ret=ArraySpec(dtype="int64", ndim=1))
    def query_radius(self, x: float, y: float, radius: float) -> IndexArray:
        """Indices of points within ``radius`` metres of ``(x, y)``.

        The result is sorted ascending so downstream iteration order is
        deterministic.  Thin single-centre wrapper over
        :meth:`query_radius_many`; both paths share one kernel and are
        therefore exactly equivalent.
        """
        indices, _ = self.query_radius_many(
            np.array([[x, y]], dtype=float), radius
        )
        return indices

    @array_contract(
        centers=ArraySpec(dtype="float64", cols=2, coerced=True),
        ret=CSRSpec(centers="centers"),
    )
    def query_radius_many(self, centers: MetersArray, radius: float) -> CSRQuery:
        """Batched circular range query in CSR form.

        Parameters
        ----------
        centers:
            ``(m, 2)`` array of query centres in metres.
        radius:
            Query radius in metres, shared by all centres.

        Returns
        -------
        ``(indices, offsets)`` where ``indices[offsets[i]:offsets[i+1]]``
        are the point indices within ``radius`` of ``centers[i]``,
        sorted ascending — the exact hits :meth:`query_radius` would
        return for that centre.  ``offsets`` has length ``m + 1`` with
        ``offsets[0] == 0``.
        """
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
        m = len(ctr)
        n = len(self._xy)
        if m == 0 or n == 0:
            return np.empty(0, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
        indices, offsets = self._query_many(ctr, radius)
        reg = get_registry()
        if reg.enabled:
            reg.counter("geo.index.queries").inc(1)
            reg.counter("geo.index.centers").inc(m)
            reg.counter("geo.index.hits").inc(int(len(indices)))
        return indices, offsets

    def _query_many(self, ctr: MetersArray, radius: float) -> CSRQuery:
        """Kernel dispatch behind :meth:`query_radius_many`."""
        m = len(ctr)
        span = int(np.ceil(radius / self._cell))
        window = (2 * span + 1) ** 2
        if window >= self._n_cells:
            # Huge radius: scanning all points beats walking an
            # enormous (mostly empty) cell window.
            return self._brute_many(ctr, radius)
        chunk = max(1, _CHUNK_BUDGET // window)
        if m <= chunk:
            return self._window_many(ctr, radius, span)
        parts = [
            self._window_many(ctr[s : s + chunk], radius, span)
            for s in range(0, m, chunk)
        ]
        indices = np.concatenate([p[0] for p in parts])
        counts = np.concatenate([np.diff(p[1]) for p in parts])
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return indices, offsets

    def _window_many(
        self, ctr: MetersArray, radius: float, span: int
    ) -> CSRQuery:
        """Grid-window batch kernel: broadcast over the cell window.

        A window column (fixed ``gx``, all ``gy`` in the window) spans
        consecutive cell codes, hence one contiguous slice of the
        sorted order — so each centre costs ``2*span + 1`` binary
        searches instead of ``(2*span + 1)^2``.
        """
        m = len(ctr)
        ccx = np.floor(ctr[:, 0] / self._cell).astype(np.int64)
        ccy = np.floor(ctr[:, 1] / self._cell).astype(np.int64)
        gxs = ccx[:, None] + np.arange(-span, span + 1, dtype=np.int64)  # (m, w)
        y0 = np.maximum(ccy - span, self._gy_lo)
        y1 = np.minimum(ccy + span, self._gy_hi) + 1  # exclusive
        col_ok = (
            (gxs >= self._gx_lo) & (gxs <= self._gx_hi) & (y1 > y0)[:, None]
        ).reshape(-1)
        base = (gxs - self._gx_lo) * self._ny
        lo = (base + (y0 - self._gy_lo)[:, None]).reshape(-1)
        hi = (base + (y1 - self._gy_lo)[:, None]).reshape(-1)
        starts = np.searchsorted(self._codes, lo, side="left")
        ends = np.searchsorted(self._codes, hi, side="left")
        lengths = np.where(col_ok, ends - starts, 0)
        total = int(lengths.sum())
        reg = get_registry()
        if reg.enabled:
            # Distance-filter candidates examined; hits / candidates is
            # the grid's selectivity for this workload.
            reg.counter("geo.index.candidates").inc(total)
        if total == 0:
            return np.empty(0, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
        # Expand every [start, end) slice into flat gather positions.
        out_start = np.cumsum(lengths) - lengths
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(out_start, lengths)
            + np.repeat(starts, lengths)
        )
        per_center = lengths.reshape(m, -1).sum(axis=1)
        cid = np.repeat(np.arange(m, dtype=np.int64), per_center)
        cx = np.ascontiguousarray(ctr[:, 0], dtype=np.float64)
        cy = np.ascontiguousarray(ctr[:, 1], dtype=np.float64)
        dx = self._xs[pos] - cx[cid]
        dy = self._ys[pos] - cy[cid]
        keep = dx * dx + dy * dy <= radius * radius
        hits = self._order[pos[keep]]
        hc = cid[keep]
        # Cells are visited in code order, not index order; re-sort each
        # centre's hits ascending to match the scalar contract.  A point
        # appears at most once per centre, so the fused key is unique
        # and a single-key argsort replaces the two-pass lexsort.
        n = np.int64(len(self._xy))
        perm = np.argsort(hc * n + hits)
        hits = hits[perm]
        counts = np.bincount(hc, minlength=m)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return hits, offsets

    def _brute_many(self, ctr: MetersArray, radius: float) -> CSRQuery:
        """All-points batch kernel for radii spanning the whole grid."""
        m = len(ctr)
        n = len(self._xy)
        r2 = radius * radius
        reg = get_registry()
        if reg.enabled:
            reg.counter("geo.index.candidates").inc(m * n)
        chunk = max(1, _CHUNK_BUDGET // n)
        all_idx = []
        all_counts = []
        for s in range(0, m, chunk):
            c = ctr[s : s + chunk]
            dx = self._xy[None, :, 0] - c[:, None, 0]
            dy = self._xy[None, :, 1] - c[:, None, 1]
            rows, cols = np.nonzero(dx * dx + dy * dy <= r2)
            all_idx.append(cols)
            all_counts.append(np.bincount(rows, minlength=len(c)))
        indices = np.concatenate(all_idx).astype(np.int64)
        counts = np.concatenate(all_counts)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return indices, offsets

    def count_within(self, x: float, y: float, radius: float) -> int:
        """Number of indexed points within ``radius`` of ``(x, y)``."""
        return int(len(self.query_radius(x, y, radius)))

    @array_contract(ret=ArraySpec(dtype="int64", ndim=1))
    def nearest(self, x: float, y: float, k: int = 1) -> IndexArray:
        """Indices of the ``k`` nearest points, closest first.

        Searches expanding rings of grid cells, stopping once the best
        ``k`` candidates are provably closer than any unexplored cell.
        Returns fewer than ``k`` indices when the index is smaller.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        n = len(self._xy)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        k = min(k, n)
        for span in range(1, max(2, int(np.sqrt(self._n_cells)) + 2)):
            radius = span * self._cell
            hits = self.query_radius(x, y, radius)
            if len(hits) >= k:
                # Exact: every point within `radius` is closer than any
                # unexplored point outside it.
                d2 = ((self._xy[hits] - (x, y)) ** 2).sum(axis=1)
                return hits[np.argsort(d2, kind="stable")[:k]]
        # Sparser than any ring we tried: brute force the remainder.
        d2 = ((self._xy - (x, y)) ** 2).sum(axis=1)
        # argsort yields platform intp; the index contract is int64.
        return np.argsort(d2, kind="stable")[:k].astype(np.int64, copy=False)
