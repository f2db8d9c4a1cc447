"""Semantic recognition (Section 4.2, Algorithm 3).

For each stay point, all POIs within ``R_3sigma`` vote for the semantic
unit they belong to, weighted by ``pop(p^I) * ||p^I, sp||``.  The unit
with the highest aggregate vote wins, and the stay point receives the
union of tags of the winning unit's in-range POIs.  Voting by unit —
rather than by single best POI — is what makes recognition robust to
GPS noise and to semantically complex areas.

Recognition is embarrassingly batchable: :meth:`CSDRecognizer.
recognize_points` projects the whole stay-point corpus at once, reads
every stay's in-range POIs from the recognizer's
:class:`~repro.geo.index.CellWindowTable`, and resolves every vote with
``np.bincount`` over ``(stay, unit)`` pairs.  The table is built once
per recognizer, that is per diagram and ``R_3sigma``: cells of edge
``R_3sigma``, and for each cell the unit-assigned POIs of its 3×3
window, ascending.  A stay's candidates are then one contiguous slice,
already in the order the votes must add up in, so a call sorts nothing
but its ``(stay, unit)`` pairs; that keeps the one-stay calls of a
serving daemon cheap.  The scalar :meth:`CSDRecognizer.recognize_point`
is a single-point wrapper over the same kernel, so both paths are
exactly equivalent.

The voting kernel itself is split out as :func:`vote_stays`, a pure
array function over the CSD and its table.  Votes for different stay
points never interact, so recognising a corpus in slices is
bit-identical to one big batch: ``recognize_points`` votes in the
table's blocks (:meth:`~repro.geo.index.CellWindowTable.blocks`),
consecutive stays whose candidate POIs fit
:data:`~repro.geo.index.PAIR_BUDGET`, so every per-hit array of a
vote is bounded by that budget, however large the corpus.
:func:`attach_semantics` re-splits the flat results into trajectories
for every caller that flattens first.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from repro.contracts import ArraySpec, SameLength, array_contract
from repro.core.csd import UNASSIGNED, CitySemanticDiagram, tag_codes
from repro.data.trajectory import (
    NO_SEMANTICS,
    SemanticProperty,
    SemanticTrajectory,
    StayPoint,
)
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import CellWindowTable
from repro.obs import DEFAULT_SIZE_BUCKETS, get_registry
from repro.types import IndexArray, MetersArray

@array_contract(
    xy=ArraySpec(dtype="float64", cols=2, coerced=True),
    ret=(
        ArraySpec(dtype="int64", ndim=1, item=0, same_length_as="xy"),
        ArraySpec(dtype="int64", ndim=1, item=1),
        ArraySpec(dtype="int64", ndim=1, item=2),
    ),
)
def vote_stays(
    source: CitySemanticDiagram,
    table: CellWindowTable,
    xy: MetersArray,
) -> Tuple[IndexArray, IndexArray, IndexArray]:
    """The numeric half of Algorithm 3 over projected stay coordinates.

    ``table`` holds ``source``'s unit-assigned POIs at radius
    ``R_3sigma``.  Its query gives each stay's in-range POIs in
    ascending order with their squared distances.  One stable sort
    groups the hits by ``(stay, unit)`` pair, and ``np.bincount`` adds
    each pair's popularity-weighted votes in hit order, so totals match
    a per-point left-to-right sum bit for bit.  Vote ties go to the
    smaller unit id.

    Returns ``(winner_of, win_stay, win_poi)``: the winning unit id per
    stay (``UNASSIGNED`` where no unit-assigned POI is in range), plus
    the ``(stay, poi)`` hit pairs belonging to each stay's winning unit
    — everything the semantic assembly step needs.
    """
    pts = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    winner_of = np.full(len(pts), UNASSIGNED, dtype=np.int64)
    hit_idx, stay_of, d2 = table.query(pts)
    if not len(hit_idx):
        return winner_of, stay_of, hit_idx
    unit_ids = source.unit_of[hit_idx]
    scores = source.popularity[hit_idx] * gaussian_coefficients(
        np.sqrt(d2), table.radius
    )
    reg = get_registry()
    if reg.enabled:
        reg.counter("recognition.votes.cast").inc(int(len(scores)))
    # Vote totals per (stay, unit) pair.  Hits arrive grouped by stay,
    # and the stable sort keeps each pair's hits in hit order.
    n_units = max(source.n_units, 1)
    pair = stay_of * n_units + unit_ids
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    new_pair = np.ones(len(pair), dtype=bool)
    new_pair[1:] = pair[1:] != pair[:-1]
    votes = np.bincount(np.cumsum(new_pair) - 1, weights=scores[order])
    first_hit = order[new_pair]
    vstay = stay_of[first_hit]
    vunit = unit_ids[first_hit]
    # Winner per stay: the smallest unit id among its pairs holding
    # the stay's highest vote.
    new_stay = np.ones(len(vstay), dtype=bool)
    new_stay[1:] = vstay[1:] != vstay[:-1]
    heads = np.flatnonzero(new_stay)
    best = np.maximum.reduceat(votes, heads)[np.cumsum(new_stay) - 1]
    winner_of[vstay[heads]] = np.minimum.reduceat(
        np.where(votes == best, vunit, n_units), heads
    )
    winning = winner_of[stay_of] == unit_ids
    return winner_of, stay_of[winning], hit_idx[winning]


def attach_semantics(
    trajectories: Sequence[SemanticTrajectory],
    props: Sequence[SemanticProperty],
) -> List[SemanticTrajectory]:
    """New trajectories carrying ``props``, the semantics of their
    stay points flattened in trajectory order (inputs are not mutated).
    """
    out: List[SemanticTrajectory] = []
    cursor = 0
    # reprolint: allow-loop -- reassembling per-trajectory objects
    # from the flat recognition results; not array iteration.
    for st in trajectories:
        stays = [
            sp.with_semantics(props[cursor + i])
            for i, sp in enumerate(st.stay_points)
        ]
        cursor += len(st.stay_points)
        out.append(SemanticTrajectory(st.traj_id, stays))
    return out


class _TagTables:
    """The per-diagram lookup tables of :meth:`CSDRecognizer.
    assemble_semantics`, with tags as integer codes.

    ``poi_codes[i]`` is POI ``i``'s tag; ``qualifies[u, c]`` says tag
    ``c`` holds at least ``min_tag_share`` of unit ``u``'s distribution
    (the comparison the tag filter makes); ``dominant[u]`` is unit
    ``u``'s dominant tag; ``names[c]`` is the string of code ``c``.  A
    unit without semantics is refused here, since no stay recognised
    there could be given any.
    """

    def __init__(self, csd: CitySemanticDiagram, min_tag_share: float) -> None:
        names, self.poi_codes = tag_codes(csd.poi_tags())
        lookup = {tag: code for code, tag in enumerate(names)}
        rows: List[int] = []
        cols: List[int] = []
        dominant: List[int] = []
        # reprolint: allow-loop -- one pass over the diagram's unit
        # distributions when a recognizer is built.
        for row, unit in enumerate(csd.units):
            for tag, share in unit.semantic_distribution.items():  # reprolint: allow-loop
                if share >= min_tag_share:
                    rows.append(row)
                    cols.append(lookup.setdefault(tag, len(lookup)))
            top = unit.dominant_tag()
            dominant.append(lookup.setdefault(top, len(lookup)))
        # A distribution may name tags no POI carries; they extend the
        # code table past the POI tags.
        self.names = np.array(list(lookup), dtype=object)
        self.qualifies = np.zeros((len(csd.units), len(lookup)), dtype=bool)
        self.qualifies[rows, cols] = True
        self.dominant = np.asarray(dominant, dtype=np.int64)


class CSDRecognizer:
    """Assigns semantic properties to stay points using a CSD.

    ``min_tag_share`` filters the winning unit's tag union: a tag only
    enters the stay point's semantic property when it holds at least
    that share of the unit's popularity-weighted distribution (the
    unit's dominant tag always qualifies).  Post-merge units may carry
    sub-2% minority tags; without the filter a stray office POI inside
    a hospital unit would pollute every stay point recognised there.

    Votes are always evaluated in ``float64``; ``query_dtype`` accepts
    only that value and stays as a name because existing callers pass it.
    """

    def __init__(
        self,
        csd: CitySemanticDiagram,
        r3sigma_m: float = 100.0,
        min_tag_share: float = 0.15,
        query_dtype: str = "float64",
    ) -> None:
        if not 0.0 < r3sigma_m < math.inf:  # also rejects NaN
            raise ValueError("r3sigma_m must be positive and finite")
        if not 0.0 <= min_tag_share <= 1.0:
            raise ValueError("min_tag_share must be a probability")
        if query_dtype != "float64":
            raise ValueError("query_dtype must be 'float64'")
        self.csd = csd
        self.r3sigma_m = r3sigma_m
        self.min_tag_share = min_tag_share
        self._tables = _TagTables(csd, min_tag_share)
        #: Algorithm 3's fixed-radius neighbour table: the diagram's
        #: unit-assigned POIs at radius ``r3sigma_m``.
        self.table = CellWindowTable(
            csd.poi_xy, r3sigma_m, np.flatnonzero(csd.unit_of != UNASSIGNED)
        )

    def recognize_point(self, sp: StayPoint) -> SemanticProperty:
        """Semantic property of one stay point (Algorithm 3 lines 5-11).

        Returns the empty property when no unit-assigned POI is in
        range — the stay point stays unrecognised, exactly like a stay
        point in the middle of the river of the paper's example.
        """
        return self.recognize_points([sp])[0]

    @array_contract(ret=SameLength(of="stay_points"))
    def recognize_points(
        self, stay_points: Sequence[StayPoint]
    ) -> List[SemanticProperty]:
        """Batched Algorithm 3 over a flat stay-point sequence.

        Projects the stay points with ``to_meters_array`` and runs
        :func:`vote_stays`, then assembles each winning unit's tag
        union, over the table's blocks of stays (their candidates fit
        :data:`~repro.geo.index.PAIR_BUDGET`).  Stays vote
        independently, so the blocks never change a result.

        Each call counts as one batch in the ``recognition.*`` metrics
        (``docs/OBSERVABILITY.md``); recognised/unmatched totals, batch
        sizes, and per-batch latency are recorded when the registry is
        enabled.
        """
        reg = get_registry()
        with reg.timer("recognition.batch") as timing:
            out = self._recognize_batch(stay_points)
        if not reg.enabled:
            return out
        reg.counter("recognition.batches").inc(1)
        reg.histogram("recognition.batch_latency_s").observe(timing.elapsed)
        reg.histogram(
            "recognition.batch_size", buckets=DEFAULT_SIZE_BUCKETS
        ).observe(float(len(out)))
        recognized = sum(1 for prop in out if prop is not NO_SEMANTICS)
        reg.counter("recognition.stays.recognized").inc(recognized)
        reg.counter("recognition.stays.unmatched").inc(
            len(out) - recognized
        )
        return out

    @array_contract(ret=ArraySpec(dtype="float64", cols=2))
    def project_stays(
        self, stay_points: Sequence[StayPoint]
    ) -> MetersArray:
        """Stay-point coordinates projected to local metres, ``(n, 2)``."""
        lonlat = np.fromiter(
            chain.from_iterable((sp.lon, sp.lat) for sp in stay_points),
            dtype=np.float64,
            count=2 * len(stay_points),
        ).reshape(-1, 2)
        return self.csd.projection.to_meters_array(lonlat)

    def _recognize_batch(
        self, stay_points: Sequence[StayPoint]
    ) -> List[SemanticProperty]:
        """The uninstrumented batched kernel behind
        :meth:`recognize_points`, one block at a time."""
        xy = self.project_stays(stay_points)
        out: List[SemanticProperty] = []
        # reprolint: allow-loop -- memory blocking over stays.
        for start, stop in self.table.blocks(xy):
            votes = vote_stays(self.csd, self.table, xy[start:stop])
            out.extend(self.assemble_semantics(*votes))
        return out

    @array_contract(
        winner_of=ArraySpec(dtype="int64", ndim=1),
        win_stay=ArraySpec(dtype="int64", ndim=1, same_length_as="win_poi"),
        win_poi=ArraySpec(dtype="int64", ndim=1),
        ret=SameLength(of="winner_of"),
    )
    def assemble_semantics(
        self,
        winner_of: IndexArray,
        win_stay: IndexArray,
        win_poi: IndexArray,
    ) -> List[SemanticProperty]:
        """Marshal :func:`vote_stays` output into semantic properties.

        Builds, for every recognised stay, the tag union of the winning
        unit's in-range POIs filtered by ``min_tag_share``, plus the
        unit's dominant tag.  The union is a ``(stay, tag)`` boolean
        matrix filled by two fancy-index assignments; only the output
        frozensets are built in Python.  Unmatched stays get the shared
        :data:`NO_SEMANTICS` object.
        """
        tables = self._tables
        out: List[SemanticProperty] = [NO_SEMANTICS] * len(winner_of)
        recognised = (winner_of != UNASSIGNED).nonzero()[0]
        if not len(recognised):
            return out
        in_range = np.zeros((len(winner_of), len(tables.names)), dtype=bool)
        # Every pair of one stay has the same winning unit, so repeated
        # (stay, tag) cells receive the same flag.
        tag = tables.poi_codes[win_poi]
        in_range[win_stay, tag] = tables.qualifies[winner_of[win_stay], tag]
        in_range[recognised, tables.dominant[winner_of[recognised]]] = True
        stay_at, tag_at = in_range.nonzero()
        names = tables.names[tag_at].tolist()
        start = 0
        # reprolint: allow-loop -- one frozenset per recognised stay;
        # output objects, not kernel math.
        for stay, end in zip(
            recognised.tolist(),
            stay_at.searchsorted(recognised, side="right").tolist(),
        ):
            out[stay] = frozenset(names[start:end])
            start = end
        return out

    def recognize(
        self, trajectories: Sequence[SemanticTrajectory]
    ) -> List[SemanticTrajectory]:
        """Algorithm 3 over a whole dataset: new trajectories with
        semantics filled in (inputs are not mutated), recognised as one
        batch."""
        flat = [sp for st in trajectories for sp in st.stay_points]
        return attach_semantics(trajectories, self.recognize_points(flat))
