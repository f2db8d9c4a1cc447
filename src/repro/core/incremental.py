"""Incremental maintenance of a City Semantic Diagram.

The introduction notes that "with the help of User Generated Contents,
the number of POIs is growing rapidly" — a deployed diagram must absorb
new POIs without the full reconstruction cost.  The updater implements
the cheap online step plus a staleness signal for when to rebuild:

- a new POI joins the nearest existing unit when it is within the merge
  radius and semantically compatible with the unit's distribution
  (the same cosine rule as the offline merging step);
- otherwise it is tracked as *pending*: Algorithm 1 may only cluster it
  on the next full rebuild;
- :meth:`staleness` reports the pending fraction so callers can
  schedule that rebuild.

Between full rebuilds sits a third, cheaper tier: the updater tracks
which units are *dirty* — their membership changed, or a pending POI
landed in their merge-radius halo — and :meth:`repair` re-runs
purification and merging over exactly that dirty scope (Algorithms 2 +
the cosine merge), absorbing compatible pending POIs and splitting
units that drifted impure.  The result is bit-identical to a full
offline rebuild restricted to the same unit set; clean units are never
touched.  ``repro.stream`` drives this from its staleness gauge.

The updater reuses the package's kernels rather than keeping its own:
per-POI state is three plain float64/int64 arrays, each grown by one
``np.concatenate`` per :meth:`add_pois` batch; a batch's merge-radius
neighbourhoods come from one :class:`~repro.geo.index.GridIndex` query;
and unit records are built by
:func:`~repro.core.constructor.semantic_units`, as ``build_csd`` does.

A diagram change costs what changed.  Beside each unit's membership
list the updater keeps its :class:`~repro.core.csd.SemanticUnit`
record, seeded from the base diagram's units.  A unit that gains a
member and every unit a repair creates lose their record; a clean unit
a repair renumbers keeps its record under the new id.  :meth:`diagram`
rebuilds only the missing records, in one ``semantic_units`` call, and
the placement step reads a candidate's Eq. 6 distribution from its
record (rebuilding it first if it is missing).  The reuse is exact:
centroids and distributions are per-unit functions of the unit's
members, popularity and tags, none of which change while the record is
kept.

The updater never mutates the input diagram or a record it has handed
out; :meth:`diagram` returns a fresh :class:`CitySemanticDiagram` after
each batch, sharing the unchanged unit records with earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.core.constructor import semantic_units
from repro.core.csd import UNASSIGNED, CitySemanticDiagram, SemanticUnit
from repro.core.merging import cosine_similarity, merge_units
from repro.core.purification import purify
from repro.data.poi import POI
from repro.geo.index import GridIndex
from repro.obs import get_registry
from repro.types import CSRQuery, Float64Array, IndexArray, MetersArray


@dataclass(frozen=True)
class RepairReport:
    """What one :meth:`IncrementalCSD.repair` pass did.

    ``scope_units``/``scope_members`` record the dirty units (by their
    pre-repair ids) and their membership lists exactly as fed to
    purification; ``scope_pending`` the pending POI indices offered to
    the merge step.  ``new_units`` holds the resulting membership lists
    — the oracle test re-runs ``purify`` + ``merge_units`` offline on
    the same scope and asserts bit-identity.  ``absorbed`` lists the
    formerly-pending POI indices that joined a unit.
    """

    scope_units: Tuple[int, ...]
    scope_members: Tuple[Tuple[int, ...], ...]
    scope_pending: Tuple[int, ...]
    new_units: Tuple[Tuple[int, ...], ...]
    absorbed: Tuple[int, ...]

    @property
    def repaired(self) -> bool:
        return bool(self.scope_units)


class IncrementalCSD:
    """Absorbs new POIs into an existing diagram between rebuilds.

    Parameters
    ----------
    base:
        The offline-built diagram to extend.
    merge_radius_m / merge_cos:
        The offline merging thresholds; a new POI joins a unit only
        when it would also have merged offline.
    """

    def __init__(
        self,
        base: CitySemanticDiagram,
        merge_radius_m: float = 30.0,
        merge_cos: float = 0.9,
    ) -> None:
        if merge_radius_m <= 0:
            raise ValueError("merge_radius_m must be positive")
        if not 0.0 <= merge_cos <= 1.0:
            raise ValueError("merge_cos must be in [0, 1]")
        self.base = base
        self.merge_radius_m = merge_radius_m
        self.merge_cos = merge_cos
        # Working copies (the base diagram stays untouched), with the
        # diagram's float64/int64 dtypes pinned explicitly.
        self._pois: List[POI] = list(base.pois)
        self._tags: List[str] = [self._tag(p) for p in self._pois]
        self._xy: MetersArray = np.array(base.poi_xy, dtype=np.float64).reshape(-1, 2)
        self._popularity: Float64Array = np.array(base.popularity, dtype=np.float64)
        self._unit_of: IndexArray = np.array(base.unit_of, dtype=np.int64)
        self._members: List[List[int]] = [
            list(u.poi_indices) for u in base.units
        ]
        #: Each unit's record as :meth:`diagram` returns it, or ``None``
        #: once its membership changed and the record must be rebuilt.
        self._units: List[Optional[SemanticUnit]] = list(base.units)
        self._n_added = 0
        #: Online-pending POI indices (base leftovers are the offline
        #: algorithm's business and stay out of the repair scope).
        self._pending: Set[int] = set()
        #: Units whose membership or pending halo changed since the
        #: last :meth:`repair` (or construction).
        self._dirty: Set[int] = set()

    @array_contract(
        ret=(
            ArraySpec(dtype="float64", cols=2, item=0),
            ArraySpec(dtype="float64", ndim=1, finite=True, item=1),
            ArraySpec(dtype="int64", ndim=1, item=2),
        )
    )
    def array_state(self) -> Tuple[MetersArray, Float64Array, IndexArray]:
        """The live per-POI arrays ``(xy, popularity, unit_of)``,
        pinned to the diagram's float64/int64 contracts (checked under
        ``REPRO_SANITIZE=1``)."""
        return self._xy, self._popularity, self._unit_of

    def _within_merge_radius(self, centres: MetersArray) -> CSRQuery:
        """CSR hits of all POIs within ``merge_radius_m`` of each centre
        (cell size floored at 1 m, as in :func:`merge_units`)."""
        r = self.merge_radius_m
        return GridIndex(self._xy, max(r, 1.0)).query_radius_many(centres, r)

    # -- updates ---------------------------------------------------------

    def _tag(self, poi: POI) -> str:
        return poi.tag(self.base.tag_level)

    def add_poi(self, poi: POI) -> int:
        """Insert one POI; returns its unit id or ``UNASSIGNED``."""
        return self.add_pois([poi])[0]

    def add_pois(self, pois: Sequence[POI]) -> List[int]:
        """Insert POIs in order; returns the assigned unit ids.

        A new POI enters with popularity 0: no stay point has been
        counted against it yet.  Each POI joins the nearest compatible
        unit as it would in a one-at-a-time insert: POIs later in the
        batch are still ``UNASSIGNED`` when an earlier one is placed, so
        they never count as its neighbours, while an earlier absorbed
        POI extends a unit's reach for the later ones.
        """
        start = len(self._pois)
        new_xy = self.base.projection.to_meters_array([(p.lon, p.lat) for p in pois])
        self._pois.extend(pois)
        self._tags.extend(self._tag(p) for p in pois)
        self._xy = np.concatenate([self._xy, new_xy])
        self._popularity = np.concatenate(
            [self._popularity, np.zeros(len(pois), dtype=np.float64)]
        )
        self._unit_of = np.concatenate(
            [self._unit_of, np.full(len(pois), UNASSIGNED, dtype=np.int64)]
        )
        self._n_added += len(pois)

        indices, offsets = self._within_merge_radius(new_xy)
        out: List[int] = []
        for k in range(len(pois)):
            i = start + k
            candidates = self._candidate_units(i, indices[offsets[k] : offsets[k + 1]])
            unit_id = self._find_compatible_unit(candidates, self._tags[i])
            # Every unit within the merge radius saw its neighbourhood
            # change — either it gained a member or its pending halo
            # grew — so the whole candidate set enters the dirty scope
            # for the next partial repair.
            self._dirty.update(uid for _d2, uid in candidates)
            if unit_id == UNASSIGNED:
                self._pending.add(i)
            else:
                self._unit_of[i] = unit_id
                self._members[unit_id].append(i)
                self._units[unit_id] = None
            out.append(unit_id)
        self._publish_gauges()
        return out

    def _publish_gauges(self) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.gauge("incremental.added").set(float(self._n_added))
            reg.gauge("incremental.pending").set(float(self.n_pending))
            reg.gauge("incremental.staleness").set(self.staleness())
            reg.gauge("incremental.units.dirty").set(float(len(self._dirty)))

    def _candidate_units(
        self, i: int, neighbours: IndexArray
    ) -> List[Tuple[float, int]]:
        """``(d2, unit_id)`` of the units among POI ``i``'s
        ``neighbours``, nearest first; equal distances break
        deterministically on the smaller unit id, so assignment is
        invariant under any permutation of the neighbour order."""
        uids = self._unit_of[neighbours]
        assigned = uids != UNASSIGNED
        delta = self._xy[neighbours[assigned]] - self._xy[i]
        d2 = (delta * delta).sum(axis=1)
        # In (d2, uid) order a unit's first hit is its nearest member.
        nearest: Dict[int, float] = {}
        for dist, uid in sorted(zip(d2.tolist(), uids[assigned].tolist())):
            nearest.setdefault(uid, dist)
        return [(dist, uid) for uid, dist in nearest.items()]

    def _find_compatible_unit(
        self, candidates: Sequence[Tuple[float, int]], tag: str
    ) -> int:
        """Nearest candidate unit whose distribution accepts the tag."""
        for _d2, unit_id in candidates:
            distribution = self._unit(unit_id).semantic_distribution
            if cosine_similarity({tag: 1.0}, distribution) >= self.merge_cos:
                return unit_id
        return UNASSIGNED

    def _unit(self, unit_id: int) -> SemanticUnit:
        """The current record of one unit, rebuilt if it is missing."""
        unit = self._units[unit_id]
        if unit is None:
            self._rebuild_units([unit_id])
            unit = self._units[unit_id]
            assert unit is not None
        return unit

    def _rebuild_units(self, unit_ids: Sequence[int]) -> None:
        """Rebuild the records of ``unit_ids`` from their members with
        one :func:`semantic_units` call (which numbers its output from
        0, so each record takes its unit's id afterwards)."""
        fresh = semantic_units(
            [self._members[u] for u in unit_ids],
            self._xy,
            self._tags,
            self._popularity,
        )
        for unit_id, unit in zip(unit_ids, fresh):
            self._units[unit_id] = replace(unit, unit_id=unit_id)

    def restore_online_state(
        self,
        pending: Sequence[int],
        dirty: Sequence[int],
        n_added: int = 0,
    ) -> None:
        """Rehydrate online bookkeeping after a checkpoint restart.

        A diagram saved mid-stream already contains every POI — the
        pending ones simply carry ``UNASSIGNED`` — but which unassigned
        POIs are *online-pending* (vs. offline leftovers) and which
        units are dirty is state the diagram cannot express.  The
        stream runner persists those in its manifest and restores them
        here.
        """
        for i in pending:
            if not 0 <= i < len(self._pois):
                raise ValueError(f"pending index {i} is out of range")
            if self._unit_of[i] != UNASSIGNED:
                raise ValueError(
                    f"pending index {i} is assigned to unit "
                    f"{int(self._unit_of[i])}; the manifest state is stale"
                )
        for u in dirty:
            if not 0 <= u < len(self._members):
                raise ValueError(f"dirty unit {u} is out of range")
        self._pending = set(int(i) for i in pending)
        self._dirty = set(int(u) for u in dirty)
        self._n_added = int(n_added)

    # -- dirty-unit repair ------------------------------------------------

    def dirty_units(self) -> List[int]:
        """Units whose membership or pending halo changed since the
        last :meth:`repair` (sorted)."""
        return sorted(self._dirty)

    def pending_indices(self) -> List[int]:
        """Online-added POI indices still awaiting placement (sorted)."""
        return sorted(self._pending)

    def pending_in_halo(self, scope_units: Sequence[int]) -> List[int]:
        """Pending POIs within ``merge_radius_m`` of any member of the
        given units (sorted) — the merge candidates of a repair pass."""
        pending = sorted(self._pending)
        indices, offsets = self._within_merge_radius(self._xy[pending])
        in_scope = np.isin(self._unit_of[indices], list(scope_units))
        centre = np.repeat(np.arange(len(pending), dtype=np.int64), np.diff(offsets))
        return [pending[k] for k in np.unique(centre[in_scope]).tolist()]

    def repair(
        self, v_min_m2: float = 300.0, r3sigma_m: float = 100.0
    ) -> RepairReport:
        """Partial re-purification + re-merge of the dirty scope.

        Runs Algorithm 2 (:func:`~repro.core.purification.purify`) and
        the cosine merge (:func:`~repro.core.merging.merge_units`) over
        exactly the dirty units plus the pending POIs in their halo —
        bit-identical to a full offline rebuild restricted to the same
        unit set (the oracle test pins this).  Clean units keep their
        membership and relative order; unit ids are renumbered densely
        (clean units first, repaired units after), so :meth:`diagram`
        never materialises empty units.

        No-op (empty report) when nothing is dirty.
        """
        reg = get_registry()
        scope = sorted(self._dirty)
        if not scope:
            return RepairReport((), (), (), (), ())
        with reg.timer("incremental.repair"):
            scope_set = set(scope)
            scope_members = [list(self._members[u]) for u in scope]
            pend = self.pending_in_halo(scope)
            pure = purify(
                scope_members, self._xy, self._tags, v_min_m2, r3sigma_m
            )
            final = merge_units(
                pure,
                pend,
                self._xy,
                self._tags,
                self._popularity,
                self.merge_cos,
                self.merge_radius_m,
            )

            # Renumber: clean units first (original order), repaired
            # units after.  unit_of is rewritten vectorised through a
            # lookup table; scope members fall to UNASSIGNED there and
            # are reassigned from the new membership lists.
            keep_ids = [u for u in range(len(self._members)) if u not in scope_set]
            lookup = np.full(len(self._members), UNASSIGNED, dtype=np.int64)
            lookup[keep_ids] = np.arange(len(keep_ids), dtype=np.int64)
            unit_of = self._unit_of
            assigned = unit_of != UNASSIGNED
            unit_of[assigned] = lookup[unit_of[assigned]]
            new_members = [self._members[u] for u in keep_ids]
            for members in final:
                unit_of[members] = len(new_members)
                new_members.append(list(members))
            absorbed = tuple(i for i in pend if unit_of[i] != UNASSIGNED)
            self._members = new_members
            # Clean units keep their records under their new ids (a new
            # object when the id moved: earlier diagrams hold the old
            # one); the repaired units' records are built on demand.
            self._units = [
                _renumbered(self._units[u], unit_id)
                for unit_id, u in enumerate(keep_ids)
            ] + [None] * len(final)
            self._pending.difference_update(absorbed)
            self._dirty.clear()
        reg.counter("incremental.repairs").inc(1)
        reg.counter("incremental.repair.units").inc(len(scope))
        reg.counter("incremental.repair.absorbed").inc(len(absorbed))
        self._publish_gauges()
        return RepairReport(
            scope_units=tuple(scope),
            scope_members=tuple(tuple(m) for m in scope_members),
            scope_pending=tuple(pend),
            new_units=tuple(tuple(m) for m in final),
            absorbed=absorbed,
        )

    # -- views --------------------------------------------------------------

    @property
    def n_added(self) -> int:
        return self._n_added

    @property
    def n_pending(self) -> int:
        """POIs awaiting the next full rebuild."""
        return len(self._pending)

    def staleness(self) -> float:
        """Fraction of all POIs that the online step could not place."""
        total = len(self._pois)
        return len(self._pending) / total if total else 0.0

    def needs_rebuild(self, threshold: float = 0.05) -> bool:
        """True once the pending fraction exceeds ``threshold``."""
        return self.staleness() > threshold

    def diagram(self) -> CitySemanticDiagram:
        """Materialise the updated diagram.

        Only the units whose membership changed since their record was
        last built are rebuilt; the rest are the records an earlier
        diagram (or the base) already holds.  The per-POI arrays are
        copies and no record is ever modified, so the returned diagram
        does not change when the updater absorbs or repairs afterwards.
        """
        stale = [u for u, unit in enumerate(self._units) if unit is None]
        if stale:
            self._rebuild_units(stale)
        units: List[SemanticUnit] = [u for u in self._units if u is not None]
        return CitySemanticDiagram(
            pois=list(self._pois),
            projection=self.base.projection,
            poi_xy=self._xy.copy(),
            popularity=self._popularity.copy(),
            units=units,
            unit_of=self._unit_of.copy(),
            tag_level=self.base.tag_level,
        )


def _renumbered(
    unit: Optional[SemanticUnit], unit_id: int
) -> Optional[SemanticUnit]:
    """``unit`` under ``unit_id``: the same record when the id is
    unchanged, a copy sharing its fields otherwise."""
    if unit is None or unit.unit_id == unit_id:
        return unit
    return SemanticUnit(
        unit_id, unit.poi_indices, unit.centroid_xy, unit.semantic_distribution
    )
