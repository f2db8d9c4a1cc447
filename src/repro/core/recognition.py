"""Semantic recognition (Section 4.2, Algorithm 3).

For each stay point, all POIs within ``R_3sigma`` vote for the semantic
unit they belong to, weighted by ``pop(p^I) * ||p^I, sp||``.  The unit
with the highest aggregate vote wins, and the stay point receives the
union of tags of the winning unit's in-range POIs.  Voting by unit —
rather than by single best POI — is what makes recognition robust to
GPS noise and to semantically complex areas.

Recognition is embarrassingly batchable: :meth:`CSDRecognizer.
recognize_points` projects the whole stay-point corpus at once, runs a
single CSR range query over the POI grid, and resolves every vote with
``np.bincount`` over ``(stay, unit)`` pairs.  The scalar
:meth:`CSDRecognizer.recognize_point` is a single-point wrapper over
the same kernel, so both paths are exactly equivalent.

The voting kernel itself is split out as :func:`vote_stays`, a pure
array function over the CSD.  Votes for different stay points never
interact, so a chunk of the corpus voted in a forked worker is
bit-identical to the same slice of one big serial batch — that
per-stay independence is what lets ``recognize(..., n_jobs=N)`` fan out
over ``repro.parallel`` without any tolerance games.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.contracts import ArraySpec, SameLength, array_contract
from repro.core.csd import UNASSIGNED, CitySemanticDiagram
from repro.data.trajectory import (
    NO_SEMANTICS,
    SemanticProperty,
    SemanticTrajectory,
    StayPoint,
)
from repro.geo.distance import gaussian_coefficients, gaussian_coefficients32
from repro.obs import DEFAULT_SIZE_BUCKETS, get_registry
from repro.types import Float64Array, IndexArray, MetersArray

#: Below this many stays per worker the fork/dispatch overhead of the
#: process pool outweighs the recognition work itself; ``n_jobs`` is
#: silently reduced (possibly to serial) so no chunk falls under it.
_MIN_STAYS_PER_JOB = 512


@array_contract(
    poi_xy=ArraySpec(dtype="float32", cols=2),
    stay_xy=ArraySpec(dtype="float32", cols=2, same_length_as="poi_xy"),
    popularity=ArraySpec(
        dtype="float32", ndim=1, same_length_as="poi_xy"
    ),
    ret=ArraySpec(dtype="float32", ndim=1, finite=True),
)
def _vote_scores_f32(
    poi_xy: "np.ndarray[tuple[int, int], np.dtype[np.float32]]",
    stay_xy: "np.ndarray[tuple[int, int], np.dtype[np.float32]]",
    popularity: "np.ndarray[tuple[int], np.dtype[np.float32]]",
    r3sigma_m: float,
) -> "np.ndarray[tuple[int], np.dtype[np.float32]]":
    """Single-precision vote scores for gathered (POI, stay) hit pairs.

    The opt-in fast path of :func:`vote_stays`: distance, Gaussian
    coefficient, and popularity weighting all evaluate in ``float32``
    (half the memory traffic of the default kernel).  The contract pins
    every array to ``float32`` so an accidental ``float64`` upcast —
    which would silently erase the speedup — fails loudly under
    ``REPRO_SANITIZE=1``.
    """
    d = np.sqrt(((poi_xy - stay_xy) ** 2).sum(axis=1))
    return popularity * gaussian_coefficients32(d, r3sigma_m)


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
    xy: MetersArray,
    r3sigma_m: float,
    use_float32: bool = False,
) -> Tuple[IndexArray, IndexArray, IndexArray]:
    """The numeric half of Algorithm 3 over projected stay coordinates.

    Runs one batched range query over ``source``'s POI grid,
    accumulates popularity-weighted votes per ``(stay, unit)`` pair
    with ``np.bincount`` (sequential in hit order, so totals match a
    per-point left-to-right sum bit for bit), and breaks vote ties on
    the smaller unit id.

    Returns ``(winner_of, win_stay, win_poi)``: the winning unit id per
    stay (``UNASSIGNED`` where no unit-assigned POI is in range), plus
    the ``(stay, poi)`` hit pairs belonging to each stay's winning unit
    — everything the semantic assembly step needs, and nothing that
    cannot cross a process boundary cheaply.  ``use_float32`` evaluates
    the vote scores in single precision (:func:`_vote_scores_f32`);
    winners are unchanged whenever the vote margin exceeds float32
    noise (asserted on the standard workload by
    ``tests/test_kernel_equivalence.py``).
    """
    pts = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    winner_of = np.full(n, UNASSIGNED, dtype=np.int64)
    no_pairs = np.empty(0, dtype=np.int64)
    if n == 0:
        return winner_of, no_pairs, no_pairs.copy()
    hit_idx, offsets = source.range_query_many(pts, r3sigma_m)
    if len(hit_idx) == 0:
        return winner_of, no_pairs, no_pairs.copy()
    stay_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    unit_ids = source.unit_of[hit_idx]
    keep = unit_ids != UNASSIGNED
    if not keep.any():
        return winner_of, no_pairs, no_pairs.copy()
    hit_idx = hit_idx[keep]
    stay_of = stay_of[keep]
    unit_ids = unit_ids[keep]
    if use_float32:
        # bincount below upcasts weights to float64 regardless; casting
        # here keeps the accumulation identical between the serial and
        # worker paths while the heavy part (gather/distance/exp) ran
        # in single precision.
        scores: Float64Array = _vote_scores_f32(
            source.poi_xy[hit_idx].astype(np.float32),
            pts[stay_of].astype(np.float32),
            source.popularity[hit_idx].astype(np.float32),
            r3sigma_m,
        ).astype(np.float64)
    else:
        d = np.sqrt(
            ((source.poi_xy[hit_idx] - pts[stay_of]) ** 2).sum(axis=1)
        )
        scores = source.popularity[hit_idx] * gaussian_coefficients(
            d, r3sigma_m
        )
    reg = get_registry()
    if reg.enabled:
        reg.counter("recognition.votes.cast").inc(int(len(scores)))
    # Vote totals per (stay, unit) pair without per-point dicts.
    n_units = max(source.n_units, 1)
    pair = stay_of.astype(np.int64) * n_units + unit_ids
    upair, inverse = np.unique(pair, return_inverse=True)
    votes = np.bincount(inverse, weights=scores)
    vstay = upair // n_units
    vunit = upair % n_units
    # Winner per stay: highest vote, ties to the smaller unit id.
    order = np.lexsort((vunit, -votes, vstay))
    first = np.ones(len(order), dtype=bool)
    first[1:] = vstay[order][1:] != vstay[order][:-1]
    win_rows = order[first]
    winner_of[vstay[win_rows]] = vunit[win_rows]
    winning = winner_of[stay_of] == unit_ids
    return winner_of, stay_of[winning], hit_idx[winning]


@array_contract(ret=ArraySpec(dtype="int64", ndim=1))
def chunk_bounds(
    n_items: int, n_jobs: int, min_per_job: int = _MIN_STAYS_PER_JOB
) -> IndexArray:
    """Contiguous chunk boundaries for fanning ``n_items`` over workers.

    Returns ``k + 1`` ascending bounds with ``k <= n_jobs`` chunks,
    every chunk non-empty and — whenever ``n_items >= min_per_job`` —
    at least ``min_per_job`` items long.  The naive
    ``np.linspace(0, n, n_jobs + 1)`` split respected the minimum only
    *before* rounding: just above the threshold it could round a chunk
    down to a sliver (or, for ``n_items < n_jobs``, produce genuinely
    empty chunks).  Clamping the chunk *count* first makes both
    impossible.  ``k == 1`` (a single ``[0, n]`` chunk) is the caller's
    signal to stay serial.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    if min_per_job < 1:
        raise ValueError("min_per_job must be at least 1")
    if n_items <= 0:
        return np.zeros(1, dtype=np.int64)
    k = max(1, min(n_jobs, n_items // min_per_job))
    bounds = np.linspace(0, n_items, k + 1).astype(np.int64)
    bounds[0] = 0
    bounds[-1] = n_items
    return bounds


class CSDRecognizer:
    """Assigns semantic properties to stay points using a CSD.

    ``min_tag_share`` filters the winning unit's tag union: a tag only
    enters the stay point's semantic property when it holds at least
    that share of the unit's popularity-weighted distribution (the
    unit's dominant tag always qualifies).  Post-merge units may carry
    sub-2% minority tags; without the filter a stray office POI inside
    a hospital unit would pollute every stay point recognised there.

    ``query_dtype`` selects the voting kernel's precision:
    ``"float64"`` (default) is bit-identical to the scalar oracle;
    ``"float32"`` halves the kernel's memory traffic and is validated
    to produce identical unit assignments on the standard workload
    (see ``docs/PARALLELISM.md`` for when the opt-in is safe).
    """

    def __init__(
        self,
        csd: CitySemanticDiagram,
        r3sigma_m: float = 100.0,
        min_tag_share: float = 0.15,
        query_dtype: str = "float64",
    ) -> None:
        if r3sigma_m <= 0:
            raise ValueError("r3sigma_m must be positive")
        if not 0.0 <= min_tag_share <= 1.0:
            raise ValueError("min_tag_share must be a probability")
        if query_dtype not in ("float64", "float32"):
            raise ValueError("query_dtype must be 'float64' or 'float32'")
        self.csd = csd
        self.r3sigma_m = r3sigma_m
        self.min_tag_share = min_tag_share
        self.query_dtype = query_dtype

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

        Projects every stay point with ``to_meters_array`` and runs
        :func:`vote_stays` as one batch, then assembles each winning
        unit's tag union.

        Each call counts as one batch in the ``recognition.*`` metrics
        (``docs/OBSERVABILITY.md``); recognised/unmatched totals, batch
        sizes, and per-batch latency are recorded when the registry is
        enabled.
        """
        reg = get_registry()
        with reg.timer("recognition.batch") as timing:
            out = self._recognize_batch(stay_points)
        self._record_batch_metrics(out, timing.elapsed)
        return out

    def _record_batch_metrics(
        self, out: List[SemanticProperty], elapsed: float
    ) -> None:
        """One batch's worth of ``recognition.*`` metrics (no-op when
        the registry is disabled)."""
        reg = get_registry()
        if not reg.enabled:
            return
        reg.counter("recognition.batches").inc(1)
        reg.histogram("recognition.batch_latency_s").observe(elapsed)
        reg.histogram(
            "recognition.batch_size", buckets=DEFAULT_SIZE_BUCKETS
        ).observe(float(len(out)))
        recognized = sum(1 for prop in out if prop is not NO_SEMANTICS)
        reg.counter("recognition.stays.recognized").inc(recognized)
        reg.counter("recognition.stays.unmatched").inc(
            len(out) - recognized
        )

    @array_contract(ret=ArraySpec(dtype="float64", cols=2))
    def project_stays(
        self, stay_points: Sequence[StayPoint]
    ) -> MetersArray:
        """Stay-point coordinates projected to local metres, ``(n, 2)``."""
        lonlat = np.array(
            [[sp.lon, sp.lat] for sp in stay_points], dtype=np.float64
        ).reshape(-1, 2)
        return self.csd.projection.to_meters_array(lonlat)

    def _recognize_batch(
        self, stay_points: Sequence[StayPoint]
    ) -> List[SemanticProperty]:
        """The uninstrumented batched kernel behind
        :meth:`recognize_points`."""
        if len(stay_points) == 0:
            return []
        xy = self.project_stays(stay_points)
        winner_of, win_stay, win_poi = vote_stays(
            self.csd, xy, self.r3sigma_m, self.query_dtype == "float32"
        )
        return self.assemble_semantics(winner_of, win_stay, win_poi)

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
        unit's in-range POIs filtered by ``min_tag_share``.  This is
        the Python-object half of recognition (strings and frozensets,
        no numpy kernel); the parallel path runs it once in the parent
        over the workers' concatenated numeric results.
        """
        n = len(winner_of)
        out: List[SemanticProperty] = [NO_SEMANTICS] * n
        tags = self.csd.poi_tags()
        in_range: List[set[str]] = [set() for _ in range(n)]
        # reprolint: allow-loop -- tag-set union per stay point; tags are
        # Python strings, so this marshalling step has no numpy kernel.
        for stay, poi_idx in zip(win_stay, win_poi):
            in_range[stay].add(tags[poi_idx])
        # reprolint: allow-loop -- one iteration per recognised stay to
        # build its frozenset property; output objects, not kernel math.
        for stay in np.flatnonzero(winner_of != UNASSIGNED):
            unit = self.csd.unit(int(winner_of[stay]))
            distribution = unit.semantic_distribution
            prop = {
                tag
                for tag in in_range[stay]
                if distribution.get(tag, 0.0) >= self.min_tag_share
            }
            prop.add(unit.dominant_tag())
            out[stay] = frozenset(prop)
        return out

    def recognize(
        self,
        trajectories: Sequence[SemanticTrajectory],
        n_jobs: int = 1,
    ) -> List[SemanticTrajectory]:
        """Algorithm 3 over a whole dataset: new trajectories with
        semantics filled in (inputs are not mutated).

        ``n_jobs > 1`` fans the flattened stay-point corpus out over
        a per-call pool of forked workers (:mod:`repro.parallel`):
        each worker reads the CSD copy-on-write and votes one
        contiguous chunk.  Per-stay vote independence
        makes the reassembled output bit-identical to the serial path.
        Corpora too small to give every worker ``_MIN_STAYS_PER_JOB``
        stays run with fewer workers, or serially.
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        flat = [sp for st in trajectories for sp in st.stay_points]
        # Pass the module global explicitly so tests can lower it.
        bounds = chunk_bounds(len(flat), n_jobs, _MIN_STAYS_PER_JOB)
        if len(bounds) <= 2:
            props = self.recognize_points(flat)
        else:
            from repro.parallel import recognize_parallel

            reg = get_registry()
            with reg.timer("recognition.batch") as timing:
                props = recognize_parallel(self, flat, bounds)
            self._record_batch_metrics(props, timing.elapsed)
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
