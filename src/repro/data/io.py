"""CSV round-trips for POIs, taxi trips, and mined patterns.

A downstream user will want to persist the (expensive) simulation and
mining outputs; these helpers use the stdlib ``csv`` module with
explicit headers so the files are greppable and diff-friendly.
Semantic properties are serialised as ``|``-joined sorted tags; a
literal ``|`` or ``\\`` inside a tag is backslash-escaped so every tag
set round-trips exactly (``docs/DATA_FORMATS.md``).

All files are written as UTF-8 regardless of platform: venue and POI
names carry non-ASCII characters, and the platform-default codec
(cp1252 on Windows) would silently mangle them across machines.
Readers also accept the byte-order mark that spreadsheet programs put
in front of a "CSV UTF-8" export.

Every reader runs over one loop, :func:`_records`.  It finds columns
by header name and validates each data row.  A malformed row (a bad
number, a missing column, a non-finite or out-of-range coordinate, a
negative dwell) goes to an ``on_bad_row`` sink with its row number and
reason, or raises :class:`MalformedRowError` without one.  Only raw
trips take a sink (:class:`repro.runner.Quarantine`); POI tables and
the package's own trajectory artifacts must be intact.  Every reader
emits the ``ingest.rows`` / ``ingest.quarantined`` counters.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.data.poi import POI
from repro.data.taxi import TaxiTrip
from repro.data.trajectory import SemanticProperty, SemanticTrajectory, StayPoint
from repro.ioutil import atomic_write_text
from repro.obs import get_registry

PathLike = Union[str, Path]
T = TypeVar("T")

_TAG_SEP = "|"
_TAG_ESC = "\\"

#: Marker stored in the ``order`` column for a trajectory that has no
#: stay points, so empty trajectories survive the CSV round-trip
#: instead of silently vanishing from the corpus.
_EMPTY_TRAJ_ORDER = ""


def _tags_to_str(semantics: Iterable[str]) -> str:
    """Serialise a tag set; ``|`` and ``\\`` inside tags are escaped."""
    return _TAG_SEP.join(
        t.replace(_TAG_ESC, _TAG_ESC + _TAG_ESC).replace(
            _TAG_SEP, _TAG_ESC + _TAG_SEP
        )
        for t in sorted(semantics)
    )


def _str_to_tags(text: str) -> SemanticProperty:
    """Parse :func:`_tags_to_str` output, honouring backslash escapes."""
    tags: List[str] = []
    current: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == _TAG_ESC and i + 1 < n:
            current.append(text[i + 1])
            i += 2
        elif ch == _TAG_SEP:
            tags.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    tags.append("".join(current))
    return frozenset(t for t in tags if t)


# -- record validation --------------------------------------------------------


@dataclass(frozen=True)
class QuarantinedRow:
    """One malformed input record routed around the pipeline.

    ``row_number`` is 1-based over *data* rows (the header is row 0),
    matching what ``awk NR-1`` or a spreadsheet shows after the header.
    """

    row_number: int
    reason: str
    raw: str


#: Sink signature for malformed records (see :class:`repro.runner.Quarantine`).
#: A sink returns ``False`` for a row it drops unreported (a resumed
#: stream re-reading its committed prefix); ``ingest.quarantined`` does
#: not count that row.
BadRowSink = Callable[[QuarantinedRow], Optional[bool]]


class MalformedRowError(ValueError):
    """A CSV record failed validation and no quarantine sink was given."""

    def __init__(self, path: PathLike, row: QuarantinedRow) -> None:
        super().__init__(
            f"{path}: row {row.row_number}: {row.reason} (raw: {row.raw!r})"
        )
        self.path = path
        self.row = row


def _finite_float(text: str, field: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid float {text!r} in column {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r} in column {field!r}")
    return value


def _coordinate(
    lon_text: str, lat_text: str, lon_field: str, lat_field: str
) -> Tuple[float, float]:
    lon = _finite_float(lon_text, lon_field)
    lat = _finite_float(lat_text, lat_field)
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon!r} out of range in {lon_field!r}")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat!r} out of range in {lat_field!r}")
    return lon, lat


def _integer(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid integer {field} {text!r}") from None


def _records(
    path: PathLike,
    fields: Sequence[str],
    parse: Callable[..., T],
    on_bad_row: Optional[BadRowSink] = None,
) -> Iterator[T]:
    """Validated records of a CSV file, one per data row.

    ``parse`` receives the row's values of ``fields`` as positional
    arguments and raises ``ValueError(reason)`` for a bad row.  A row
    lacking one of ``fields`` is bad with reason ``missing column``,
    naming the first such field, so list ``fields`` in the order
    ``parse`` validates them.  A bad row goes to ``on_bad_row``, or
    raises :class:`MalformedRowError` when there is no sink.  Blank
    lines are skipped and not numbered.
    """
    reg = get_registry()
    n_rows = reg.counter("ingest.rows")
    n_quarantined = reg.counter("ingest.quarantined")
    with open(path, newline="", encoding="utf-8-sig") as f:
        rows = (row for row in csv.reader(f) if row)
        column = {name: k for k, name in enumerate(next(rows, []))}
        index = [column.get(name, -1) for name in fields]
        # Every row lacks a field the header lacks.
        width = math.inf if -1 in index else max(index) + 1
        pick = operator.itemgetter(*index)
        for row_number, row in enumerate(rows, start=1):
            n_rows.inc()
            try:
                if len(row) < width:
                    first = next(
                        i for i, k in enumerate(index) if not 0 <= k < len(row)
                    )
                    raise ValueError(f"missing column {fields[first]!r}")
                record = parse(*pick(row))
            except ValueError as exc:
                bad = QuarantinedRow(row_number, str(exc), ",".join(row))
                if on_bad_row is None:
                    n_quarantined.inc()
                    raise MalformedRowError(path, bad) from None
                reported = True
                try:
                    reported = on_bad_row(bad) is not False
                finally:  # a sink that raises has reported the row
                    if reported:
                        n_quarantined.inc()
                continue
            yield record


def _atomic_csv(path: PathLike, emit: "Callable[[Any], None]") -> None:
    """Build a CSV payload in memory and write it atomically.

    ``csv.writer`` emits ``\\r\\n`` terminators, and
    :func:`repro.ioutil.atomic_write_text` writes them without newline
    translation.  Artifacts here are modest (bounded corpora or epoch
    slices), so buffering whole files trades negligible memory for
    crash atomicity.
    """
    buffer = io.StringIO()
    emit(csv.writer(buffer))
    atomic_write_text(path, buffer.getvalue())


# -- POIs -------------------------------------------------------------------

POI_FIELDS = ["poi_id", "lon", "lat", "major", "minor", "name"]


def write_pois(path: PathLike, pois: Sequence[POI]) -> None:
    """Write POIs to CSV with a header row, atomically."""

    def emit(writer: Any) -> None:
        writer.writerow(POI_FIELDS)
        for p in pois:
            writer.writerow([p.poi_id, p.lon, p.lat, p.major, p.minor, p.name])

    _atomic_csv(path, emit)


def _poi(
    poi_id: str, lon: str, lat: str, major: str, minor: str, name: str
) -> POI:
    x, y = _coordinate(lon, lat, "lon", "lat")
    return POI(_integer(poi_id, "poi_id"), x, y, major, minor, name)


def read_pois(path: PathLike) -> List[POI]:
    """Read POIs written by :func:`write_pois`.

    Raises :class:`MalformedRowError` with the 1-based row number on
    the first bad record: a missing column, a non-integer ``poi_id``,
    or a coordinate that is unparseable, non-finite or out of range.
    """
    return list(_records(path, POI_FIELDS, _poi))


# -- taxi trips ---------------------------------------------------------------

TRIP_FIELDS = [
    "trip_id", "passenger_id",
    "pickup_lon", "pickup_lat", "pickup_t",
    "dropoff_lon", "dropoff_lat", "dropoff_t",
    "pickup_truth", "dropoff_truth",
]

#: :data:`TRIP_FIELDS` in the order :func:`_trip` validates them.
_TRIP_CHECKS = [
    "trip_id", "passenger_id",
    "pickup_lon", "pickup_lat", "dropoff_lon", "dropoff_lat",
    "pickup_t", "dropoff_t",
    "pickup_truth", "dropoff_truth",
]


def write_trips(path: PathLike, trips: Iterable[TaxiTrip]) -> None:
    """Write taxi trips to CSV, atomically; anonymous passengers
    serialise as ''."""

    def emit(writer: Any) -> None:
        writer.writerow(TRIP_FIELDS)
        for tr in trips:
            writer.writerow([
                tr.trip_id,
                "" if tr.passenger_id is None else tr.passenger_id,
                tr.pickup.lon, tr.pickup.lat, tr.pickup.t,
                tr.dropoff.lon, tr.dropoff.lat, tr.dropoff.t,
                tr.pickup_truth, tr.dropoff_truth,
            ])

    _atomic_csv(path, emit)


def _trip(
    trip_id: str, passenger_id: str,
    pickup_lon: str, pickup_lat: str, dropoff_lon: str, dropoff_lat: str,
    pickup_t: str, dropoff_t: str,
    pickup_truth: str, dropoff_truth: str,
) -> TaxiTrip:
    tid = _integer(trip_id, "trip_id")
    pid = _integer(passenger_id, "passenger_id") if passenger_id else None
    p_lon, p_lat = _coordinate(
        pickup_lon, pickup_lat, "pickup_lon", "pickup_lat"
    )
    d_lon, d_lat = _coordinate(
        dropoff_lon, dropoff_lat, "dropoff_lon", "dropoff_lat"
    )
    p_t = _finite_float(pickup_t, "pickup_t")
    d_t = _finite_float(dropoff_t, "dropoff_t")
    if d_t < p_t:
        raise ValueError(
            f"negative dwell: dropoff_t {d_t!r} precedes pickup_t {p_t!r}"
        )
    return TaxiTrip(
        trip_id=tid,
        passenger_id=pid,
        pickup=StayPoint(p_lon, p_lat, p_t),
        dropoff=StayPoint(d_lon, d_lat, d_t),
        pickup_truth=pickup_truth,
        dropoff_truth=dropoff_truth,
    )


def iter_trips(
    path: PathLike, on_bad_row: Optional[BadRowSink] = None
) -> Iterator[TaxiTrip]:
    """Stream taxi trips from CSV, validating every record.

    Malformed rows — unparseable numbers, missing columns, non-finite
    or out-of-range coordinates, negative dwell (``dropoff_t <
    pickup_t``) — go to ``on_bad_row`` with their 1-based data-row
    number and a reason; without a sink the first bad row raises
    :class:`MalformedRowError`.  The file is read lazily, row by row.
    """
    return _records(path, _TRIP_CHECKS, _trip, on_bad_row)


# -- semantic trajectories -----------------------------------------------------

TRAJ_FIELDS = ["traj_id", "order", "lon", "lat", "t", "semantics"]


def write_semantic_trajectories(
    path: PathLike, trajectories: Iterable[SemanticTrajectory]
) -> None:
    """One row per stay point; ``order`` preserves sequence position.

    A trajectory with zero stay points emits a single marker row with
    an empty ``order`` column, so the trajectory count is preserved
    across the round-trip.  The write is atomic: checkpoint readers
    (runner resume, stream epoch restore) never see a torn file.
    """

    def emit(writer: Any) -> None:
        writer.writerow(TRAJ_FIELDS)
        for st in trajectories:
            if not st.stay_points:
                writer.writerow(
                    [st.traj_id, _EMPTY_TRAJ_ORDER, "", "", "", ""]
                )
                continue
            for k, sp in enumerate(st.stay_points):
                writer.writerow(
                    [st.traj_id, k, sp.lon, sp.lat, sp.t,
                     _tags_to_str(sp.semantics)]
                )

    _atomic_csv(path, emit)


def _stay(
    traj_id: str, order: str, lon: str, lat: str, t: str, semantics: str
) -> Tuple[int, int, Optional[StayPoint]]:
    """``(traj_id, order, stay_point)``; empty-trajectory markers parse
    to ``(traj_id, -1, None)``."""
    tid = _integer(traj_id, "traj_id")
    if order == _EMPTY_TRAJ_ORDER:
        return tid, -1, None
    position = _integer(order, "order")
    if position < 0:
        raise ValueError(f"negative order {position!r}")
    x, y = _coordinate(lon, lat, "lon", "lat")
    sp = StayPoint(x, y, _finite_float(t, "t"), _str_to_tags(semantics))
    return tid, position, sp


def read_semantic_trajectories(path: PathLike) -> List[SemanticTrajectory]:
    """Read trajectories written by :func:`write_semantic_trajectories`.

    Rows of one trajectory may be scattered through the file:
    trajectories are ordered by id and stay points by ``order``.
    Zero-stay-point trajectories written by the marker row are
    preserved.  Raises :class:`MalformedRowError` on the first bad row.
    """
    by_id: Dict[int, List[Tuple[int, StayPoint]]] = {}
    for traj_id, order, sp in _records(path, TRAJ_FIELDS, _stay):
        slot = by_id.setdefault(traj_id, [])
        if sp is not None:
            slot.append((order, sp))
    out: List[SemanticTrajectory] = []
    for traj_id in sorted(by_id):
        pairs = sorted(by_id[traj_id], key=lambda pair: pair[0])
        out.append(SemanticTrajectory(traj_id, [sp for _o, sp in pairs]))
    return out
