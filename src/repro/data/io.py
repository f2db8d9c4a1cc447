"""CSV round-trips for POIs, taxi trips, and mined patterns.

A downstream user will want to persist the (expensive) simulation and
mining outputs; these helpers use the stdlib ``csv`` module with
explicit headers so the files are greppable and diff-friendly.
Semantic properties are serialised as ``|``-joined sorted tags; a
literal ``|`` or ``\\`` inside a tag is backslash-escaped so every tag
set round-trips exactly (``docs/DATA_FORMATS.md``).

All files are read and written as UTF-8 regardless of platform: venue
and POI names carry non-ASCII characters, and the platform-default
codec (cp1252 on Windows) would silently mangle them across machines.

Two reader families exist:

- ``read_*`` load a whole file and **raise** :class:`MalformedRowError`
  on the first bad record — the right contract for artifacts this
  package wrote itself;
- ``iter_*`` are streaming generators for *raw* corpora: each record is
  validated, malformed rows (bad floats, missing columns, non-finite
  coordinates, negative dwell) are routed to an ``on_bad_row`` sink
  with the row number and reason instead of aborting the run, and the
  ``ingest.rows`` / ``ingest.quarantined`` counters are emitted through
  :mod:`repro.obs`.  The fault-tolerant pipeline runner
  (:mod:`repro.runner`) plugs its quarantine file in as the sink.
"""

from __future__ import annotations

import csv
import io
import math
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
    Union,
)

from repro.data.poi import POI
from repro.data.taxi import TaxiTrip
from repro.data.trajectory import SemanticProperty, SemanticTrajectory, StayPoint
from repro.ioutil import atomic_write_text
from repro.obs import get_registry

PathLike = Union[str, Path]

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
BadRowSink = Callable[[QuarantinedRow], None]


class MalformedRowError(ValueError):
    """A CSV record failed validation and no quarantine sink was given."""

    def __init__(self, row: QuarantinedRow) -> None:
        super().__init__(
            f"row {row.row_number}: {row.reason} (raw: {row.raw!r})"
        )
        self.row = row


def _require(row: Dict[str, Optional[str]], field: str) -> str:
    value = row.get(field)
    if value is None:
        raise ValueError(f"missing column {field!r}")
    return value


def _finite_float(row: Dict[str, Optional[str]], field: str) -> float:
    text = _require(row, field)
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid float {text!r} in column {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r} in column {field!r}")
    return value


def _coordinate(
    row: Dict[str, Optional[str]], lon_field: str, lat_field: str
) -> Tuple[float, float]:
    lon = _finite_float(row, lon_field)
    lat = _finite_float(row, lat_field)
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon!r} out of range in {lon_field!r}")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat!r} out of range in {lat_field!r}")
    return lon, lat


def _raw_text(row: Dict[str, Optional[str]]) -> str:
    return ",".join("" if v is None else str(v) for v in row.values())


def _dispatch_bad_row(
    bad: QuarantinedRow, on_bad_row: Optional[BadRowSink]
) -> None:
    get_registry().counter("ingest.quarantined").inc()
    if on_bad_row is None:
        raise MalformedRowError(bad)
    on_bad_row(bad)


def _atomic_csv(path: PathLike, emit: "Callable[[Any], None]") -> None:
    """Build a CSV payload in memory and write it atomically.

    ``csv.writer`` over ``StringIO`` emits the same ``\\r\\n``
    terminators as the old ``open(path, "w", newline="")`` spelling, so
    artifact bytes (hence checkpoint SHA-256 digests) are unchanged;
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


def _poi_problem(header: Sequence[str], row: Sequence[str]) -> str:
    """Why :func:`read_pois` rejected ``row`` (error path only)."""
    record: Dict[str, Optional[str]] = dict(zip(header, row))
    try:
        for name in POI_FIELDS:
            _require(record, name)
        _coordinate(record, "lon", "lat")
    except ValueError as exc:
        return str(exc)
    return f"invalid integer poi_id {record['poi_id']!r}"


def read_pois(path: PathLike) -> List[POI]:
    """Read POIs written by :func:`write_pois`.

    Raises :class:`MalformedRowError` with the 1-based row number on
    the first bad record: a missing column, a non-integer ``poi_id``,
    or a coordinate that is unparseable, non-finite or out of range.
    """
    out: List[POI] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        col = {name: k for k, name in enumerate(header)}
        missing = any(name not in col for name in POI_FIELDS)
        i_id, i_lon, i_lat, i_major, i_minor, i_name = (
            col.get(name, 0) for name in POI_FIELDS
        )
        # Blank lines are skipped and not counted, as csv.DictReader does.
        for row_number, row in enumerate((r for r in reader if r), start=1):
            # Fast path; _poi_problem works out the reason for a failure.
            try:
                if missing:
                    raise ValueError
                lon = float(row[i_lon])
                lat = float(row[i_lat])
                # The chained comparison is False for NaN and +-inf too.
                if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                    raise ValueError
                poi_id = int(row[i_id])
                out.append(
                    POI(poi_id, lon, lat, row[i_major], row[i_minor], row[i_name])
                )
            except (ValueError, IndexError):
                reason = _poi_problem(header, row)
                bad = QuarantinedRow(row_number, reason, ",".join(row))
                _dispatch_bad_row(bad, None)
    return out


# -- taxi trips ---------------------------------------------------------------

TRIP_FIELDS = [
    "trip_id", "passenger_id",
    "pickup_lon", "pickup_lat", "pickup_t",
    "dropoff_lon", "dropoff_lat", "dropoff_t",
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


def _parse_trip(row: Dict[str, Optional[str]]) -> TaxiTrip:
    """One validated trip record; raises ``ValueError`` with the reason."""
    trip_text = _require(row, "trip_id")
    try:
        trip_id = int(trip_text)
    except ValueError:
        raise ValueError(f"invalid integer trip_id {trip_text!r}") from None
    pid_text = _require(row, "passenger_id")
    if pid_text == "":
        passenger_id: Optional[int] = None
    else:
        try:
            passenger_id = int(pid_text)
        except ValueError:
            raise ValueError(
                f"invalid integer passenger_id {pid_text!r}"
            ) from None
    pickup_lon, pickup_lat = _coordinate(row, "pickup_lon", "pickup_lat")
    dropoff_lon, dropoff_lat = _coordinate(row, "dropoff_lon", "dropoff_lat")
    pickup_t = _finite_float(row, "pickup_t")
    dropoff_t = _finite_float(row, "dropoff_t")
    if dropoff_t < pickup_t:
        raise ValueError(
            f"negative dwell: dropoff_t {dropoff_t!r} precedes "
            f"pickup_t {pickup_t!r}"
        )
    return TaxiTrip(
        trip_id=trip_id,
        passenger_id=passenger_id,
        pickup=StayPoint(pickup_lon, pickup_lat, pickup_t),
        dropoff=StayPoint(dropoff_lon, dropoff_lat, dropoff_t),
        pickup_truth=_require(row, "pickup_truth"),
        dropoff_truth=_require(row, "dropoff_truth"),
    )


def iter_trips(
    path: PathLike, on_bad_row: Optional[BadRowSink] = None
) -> Iterator[TaxiTrip]:
    """Stream taxi trips from CSV, validating every record.

    Malformed rows — unparseable numbers, missing columns, non-finite
    or out-of-range coordinates, negative dwell (``dropoff_t <
    pickup_t``) — go to ``on_bad_row`` with their 1-based data-row
    number and a reason; without a sink the first bad row raises
    :class:`MalformedRowError`.  Emits ``ingest.rows`` /
    ``ingest.quarantined`` counters through :mod:`repro.obs`.
    """
    reg = get_registry()
    rows = reg.counter("ingest.rows")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        for row_number, row in enumerate(reader, start=1):
            rows.inc()
            try:
                trip = _parse_trip(row)
            except ValueError as exc:
                _dispatch_bad_row(
                    QuarantinedRow(row_number, str(exc), _raw_text(row)),
                    on_bad_row,
                )
                continue
            yield trip


def read_trips(
    path: PathLike, on_bad_row: Optional[BadRowSink] = None
) -> List[TaxiTrip]:
    """Read taxi trips written by :func:`write_trips`.

    Strict by default: raises :class:`MalformedRowError` on the first
    invalid record; pass ``on_bad_row`` to quarantine instead.
    """
    return list(iter_trips(path, on_bad_row))


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


def _parse_traj_row(
    row: Dict[str, Optional[str]]
) -> Tuple[int, int, Optional[StayPoint]]:
    """``(traj_id, order, stay_point)``; empty-trajectory markers parse
    to ``(traj_id, -1, None)``."""
    traj_text = _require(row, "traj_id")
    try:
        traj_id = int(traj_text)
    except ValueError:
        raise ValueError(f"invalid integer traj_id {traj_text!r}") from None
    order_text = _require(row, "order")
    if order_text == _EMPTY_TRAJ_ORDER:
        return traj_id, -1, None
    try:
        order = int(order_text)
    except ValueError:
        raise ValueError(f"invalid integer order {order_text!r}") from None
    if order < 0:
        raise ValueError(f"negative order {order!r}")
    lon, lat = _coordinate(row, "lon", "lat")
    t = _finite_float(row, "t")
    sp = StayPoint(lon, lat, t, _str_to_tags(_require(row, "semantics")))
    return traj_id, order, sp


def iter_semantic_trajectories(
    path: PathLike, on_bad_row: Optional[BadRowSink] = None
) -> Iterator[SemanticTrajectory]:
    """Stream trajectories written by :func:`write_semantic_trajectories`.

    Rows belonging to one trajectory must be contiguous in the file (as
    the writer emits them); stay points are ordered by their ``order``
    column within each trajectory.  Validation and quarantine semantics
    match :func:`iter_trips`.  A quarantined row drops only that stay
    point, never the whole trajectory.
    """
    reg = get_registry()
    rows = reg.counter("ingest.rows")
    current_id: Optional[int] = None
    current: List[Tuple[int, StayPoint]] = []

    def flush(traj_id: int) -> SemanticTrajectory:
        current.sort(key=lambda pair: pair[0])
        return SemanticTrajectory(traj_id, [sp for _o, sp in current])

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        for row_number, row in enumerate(reader, start=1):
            rows.inc()
            try:
                traj_id, order, sp = _parse_traj_row(row)
            except ValueError as exc:
                _dispatch_bad_row(
                    QuarantinedRow(row_number, str(exc), _raw_text(row)),
                    on_bad_row,
                )
                continue
            if traj_id != current_id:
                if current_id is not None:
                    yield flush(current_id)
                current_id = traj_id
                current = []
            if sp is not None:
                current.append((order, sp))
    if current_id is not None:
        yield flush(current_id)


def read_semantic_trajectories(
    path: PathLike, on_bad_row: Optional[BadRowSink] = None
) -> List[SemanticTrajectory]:
    """Read trajectories written by :func:`write_semantic_trajectories`.

    Unlike the streaming iterator this loader tolerates rows of one
    trajectory being scattered through the file: trajectories are
    ordered by id and stay points by ``order``.  Zero-stay-point
    trajectories written by the marker row are preserved.
    """
    reg = get_registry()
    rows = reg.counter("ingest.rows")
    by_id: Dict[int, List[Tuple[int, StayPoint]]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        for row_number, row in enumerate(reader, start=1):
            rows.inc()
            try:
                traj_id, order, sp = _parse_traj_row(row)
            except ValueError as exc:
                _dispatch_bad_row(
                    QuarantinedRow(row_number, str(exc), _raw_text(row)),
                    on_bad_row,
                )
                continue
            slot = by_id.setdefault(traj_id, [])
            if sp is not None:
                slot.append((order, sp))
    out: List[SemanticTrajectory] = []
    for traj_id in sorted(by_id):
        pairs = sorted(by_id[traj_id], key=lambda pair: pair[0])
        out.append(SemanticTrajectory(traj_id, [sp for _o, sp in pairs]))
    return out
