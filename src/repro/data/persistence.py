"""Persistence for the City Semantic Diagram.

Construction cost grows with POIs x stay points, while the diagram
itself is small; a downstream deployment builds the CSD offline and
serves recognition from the loaded artifact.  The format (version 3,
stdlib JSON) is a document carrying unit membership and the projection
anchor, plus the POI table — each row a POI with its popularity — in
content-addressed segment files (``pois-<sha256>.json``) beside it,
listed in order: everything
:class:`~repro.core.csd.CitySemanticDiagram` needs to reconstruct
itself exactly.  A POI's popularity is fixed once it is written (the
batch build scores every POI once; the stream enters new POIs at 0.0
and never re-scores them), so saving a diagram that only grew by
appended POIs writes one segment for them and a new document.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.ioutil import (
    TornArtifactError,
    atomic_write_bytes,
    atomic_write_text,
    strict_json_dumps,
    strict_json_load,
    strict_json_loads,
)
from repro.core.csd import CitySemanticDiagram, SemanticUnit
from repro.data.poi import POI
from repro.geo.projection import LocalProjection

PathLike = Union[str, Path]

#: Format marker; a document of any other version is refused.
FORMAT_VERSION = 3


@dataclass(frozen=True)
class PoiSegment:
    """One POI segment file a diagram document references: its name
    (beside the document), the SHA-256 of its bytes, and its row
    count."""

    file: str
    sha256: str
    count: int


@array_contract(csd=ArraySpec(dtype="int64", ndim=1, attr="unit_of"))
def save_csd(
    path: PathLike,
    csd: CitySemanticDiagram,
    committed: Sequence[PoiSegment] = (),
) -> List[PoiSegment]:
    """Serialise a diagram atomically; returns the POI segments the
    written document lists.

    ``committed`` are segments already beside ``path`` that hold the
    first POIs of ``csd`` — what an earlier save of a diagram this one
    extends returned.  They fix those POIs' rows *and their popularity*:
    only the POIs after them are written, as one new segment of
    ``[poi_id, lon, lat, major, minor, name, popularity]`` rows (none if
    there are none), so a diagram that re-scored a committed POI must be
    saved without ``committed``.  A plain ``save_csd(path, csd)`` writes
    the whole table as one segment.

    A NaN/inf popularity raises ``ValueError`` naming the first
    offending POI index before anything is written (Python would emit
    the non-standard JSON tokens ``NaN``/``Infinity``).  Both payloads
    are serialised in memory, then the segment and the document are
    each written atomically through :mod:`repro.ioutil`, segment first:
    a crash leaves the previous document or the new one, never a torn
    ``csd.json`` or a document whose segment is missing.  The runners'
    diagram checkpoints are exactly this save (retried, not
    re-wrapped), and ``repro serve`` loads whatever path it is handed.
    """
    popularity = np.asarray(csd.popularity, dtype=float)
    bad = np.flatnonzero(~np.isfinite(popularity))
    if len(bad):
        index = int(bad[0])
        raise ValueError(
            f"popularity of POI index {index} is non-finite "
            f"({popularity[index]!r}); a CSD with NaN/inf popularity "
            "cannot be serialised to standard JSON"
        )
    covered = sum(segment.count for segment in committed)
    if covered > csd.n_pois:
        raise ValueError(
            f"committed segments hold {covered} POIs but the diagram "
            f"has only {csd.n_pois}"
        )
    segments = list(committed)
    segment_data = b""
    if covered < csd.n_pois:
        segment_data = strict_json_dumps(
            [
                [p.poi_id, p.lon, p.lat, p.major, p.minor, p.name, pop]
                for p, pop in zip(
                    csd.pois[covered:], popularity[covered:].tolist()
                )
            ]
        ).encode("utf-8")
        sha = hashlib.sha256(segment_data).hexdigest()
        segments.append(
            PoiSegment(f"pois-{sha}.json", sha, csd.n_pois - covered)
        )
    document = {
        "format_version": FORMAT_VERSION,
        "tag_level": csd.tag_level,
        "projection": {
            "origin_lon": csd.projection.origin_lon,
            "origin_lat": csd.projection.origin_lat,
        },
        "poi_segments": [
            {"file": seg.file, "sha256": seg.sha256, "count": seg.count}
            for seg in segments
        ],
        "unit_of": csd.unit_of.tolist(),
        "units": [
            {
                "unit_id": u.unit_id,
                "poi_indices": u.poi_indices,
                "centroid_xy": list(u.centroid_xy),
                "semantic_distribution": u.semantic_distribution,
            }
            for u in csd.units
        ],
    }
    # allow_nan=False backstops the popularity check above for any
    # other float field (centroids, distributions, coordinates): strict
    # JSON or no file at all.  sort_keys=False keeps the documented
    # field order.
    payload = strict_json_dumps(document, sort_keys=False)
    if segment_data:
        atomic_write_bytes(Path(path).parent / segments[-1].file, segment_data)
    atomic_write_text(path, payload)
    return segments


@array_contract(
    ret=[
        ArraySpec(dtype="int64", ndim=1, attr="unit_of"),
        ArraySpec(dtype="float64", ndim=1, finite=True, attr="popularity"),
    ]
)
def load_csd(path: PathLike) -> CitySemanticDiagram:
    """Reconstruct a diagram saved by :func:`save_csd`.

    Raises :class:`repro.ioutil.TornArtifactError` naming the file if
    the document or one of its POI segments is truncated, invalid
    JSON, missing, or does not hash to the SHA-256 the document lists;
    and ``ValueError`` on any format version but
    :data:`FORMAT_VERSION` or a structurally inconsistent document.
    """
    return read_csd(path)[0]


def read_csd(
    path: PathLike,
) -> Tuple[CitySemanticDiagram, List[PoiSegment]]:
    """:func:`load_csd` plus the document's POI segments — what a
    writer extending the diagram passes back to :func:`save_csd`."""
    document = strict_json_load(path)
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported CSD format version {version!r} in {path} "
            f"(this build reads version {FORMAT_VERSION} only); re-save "
            "the diagram with `repro build-csd --save`"
        )
    projection = LocalProjection(
        document["projection"]["origin_lon"],
        document["projection"]["origin_lat"],
    )
    segments = [
        PoiSegment(str(s["file"]), str(s["sha256"]), int(s["count"]))
        for s in document["poi_segments"]
    ]
    rows = [
        row
        for segment in segments
        for row in _read_segment(Path(path).parent / segment.file, segment)
    ]
    pois = [
        POI(int(pid), float(lon), float(lat), major, minor, name)
        for pid, lon, lat, major, minor, name, _pop in rows
    ]
    poi_xy = projection.to_meters_array([(p.lon, p.lat) for p in pois])
    units = [
        SemanticUnit(
            unit_id=int(u["unit_id"]),
            poi_indices=[int(i) for i in u["poi_indices"]],
            centroid_xy=(
                float(u["centroid_xy"][0]), float(u["centroid_xy"][1])
            ),
            semantic_distribution={
                str(tag): float(w)
                for tag, w in u["semantic_distribution"].items()
            },
        )
        for u in document["units"]
    ]
    csd = CitySemanticDiagram(
        pois=pois,
        projection=projection,
        poi_xy=poi_xy,
        popularity=np.array([row[6] for row in rows], dtype=np.float64),
        units=units,
        # np.int64 explicitly: dtype=int is platform-dependent (int32
        # on Windows) and would break the repo-wide int64 index/label
        # contract (docs/STATIC_ANALYSIS.md).
        unit_of=np.asarray(document["unit_of"], dtype=np.int64),
        tag_level=document.get("tag_level", "major"),
    )
    _check_consistency(csd)
    return csd, segments


def _read_segment(path: Path, segment: PoiSegment) -> list:
    """The rows of one POI segment, verified against its listing."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise TornArtifactError(
            str(path), "the POI segment the diagram references is missing"
        ) from None
    sha = hashlib.sha256(raw).hexdigest()
    if sha != segment.sha256:
        raise TornArtifactError(
            str(path),
            f"SHA-256 {sha[:12]}… does not match the diagram's "
            f"{segment.sha256[:12]}…",
        )
    rows = strict_json_loads(raw.decode("utf-8"), name=str(path))
    if len(rows) != segment.count:
        raise TornArtifactError(
            str(path),
            f"{len(rows)} POI rows where the diagram lists {segment.count}",
        )
    return rows


def _check_consistency(csd: CitySemanticDiagram) -> None:
    """Fail loudly on corrupt artifacts instead of mis-recognising."""
    if csd.unit_of.dtype != np.int64:
        raise ValueError(
            f"unit_of must be int64 (the repo-wide index/label "
            f"contract), got {csd.unit_of.dtype}"
        )
    for unit in csd.units:
        for i in unit.poi_indices:
            if not 0 <= i < csd.n_pois:
                raise ValueError(
                    f"unit {unit.unit_id} references POI index {i} "
                    f"outside the dataset"
                )
            if csd.unit_of[i] != unit.unit_id:
                raise ValueError(
                    f"unit_of[{i}] disagrees with unit {unit.unit_id}'s "
                    "membership list"
                )
