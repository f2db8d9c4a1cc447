"""Persistence for the City Semantic Diagram.

Construction cost grows with POIs x stay points, while the diagram
itself is small; a downstream deployment builds the CSD offline and
serves recognition from the loaded artifact.  The format is a single
JSON document (stdlib only) carrying the POIs, per-POI popularity, unit
membership, and the projection anchor — everything
:class:`~repro.core.csd.CitySemanticDiagram` needs to reconstruct
itself exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.contracts import ArraySpec, array_contract
from repro.ioutil import strict_json_dump, strict_json_load
from repro.core.csd import CitySemanticDiagram, SemanticUnit
from repro.data.poi import POI
from repro.geo.projection import LocalProjection

PathLike = Union[str, Path]

#: Format marker so later revisions can migrate old artifacts.
FORMAT_VERSION = 1


@array_contract(csd=ArraySpec(dtype="int64", ndim=1, attr="unit_of"))
def save_csd(path: PathLike, csd: CitySemanticDiagram) -> None:
    """Serialise a diagram to JSON, atomically.

    Non-finite values are rejected before anything is written: a
    NaN/inf popularity would otherwise be emitted as the non-standard
    JSON tokens ``NaN``/``Infinity`` (Python's default
    ``allow_nan=True``), which other parsers reject.  Raises
    ``ValueError`` naming the first offending POI index.

    The document is written via :func:`repro.ioutil.strict_json_dump`
    (serialise in memory → ``*.tmp`` sibling → :func:`os.replace`), so
    a crash at any point leaves either the previous artifact or the new
    one — never a truncated ``csd.json``.  The runners' diagram
    checkpoints are exactly this write (retried, not re-wrapped), and
    ``repro serve`` loads whatever path it is handed, including
    artifacts written by ``repro build-csd --save``.
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
    document = {
        "format_version": FORMAT_VERSION,
        "tag_level": csd.tag_level,
        "projection": {
            "origin_lon": csd.projection.origin_lon,
            "origin_lat": csd.projection.origin_lat,
        },
        "pois": [
            [p.poi_id, p.lon, p.lat, p.major, p.minor, p.name]
            for p in csd.pois
        ],
        "popularity": csd.popularity.tolist(),
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
    # strict_json_dump's allow_nan=False backstops the popularity check
    # above for any other float field (centroids, distributions):
    # strict JSON or no file at all.  sort_keys=False preserves the
    # documented field order of existing artifacts.
    strict_json_dump(path, document, sort_keys=False)


@array_contract(
    ret=[
        ArraySpec(dtype="int64", ndim=1, attr="unit_of"),
        ArraySpec(dtype="float64", ndim=1, finite=True, attr="popularity"),
    ]
)
def load_csd(path: PathLike) -> CitySemanticDiagram:
    """Reconstruct a diagram saved by :func:`save_csd`.

    Raises :class:`repro.ioutil.TornArtifactError` (naming the file) if
    the artifact is truncated or invalid JSON, and ``ValueError`` on
    unknown format versions or structurally inconsistent documents.
    """
    document = strict_json_load(path)
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported CSD format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    projection = LocalProjection(
        document["projection"]["origin_lon"],
        document["projection"]["origin_lat"],
    )
    pois = [
        POI(int(pid), float(lon), float(lat), major, minor, name)
        for pid, lon, lat, major, minor, name in document["pois"]
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
        popularity=np.asarray(document["popularity"], dtype=float),
        units=units,
        # np.int64 explicitly: dtype=int is platform-dependent (int32
        # on Windows) and would break the repo-wide int64 index/label
        # contract (docs/STATIC_ANALYSIS.md).
        unit_of=np.asarray(document["unit_of"], dtype=np.int64),
        tag_level=document.get("tag_level", "major"),
    )
    _check_consistency(csd)
    return csd


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
