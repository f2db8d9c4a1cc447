"""SVG renderers for the City Semantic Diagram and mined patterns.

Pure-stdlib SVG generation: the Figure 6 view (unit hulls coloured per
dominant category) and the Figure 14 view (pattern arrows coloured per
time-of-week bucket).  Output opens in any browser.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.csd import CitySemanticDiagram
from repro.core.extraction import FineGrainedPattern
from repro.core.patterns import pattern_time_bucket, route_label
from repro.data.geojson import MIN_HULL_SIZE, _convex_hull
from repro.geo.projection import LocalProjection
from repro.ioutil import atomic_write_text
from repro.types import Float64Array, MetersArray, MetersXY

PathLike = Union[str, Path]

#: Width of every rendered SVG, in pixels; the height follows the extent.
WIDTH_PX = 900
#: Blank border around the drawing, in pixels.
MARGIN_PX = 20

#: Stable colour per major category (hex, chosen for mutual contrast).
CATEGORY_COLORS: Dict[str, str] = {
    "Residence": "#4e79a7",
    "Shop & Market": "#f28e2b",
    "Business & Office": "#59a14f",
    "Restaurant": "#e15759",
    "Entertainment": "#b07aa1",
    "Public Service": "#9c755f",
    "Traffic Stations": "#edc948",
    "Technology & Education": "#76b7b2",
    "Sports": "#ff9da7",
    "Government Agency": "#bab0ac",
    "Industry": "#8c564b",
    "Financial Service": "#17becf",
    "Medical Service": "#d62728",
    "Accommodation & Hotel": "#aec7e8",
    "Tourism": "#98df8a",
}
_FALLBACK_COLOR = "#888888"

BUCKET_COLORS: Dict[str, str] = {
    "weekday-morning": "#e15759",
    "weekday-afternoon": "#f28e2b",
    "weekday-night": "#4e79a7",
    "weekend-morning": "#76b7b2",
    "weekend-afternoon": "#59a14f",
    "weekend-night": "#b07aa1",
}


class _Canvas:
    """Maps metre coordinates into an SVG viewport and collects shapes."""

    def __init__(self, xy_min: Float64Array, xy_max: Float64Array) -> None:
        span = np.maximum(xy_max - xy_min, 1.0)
        self.scale = (WIDTH_PX - 2 * MARGIN_PX) / float(span.max())
        self.origin = xy_min
        self.height = int(span[1] * self.scale) + 2 * MARGIN_PX
        self.elements: List[str] = []

    def project(self, x: float, y: float) -> MetersXY:
        px = MARGIN_PX + (x - self.origin[0]) * self.scale
        # SVG y grows downward; flip north up.
        py = self.height - MARGIN_PX - (y - self.origin[1]) * self.scale
        return px, py

    def polygon(self, xy: MetersArray, fill: str, title: str) -> None:
        points = " ".join(
            f"{px:.1f},{py:.1f}" for px, py in (self.project(x, y) for x, y in xy)
        )
        self.elements.append(
            f'<polygon points="{points}" fill="{fill}" fill-opacity="0.55" '
            f'stroke="{fill}" stroke-width="1">'
            f"<title>{html.escape(title)}</title></polygon>"
        )

    def circle(self, x: float, y: float, r: float, fill: str, title: str) -> None:
        px, py = self.project(x, y)
        self.elements.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{r:.1f}" fill="{fill}" '
            f'fill-opacity="0.8"><title>{html.escape(title)}</title></circle>'
        )

    def polyline(
        self, xy: MetersArray, stroke: str, width: float, title: str
    ) -> None:
        points = " ".join(
            f"{px:.1f},{py:.1f}" for px, py in (self.project(x, y) for x, y in xy)
        )
        self.elements.append(
            f'<polyline points="{points}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.1f}" stroke-opacity="0.75" '
            f'marker-end="url(#arrow)">'
            f"<title>{html.escape(title)}</title></polyline>"
        )

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{WIDTH_PX}" height="{self.height}" '
            f'viewBox="0 0 {WIDTH_PX} {self.height}">\n'
            '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
            'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
            '<path d="M 0 0 L 10 5 L 0 10 z" fill="context-stroke"/>'
            "</marker></defs>\n"
            f'<rect width="100%" height="100%" fill="#fcfcf8"/>\n'
            f"{body}\n</svg>\n"
        )


def render_csd_svg(csd: CitySemanticDiagram) -> str:
    """The Figure 6 view: unit hulls coloured by dominant category."""
    if csd.n_pois == 0:
        raise ValueError("cannot render an empty diagram")
    canvas = _Canvas(csd.poi_xy.min(axis=0), csd.poi_xy.max(axis=0))
    for unit in csd.units:
        xy = csd.poi_xy[unit.poi_indices]
        tag = unit.dominant_tag()
        color = CATEGORY_COLORS.get(tag, _FALLBACK_COLOR)
        title = f"unit {unit.unit_id}: {tag} ({len(unit)} POIs)"
        if len(unit) >= MIN_HULL_SIZE:
            hull = _convex_hull(xy)
            if len(hull) >= 3:
                canvas.polygon(hull, color, title)
                continue
        cx, cy = xy.mean(axis=0)
        canvas.circle(cx, cy, 2.5, color, title)
    return canvas.render()


def render_patterns_svg(
    patterns: Sequence[FineGrainedPattern],
    projection: LocalProjection,
    color_by: str = "bucket",
) -> str:
    """The Figure 14 view: pattern arrows over the city extent.

    ``color_by`` is ``"bucket"`` (time-of-week) or ``"support"``
    (greyscale ramp by support).
    """
    if not patterns:
        raise ValueError("no patterns to render")
    if color_by not in ("bucket", "support"):
        raise ValueError("color_by must be 'bucket' or 'support'")
    all_xy = np.vstack([
        projection.to_meters_array(
            [(sp.lon, sp.lat) for sp in p.representatives]
        )
        for p in patterns
    ])
    canvas = _Canvas(all_xy.min(axis=0), all_xy.max(axis=0))
    max_support = max(p.support for p in patterns)
    for p in patterns:
        xy = projection.to_meters_array(
            [(sp.lon, sp.lat) for sp in p.representatives]
        )
        if color_by == "bucket":
            stroke = BUCKET_COLORS.get(pattern_time_bucket(p), _FALLBACK_COLOR)
        else:
            shade = int(200 - 170 * p.support / max_support)
            stroke = f"rgb({shade},{shade},{shade})"
        line_width = 1.0 + 3.0 * p.support / max_support
        canvas.polyline(
            xy, stroke, line_width,
            f"{route_label(p)} (support {p.support})",
        )
    return canvas.render()


def save_svg(path: PathLike, svg: str) -> None:
    """Write an SVG document produced by the renderers, atomically and
    always UTF-8 (titles carry venue names in any script)."""
    if not svg.lstrip().startswith("<svg"):
        raise ValueError("not an SVG document")
    atomic_write_text(path, svg)
