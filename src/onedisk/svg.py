"""SVG figures for drawings that have a face incident to every X vertex.

Layout mirrors the way these drawings are defined: the X vertices sit
equally spaced on a circle, in the order the disk face walk meets them,
and every interior node (Y vertices and crossing dummies) is placed by
iterated barycentric averaging over its planarization neighbors with the
circle positions held fixed.  The picture is presentation only; the
rotation system remains the source of truth, and overlapping segments in
degenerate layouts are tolerated.
"""

from __future__ import annotations

import math
from pathlib import Path

from .drawing import Drawing, NoOneDiskFace, find_one_disk_face

_SIZE = 640.0
_MARGIN = 60.0
_ITERATIONS = 300

_STYLE = (
    ".edge { stroke: #3b6fc4; stroke-width: 1.6; fill: none; }\n"
    "    .x-vertex { fill: #1a1a1a; stroke: none; }\n"
    "    .y-vertex { fill: #ffffff; stroke: #3b6fc4; stroke-width: 1.6; }\n"
    "    text { font: 11px sans-serif; fill: #444; }"
)


def _layout(d: Drawing) -> dict[int, tuple[float, float]]:
    disk = find_one_disk_face(d)
    if disk is None:
        raise NoOneDiskFace("cannot lay out a drawing without a face touching all X")
    boundary: list[int] = []
    for node in disk.nodes:
        if node < d.graph.x_count and node not in boundary:
            boundary.append(node)

    center = _SIZE / 2.0
    radius = _SIZE / 2.0 - _MARGIN
    pos: dict[int, tuple[float, float]] = {}
    for slot, v in enumerate(boundary):
        angle = -math.pi / 2.0 + 2.0 * math.pi * slot / len(boundary)
        pos[v] = (center + radius * math.cos(angle), center + radius * math.sin(angle))
    interior = [v for v in d.rotation if v not in pos]
    for v in interior:
        pos[v] = (center, center)
    # The summation order fixes the output bytes: left to right from 0.
    moving = [(v, d.rotation[v]) for v in interior if d.rotation[v]]
    for _ in range(_ITERATIONS):
        for v, nbrs in moving:
            sx = sy = 0
            for u in nbrs:
                px, py = pos[u]
                sx += px
                sy += py
            pos[v] = (sx / len(nbrs), sy / len(nbrs))
    return pos


def export_svg(d: Drawing, path) -> None:
    """Write the drawing as an SVG file.

    Each graph edge becomes one path (two joined segments through its
    crossing point when crossed); X vertices are dark circles on the
    boundary, Y vertices light circles, crossings plain intersection
    points with no marker.  Raises NoOneDiskFace when the drawing has no
    face incident to every X vertex.
    """
    pos = _layout(d)
    crossed = d.crossed_edges()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:g}" height="{_SIZE:g}" '
        f'viewBox="0 0 {_SIZE:g} {_SIZE:g}" version="1.1">',
        f"  <style>\n    {_STYLE}\n  </style>",
    ]
    for e in d.graph.edges:
        u, v = e
        ux, uy = pos[u]
        vx, vy = pos[v]
        if e in crossed:
            dx, dy = pos[crossed[e]]
            data = f"M {ux:.2f} {uy:.2f} L {dx:.2f} {dy:.2f} L {vx:.2f} {vy:.2f}"
        else:
            data = f"M {ux:.2f} {uy:.2f} L {vx:.2f} {vy:.2f}"
        parts.append(f'  <path class="edge" d="{data}" />')
    for v in d.graph.x_vertices:
        px, py = pos[v]
        parts.append(f'  <circle class="x-vertex" cx="{px:.2f}" cy="{py:.2f}" r="7" />')
        parts.append(f'  <text x="{px + 9:.2f}" y="{py - 9:.2f}">{v}</text>')
    for v in d.graph.y_vertices:
        px, py = pos[v]
        parts.append(f'  <circle class="y-vertex" cx="{px:.2f}" cy="{py:.2f}" r="5" />')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
