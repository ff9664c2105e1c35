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


def _layout(d: Drawing) -> tuple[list[float], list[float]]:
    """The x and y coordinates of every planarization node, by node id."""
    disk = find_one_disk_face(d)
    if disk is None:
        raise NoOneDiskFace("cannot lay out a drawing without a face touching all X")
    boundary: list[int] = []
    for node in disk.nodes:
        if node < d.graph.x_count and node not in boundary:
            boundary.append(node)

    center = _SIZE / 2.0
    radius = _SIZE / 2.0 - _MARGIN
    px = [center] * len(d.rotation)
    py = [center] * len(d.rotation)
    for slot, v in enumerate(boundary):
        angle = -math.pi / 2.0 + 2.0 * math.pi * slot / len(boundary)
        px[v] = center + radius * math.cos(angle)
        py[v] = center + radius * math.sin(angle)
    on_circle = set(boundary)
    # The summation order fixes the output bytes: left to right from 0.
    moving = [(v, nbrs) for v, nbrs in d.rotation.items() if v not in on_circle and nbrs]
    # A sweep that moves nothing is a fixpoint: every later sweep would
    # repeat the same float operations on the same inputs.
    for _ in range(_ITERATIONS):
        moved = False
        for v, nbrs in moving:
            sx = sy = 0
            for u in nbrs:
                sx += px[u]
                sy += py[u]
            nx, ny = sx / len(nbrs), sy / len(nbrs)
            if nx != px[v] or ny != py[v]:
                moved = True
            px[v] = nx
            py[v] = ny
        if not moved:
            break
    return px, py


def export_svg(d: Drawing, path) -> None:
    """Write the drawing as an SVG file.

    Each graph edge becomes one path (two joined segments through its
    crossing point when crossed); X vertices are dark circles on the
    boundary, Y vertices light circles, crossings plain intersection
    points with no marker.  Raises NoOneDiskFace when the drawing has no
    face incident to every X vertex.
    """
    px, py = _layout(d)
    crossed = d.crossed_edges()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:g}" height="{_SIZE:g}" '
        f'viewBox="0 0 {_SIZE:g} {_SIZE:g}" version="1.1">',
        f"  <style>\n    {_STYLE}\n  </style>",
    ]
    for e in d.graph.edges:
        u, v = e
        if e in crossed:
            c = crossed[e]
            data = (f"M {px[u]:.2f} {py[u]:.2f} L {px[c]:.2f} {py[c]:.2f} "
                    f"L {px[v]:.2f} {py[v]:.2f}")
        else:
            data = f"M {px[u]:.2f} {py[u]:.2f} L {px[v]:.2f} {py[v]:.2f}"
        parts.append(f'  <path class="edge" d="{data}" />')
    for v in d.graph.x_vertices:
        parts.append(f'  <circle class="x-vertex" cx="{px[v]:.2f}" cy="{py[v]:.2f}" r="7" />')
        parts.append(f'  <text x="{px[v] + 9:.2f}" y="{py[v] - 9:.2f}">{v}</text>')
    for v in d.graph.y_vertices:
        parts.append(f'  <circle class="y-vertex" cx="{px[v]:.2f}" cy="{py[v]:.2f}" r="5" />')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
