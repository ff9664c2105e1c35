from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

import onedisk as od
from onedisk import svg

from conftest import no_disk_k33_drawing

SVG = "{http://www.w3.org/2000/svg}"

# sha256 of the figures export_svg writes for every construction with x in
# 2..12, strategies fan, zigzag and seed:0..seed:3, and t in {0, 3} extra
# degree-2 vertices: 132 figures in that order.  It pins the layout's
# float arithmetic down to the written digits.
SVG_GOLDEN_SHA256 = "63078cb2e49ec40f4ced1e3622cc09b0a229cb06befc8107158fe2d12248d98a"


def _counts(path):
    root = ET.parse(path).getroot()
    circles = root.findall(f"{SVG}circle")
    return {
        "x": sum(1 for c in circles if c.get("class") == "x-vertex"),
        "y": sum(1 for c in circles if c.get("class") == "y-vertex"),
        "edges": len(root.findall(f"{SVG}path")),
    }


def test_svg_extremal_3_3(tmp_path):
    _, d = od.construct_extremal(3, 3)
    out = tmp_path / "fig.svg"
    od.export_svg(d, out)
    counts = _counts(out)
    assert counts == {"x": 3, "y": 3, "edges": 9}


def test_svg_extremal_4_6(tmp_path):
    _, d = od.construct_extremal(4, 6)
    out = tmp_path / "fig.svg"
    od.export_svg(d, out)
    counts = _counts(out)
    assert counts == {"x": 4, "y": 6, "edges": 18}


def test_svg_requires_disk_face(tmp_path):
    with pytest.raises(od.NoOneDiskFace):
        od.export_svg(no_disk_k33_drawing(), tmp_path / "never.svg")


def test_svg_crossed_edges_have_two_segments(tmp_path):
    _, d = od.construct_extremal(3, 3)
    out = tmp_path / "fig.svg"
    od.export_svg(d, out)
    root = ET.parse(out).getroot()
    joints = [p.get("d").count("L") for p in root.findall(f"{SVG}path")]
    assert sorted(joints) == [1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_svg_deterministic(tmp_path):
    _, d = od.construct_extremal(4, 6)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    od.export_svg(d, p1)
    od.export_svg(d, p2)
    assert p1.read_text() == p2.read_text()


def test_construct_grid_figures_are_byte_identical(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "fig.svg"
    count = 0
    for x in range(2, 13):
        for strategy in ("fan", "zigzag", "seed:0", "seed:1", "seed:2", "seed:3"):
            for t in (0, 3):
                y = 2 + t if x == 2 else 3 * (x - 2) + t
                _, d = od.construct_extremal(x, y, strategy)
                od.export_svg(d, path)
                digest.update(path.read_bytes())
                count += 1
    assert count == 132
    assert digest.hexdigest() == SVG_GOLDEN_SHA256


def _reference_layout(d: od.Drawing) -> dict[int, tuple[float, float]]:
    """The layout with all 300 barycentric sweeps and no fixpoint test, in
    the summation order the figures depend on."""
    disk = od.find_one_disk_face(d)
    boundary: list[int] = []
    for node in disk.nodes:
        if node < d.graph.x_count and node not in boundary:
            boundary.append(node)
    center = svg._SIZE / 2.0
    radius = svg._SIZE / 2.0 - svg._MARGIN
    pos = {}
    for slot, v in enumerate(boundary):
        angle = -math.pi / 2.0 + 2.0 * math.pi * slot / len(boundary)
        pos[v] = (center + radius * math.cos(angle), center + radius * math.sin(angle))
    interior = [v for v in d.rotation if v not in pos]
    for v in interior:
        pos[v] = (center, center)
    moving = [(v, d.rotation[v]) for v in interior if d.rotation[v]]
    for _ in range(300):
        for v, nbrs in moving:
            sx = sy = 0
            for u in nbrs:
                px, py = pos[u]
                sx += px
                sy += py
            pos[v] = (sx / len(nbrs), sy / len(nbrs))
    return pos


@pytest.mark.parametrize("x", [16, 24, 40])
@pytest.mark.parametrize("strategy", ["fan", "zigzag", "seed:5"])
def test_layout_stops_at_the_300_sweep_positions(x, strategy):
    # Beyond the golden grid: stopping at the first sweep that moves no
    # node leaves every position equal to the one 300 sweeps reach.
    _, d = od.construct_extremal(x, 3 * (x - 2), strategy)
    px, py = svg._layout(d)
    reference = _reference_layout(d)
    assert len(px) == len(py) == len(reference)
    assert all((px[v], py[v]) == reference[v] for v in reference)
