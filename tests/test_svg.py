from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import pytest

import onedisk as od

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
