"""Byte identity of saved drawings on the construct grid.

The digest covers the documents ``save_drawing`` writes for every
construction with x in 2..12, strategies fan, zigzag and seed:0..seed:3,
and t in 0..5 extra degree-2 vertices, each followed by its double: 792
documents in that order.  It pins document output, face order and the
choice of ``one_disk_face`` across changes to the drawing core.
"""

from __future__ import annotations

import hashlib

import onedisk as od

GOLDEN_SHA256 = "b23000a31a8f8685ac14bc2419cc17a00666eb3f1d24176f50e28ef17e48f7c9"
STRATEGIES = ("fan", "zigzag", "seed:0", "seed:1", "seed:2", "seed:3")


def test_construct_grid_documents_are_byte_identical(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "d.json"
    count = 0
    for x in range(2, 13):
        for strategy in STRATEGIES:
            for t in range(6):
                y = 2 + t if x == 2 else 3 * (x - 2) + t
                _, d = od.construct_extremal(x, y, strategy)
                for drawing in (d, od.double(d).drawing_star):
                    od.save_drawing(drawing, path)
                    digest.update(path.read_bytes())
                    count += 1
    assert count == 792
    assert digest.hexdigest() == GOLDEN_SHA256
