from __future__ import annotations

from pathlib import Path

import onedisk as od
from onedisk import drawing as drawing_mod

FIXTURES = Path(__file__).parent / "fixtures"


def k33() -> od.BipartiteGraph:
    return od.new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3, 6)])


def k22() -> od.BipartiteGraph:
    return od.new_bipartite(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])


def planar_k22_drawing() -> od.Drawing:
    g = k22()
    rotation = {0: (2, 3), 1: (3, 2), 2: (0, 1), 3: (0, 1)}
    return od.build_drawing(g, [], rotation)


# A verified 1-planar drawing of K3,3 with a single crossing whose
# planarization has no face incident to all three X vertices (found by
# exhaustive enumeration; the search oracle shows any disk drawing of
# K3,3 needs three crossings).
NO_DISK_K33_CROSSING = (((0, 3), (1, 4)),)
NO_DISK_K33_ROTATION = {
    0: (4, 5, 6),
    1: (3, 6, 5),
    2: (3, 5, 4),
    3: (1, 2, 6),
    4: (0, 6, 2),
    5: (0, 2, 1),
    6: (0, 1, 3, 4),
}


def no_disk_k33_drawing() -> od.Drawing:
    return od.build_drawing(k33(), list(NO_DISK_K33_CROSSING), dict(NO_DISK_K33_ROTATION))


def huge_claim_document() -> dict:
    """A drawing document of about a hundred bytes that claims 10**12 + 1
    vertices and gives none of them a rotation."""
    return {
        "schema": "onedisk-drawing/1",
        "graph": {"schema": "onedisk-graph/1", "x_count": 10**12, "y_count": 1,
                  "edges": []},
        "crossings": [],
        "rotation": {},
        "one_disk_face": None,
    }


def assert_no_violations(g: od.BipartiteGraph, d: od.Drawing | None = None) -> None:
    report = od.check(g, d)
    assert not report.violations(), [
        (e.name, e.limit, e.actual) for e in report.violations()
    ]


def _count_traces(monkeypatch) -> list:
    """Record every call of ``drawing.rotation_faces``, the one face tracer."""
    calls = []
    real = drawing_mod.rotation_faces

    def counting(rotation):
        calls.append(rotation)
        return real(rotation)

    monkeypatch.setattr(drawing_mod, "rotation_faces", counting)
    return calls
