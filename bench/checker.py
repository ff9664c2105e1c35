"""Independent checker for onedisk graph and drawing documents.

Works on the parsed JSON (plain dicts and lists) and never imports
onedisk, so a fault in the program's own validator cannot hide a fault in
what the program wrote.  It rebuilds the planarization from the document
fields, traces faces with its own successor walk and reports every
violated property by name.

Face order matters only for the document's ``one_disk_face`` index, which
the format defines in tracing order: nodes ascending, and at each node the
darts in rotation order starting from the smallest neighbour id.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

GRAPH_SCHEMA = "onedisk-graph/1"
DRAWING_SCHEMA = "onedisk-drawing/1"


@dataclass
class Report:
    """What the checker found; ``problems`` names each violated property."""

    crossings: int = 0
    faces: list = field(default_factory=list)
    all_x_faces: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def one_disk(self) -> bool:
        return bool(self.all_x_faces)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _graph_fields(doc, report: Report):
    if not isinstance(doc, dict) or doc.get("schema") != GRAPH_SCHEMA:
        report.problems.append("graph-schema")
        return None
    x, y, raw = doc.get("x_count"), doc.get("y_count"), doc.get("edges")
    if not (_is_int(x) and _is_int(y) and x >= 1 and y >= 1 and isinstance(raw, list)):
        report.problems.append("graph-fields")
        return None
    edges = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_int, item))):
            report.problems.append("graph-fields")
            return None
        u, v = sorted(item)
        if not (0 <= u < x <= v < x + y):
            report.problems.append("edge-not-bipartite")
            return None
        edges.append((u, v))
    if len(set(edges)) != len(edges):
        report.problems.append("duplicate-edge")
        return None
    return x, y, edges


def check_graph(doc) -> Report:
    """Check a graph document: schema, integer fields, simple bipartite edges."""
    report = Report()
    _graph_fields(doc, report)
    return report


def graph_edges(doc) -> list:
    """The edge set of a graph document as sorted (x vertex, y vertex) pairs."""
    return sorted(tuple(sorted(e)) for e in doc["edges"])


def trace(rotation: dict) -> list:
    """Face walks of a rotation system as lists of darts, in tracing order."""
    succ = {}
    for v, nbrs in rotation.items():
        k = len(nbrs)
        for i, u in enumerate(nbrs):
            succ[(v, u)] = nbrs[(i + 1) % k]
    faces, seen = [], set()
    for v in sorted(rotation):
        nbrs = rotation[v]
        if not nbrs:
            continue
        start = nbrs.index(min(nbrs))
        for u in nbrs[start:] + nbrs[:start]:
            if (v, u) in seen:
                continue
            walk, dart = [], (v, u)
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                a, b = dart
                dart = (b, succ[(b, a)])
            faces.append(walk)
    return faces


def all_x_faces(faces: list, x: int) -> list:
    """Indices of the faces (as ``trace`` returns them) that touch every X vertex."""
    xs = set(range(x))
    return [i for i, f in enumerate(faces) if xs <= {a for a, _ in f}]


def check_drawing_text(text: str, **expect) -> Report:
    """Parse document text, then check it as check_drawing does."""
    try:
        doc = json.loads(text)
    except ValueError:
        return Report(problems=["json"])
    return check_drawing(doc, **expect)


def check_drawing(doc, expect_edges: int | None = None,
                  expect_vertices: int | None = None) -> Report:
    """Check a drawing document against every 1-planar drawing property.

    Problems are named: ``rotation-not-permutation``, ``dummy-not-alternating``,
    ``edge-crossed-twice``, ``adjacent-edges-cross``, ``disconnected``,
    ``euler``, ``disk-face-index``, ``edge-count``, ``vertex-count`` and the
    parse-level ``drawing-schema``/``graph-*``/``crossing-fields``/``rotation-fields``.
    """
    report = Report()
    if not isinstance(doc, dict) or doc.get("schema") != DRAWING_SCHEMA:
        report.problems.append("drawing-schema")
        return report
    parsed = _graph_fields(doc.get("graph"), report)
    if parsed is None:
        return report
    x, y, edges = parsed
    n = x + y
    edges = sorted(edges)
    raw_crossings, raw_rotation = doc.get("crossings"), doc.get("rotation")
    if not isinstance(raw_crossings, list) or not isinstance(raw_rotation, dict):
        report.problems.append("crossing-fields")
        return report
    crossings = []
    for item in raw_crossings:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_int, item))
                and all(0 <= i < len(edges) for i in item)):
            report.problems.append("crossing-fields")
            return report
        crossings.append((edges[item[0]], edges[item[1]]))
    report.crossings = len(crossings)

    if expect_edges is not None and len(edges) != expect_edges:
        report.problems.append("edge-count")
    if expect_vertices is not None and n != expect_vertices:
        report.problems.append("vertex-count")

    dummy_of = {}
    for i, (ea, eb) in enumerate(crossings):
        if set(ea) & set(eb):
            report.problems.append("adjacent-edges-cross")
        for e in (ea, eb):
            if e in dummy_of:
                report.problems.append("edge-crossed-twice")
            dummy_of[e] = n + i
    if report.problems:
        report.problems = list(dict.fromkeys(report.problems))
        return report

    adj = {v: set() for v in range(n + len(crossings))}
    for u, v in edges:
        d = dummy_of.get((u, v))
        ends = ((u, d), (v, d)) if d is not None else ((u, v),)
        for a, b in ends:
            adj[a].add(b)
            adj[b].add(a)

    rotation = {}
    for key, nbrs in raw_rotation.items():
        if not (isinstance(key, str) and key.lstrip("-").isdigit() and isinstance(nbrs, list)
                and all(map(_is_int, nbrs))):
            report.problems.append("rotation-fields")
            return report
        rotation[int(key)] = list(nbrs)
    if set(rotation) != set(adj) or any(
        len(set(r)) != len(r) or set(r) != adj[v] for v, r in rotation.items()
    ):
        report.problems.append("rotation-not-permutation")
        return report

    for i, (ea, _) in enumerate(crossings):
        order = rotation[n + i]
        if [v in ea for v in order] not in ([True, False, True, False],
                                            [False, True, False, True]):
            report.problems.append("dummy-not-alternating")
    if report.problems:
        return report

    reached, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if len(reached) != len(adj):
        report.problems.append("disconnected")
        return report

    faces = trace(rotation)
    segments = len(edges) + 2 * len(crossings)
    if len(adj) - segments + len(faces) != 2:
        report.problems.append("euler")
        return report
    report.faces = faces
    report.all_x_faces = all_x_faces(faces, x)

    index = doc.get("one_disk_face")
    if index is not None and not (_is_int(index) and index in report.all_x_faces):
        report.problems.append("disk-face-index")
    return report


def is_face(report: Report, steps) -> bool:
    """True when ``steps`` (a cyclic dart sequence) is a face the checker traced."""
    darts = [tuple(s) for s in steps]
    for face in report.faces:
        if len(face) == len(darts) and darts and darts[0] in face:
            k = face.index(darts[0])
            if face[k:] + face[:k] == darts:
                return True
    return False


def check_svg(text: str, edges: int, x: int) -> list:
    """Problems with an SVG figure: one edge path per edge, one X circle per X vertex."""
    problems = []
    if not text.lstrip().startswith("<svg") or not text.rstrip().endswith("</svg>"):
        problems.append("svg-envelope")
    if len(re.findall(r'<path class="edge" d="M [^"]+"', text)) != edges:
        problems.append("svg-edge-paths")
    if len(re.findall(r'<circle class="x-vertex"', text)) != x:
        problems.append("svg-x-circles")
    return problems


def disk_bound(x: int, y: int) -> int:
    """The paper's ceiling 2|V| + |X| - 6 = 3x + 2y - 6."""
    return 3 * x + 2 * y - 6


def ceilings(x: int, y: int) -> dict:
    """Every proven ceiling a bounds report lists, from the published formulas."""
    n = x + y
    parts = 2 <= x <= y
    return {
        "one_disk": 3 * x + 2 * y - 6 if parts else None,
        "huang": 2 * (x + y) + 4 * x - 12 if parts else None,
        "czap": 2 * (x + y) + 6 * x - 16 if parts else None,
        "karpov": (3 * n - 8 if n % 2 == 0 and n != 6 else 3 * n - 9) if n >= 4 else None,
        "planar": 3 * n - 6 if n >= 3 else None,
        "bipartite_planar": 2 * n - 4 if n >= 3 else None,
        "one_planar": 4 * n - 8 if n >= 3 else None,
    }
