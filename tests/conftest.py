from __future__ import annotations

import math
from itertools import combinations, permutations, product
from pathlib import Path

import onedisk as od
from onedisk import drawing as drawing_mod
from onedisk import search

FIXTURES = Path(__file__).parent / "fixtures"


def k33() -> od.BipartiteGraph:
    return od.new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3, 6)])


def k22() -> od.BipartiteGraph:
    return od.new_bipartite(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])


def connected_classes(x: int, y: int):
    """One connected graph with parts (x, y) per part-preserving
    isomorphism class, in the search's canonical labelling, by edge count."""
    for m in range(1, x * y + 1):
        yield from search._classes(x, y, m, od.SearchLimits(), math.inf)


def all_matchings(edges):
    """Every crossing set: all sets of pairwise disjoint pairs of
    independent edges, as index pairs (i, j) with i < j, by size and then
    lexicographically, with nothing pruned.  Edges are (x, y) pairs, so
    two are independent when both ends differ."""
    pairs = [(i, j) for i, j in combinations(range(len(edges)), 2)
             if edges[i][0] != edges[j][0] and edges[i][1] != edges[j][1]]

    def extend(chosen: tuple, start: int, used: frozenset, size: int):
        if len(chosen) == size:
            yield chosen
            return
        for k in range(start, len(pairs)):
            i, j = pairs[k]
            if i not in used and j not in used:
                yield from extend(chosen + ((i, j),), k + 1, used | {i, j}, size)

    for size in range(len(edges) // 2 + 1):
        yield from extend((), 0, frozenset(), size)


# Part sizes (x, y) with x <= y <= 3.
SIZES_UP_TO_3_3 = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def apex_planarization(g: od.BipartiteGraph, matching) -> dict[int, set[int]]:
    """The planarization of ``g`` with the crossing set ``matching`` (index
    pairs into ``g.edges``), plus one more node joined to every X vertex."""
    crossings = drawing_mod._normalize_crossings(
        g, [(g.edges[i], g.edges[j]) for i, j in matching])
    adj = drawing_mod._planarization_adjacency(g, crossings)
    apex = len(adj)
    adj[apex] = set(g.x_vertices)
    for v in g.x_vertices:
        adj[v].add(apex)
    return adj


def reference_witness(g: od.BipartiteGraph, crossings) -> od.Drawing | None:
    """A 1-disk drawing of ``g`` with the normalized ``crossings``, found by
    trying every rotation system of the planarization, or None when none
    is one.

    The reference the search is checked against.  It knows nothing of
    planarity tests: it tries each cyclic order at an original vertex and
    the two alternating orders at each dummy, and accepts the first system
    whose face count meets Euler's formula and which has a face touching
    every X vertex.  Node 0 takes only the orders that read no later than
    their reverse, since the mirror image of a 1-disk drawing is one.
    """
    adj = drawing_mod._planarization_adjacency(g, crossings)
    orders = []
    for v in range(g.vertex_count):
        first, *rest = sorted(adj[v])
        orders.append([(first, *p) for p in permutations(rest) if v or p <= p[::-1]])
    for (a1, a2), (b1, b2) in crossings:
        orders.append([(a1, b1, a2, b2), (a1, b2, a2, b1)])
    # Each order with its successor map: w follows u at v when succ[u] == w.
    options = [[(o, {u: o[(i + 1) % len(o)] for i, u in enumerate(o)}) for o in per]
               for per in orders]
    sides = [(v, u) for v in adj for u in adj[v]]
    faces_needed = 2 - len(adj) + len(sides) // 2
    xs = set(g.x_vertices)
    for choice in product(*options):
        seen: set = set()
        faces = 0
        disk = False
        for side in sides:
            if side in seen:
                continue
            faces += 1
            on_face = set()
            while side not in seen:
                seen.add(side)
                u, v = side
                on_face.add(u)
                side = (v, choice[v][1][u])
            disk = disk or xs <= on_face
        if faces == faces_needed and disk:
            return od.build_drawing(g, crossings, {v: o for v, (o, _) in enumerate(choice)})
    return None


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


# Files no document loader can decode: 400 KB of nested "[", a first byte
# 0xFF that UTF-8 rejects, and an integer literal of 5,000 digits, beyond
# what Python converts from text.
UNDECODABLE_FILES = {
    "nested": b"[" * 400_000,
    "not_utf8": b"\xff{}",
    "long_int": b'{"x_count": ' + b"9" * 5000 + b"}",
}


def assert_no_violations(g: od.BipartiteGraph, d: od.Drawing | None = None) -> None:
    report = od.check(g, d)
    assert not report.violations(), [
        (e.name, e.limit, e.actual) for e in report.violations()
    ]


def _count_traces(monkeypatch) -> list:
    """Record every call of ``drawing._walk_faces``, the one face tracer,
    which every Drawing runs when it is made."""
    calls = []
    real = drawing_mod._walk_faces

    def counting(rotation, succ):
        calls.append(rotation)
        return real(rotation, succ)

    monkeypatch.setattr(drawing_mod, "_walk_faces", counting)
    return calls


def reference_faces(rotation) -> list[tuple]:
    """The step tuples of every face of ``rotation``, in tracing order.

    The reference the tracer is checked against: a successor walk that
    marks each side walked in a set of (u, v) steps.  Raises
    IncompleteRotation on a repeated neighbor, then on a side with no
    reverse, as ``rotation_faces`` does.
    """
    succ = {}
    for v, nbrs in rotation.items():
        if len(set(nbrs)) != len(nbrs):
            raise od.IncompleteRotation(f"rotation at {v} repeats a neighbor")
        succ[v] = {u: nbrs[(i + 1) % len(nbrs)] for i, u in enumerate(nbrs)}
    for v, nbrs in rotation.items():
        for u in nbrs:
            if u not in succ or v not in succ[u]:
                raise od.IncompleteRotation(f"segment ({v}, {u}) has no reverse side")
    faces = []
    visited = set()
    for v in sorted(rotation):
        for u in rotation[v]:
            step = (v, u)
            if step in visited:
                continue
            walk = []
            while step not in visited:
                visited.add(step)
                walk.append(step)
                a, b = step
                step = (b, succ[b][a])
            faces.append(tuple(walk))
    return faces
