"""Constructions that realize the extremal edge counts.

Two procedures live here.  The first builds, for part sizes x <= y with
y >= 3(x-2), a bipartite graph together with a drawing that has every X
vertex on one face and exactly 3x + 2y - 6 edges: a maximal outerplanar
scaffold on the X vertices is triangulated, a fixed crossing gadget is
placed inside every inner triangle, the scaffold edges are discarded,
and leftover Y vertices are nested onto one hull pair.  The second takes
any drawing with an all-X face and glues a mirror image to it along the
X vertices, doubling the edge count while keeping 1-planarity.

No coordinates are involved.  The scaffold's rotation system comes from
the cyclic order of the polygon, each gadget is a fixed rotation template
spliced into the corners of its triangle, and the nested vertices are
spliced into the hull corner at vertices 0 and 1.  The part sizes are
known before the first gadget, so every Y vertex and dummy gets its final
id when it is made.  ``build_drawing`` then checks the result like any
other drawing, so the staging helpers (``maximal_outerplanar``,
``DrawingBuilder``, ``insert_b3``) guard nothing themselves and are not
exported from the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .drawing import (
    Drawing,
    FaceWalk,
    NoOneDiskFace,
    build_drawing,
    find_one_disk_face,
    rotation_faces,
)
from .graph import BipartiteGraph, Edge, new_bipartite


class ConstructError(ValueError):
    """A construction precondition failed."""


class UncoveredRegime(ConstructError):
    """No extremal construction is available for x >= 4 with y < 3(x-2)."""


# ---------------------------------------------------------------------------
# Maximal outerplanar scaffolds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OuterplanarSkeleton:
    """A triangulated convex polygon: the all-X scaffold of the construction.

    Holds its own rotation system directly (the scaffold is one-part, so
    it cannot be a bipartite Drawing).  ``triangles`` are the k - 2 inner
    faces, ``outer_face`` the hull walk.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    rotation: dict[int, tuple[int, ...]]
    outer_face: FaceWalk
    triangles: tuple[FaceWalk, ...]


def _parse_strategy(strategy: str) -> tuple[str, int | None]:
    s = str(strategy).strip().lower()
    if s == "fan":
        return "fan", None
    if s == "zigzag":
        return "zigzag", None
    if s.startswith("seed:"):
        return "seed", int(s.split(":", 1)[1])
    raise ValueError(f"unknown triangulation strategy {strategy!r}")


def _fan_chords(k: int) -> list[Edge]:
    return [(0, i) for i in range(2, k - 1)]


def _zigzag_chords(k: int) -> list[Edge]:
    chords: list[Edge] = []
    lo, hi = 1, k - 1
    advance_lo = True
    while hi - lo >= 2:
        chords.append((lo, hi))
        if advance_lo:
            lo += 1
        else:
            hi -= 1
        advance_lo = not advance_lo
    return chords


def _seeded_chords(k: int, seed: int) -> list[Edge]:
    rng = random.Random(seed)
    poly = list(range(k))
    chords: list[Edge] = []
    while len(poly) > 3:
        i = rng.randrange(len(poly))
        a, b = poly[i - 1], poly[(i + 1) % len(poly)]
        chords.append((min(a, b), max(a, b)))
        del poly[i]
    return chords


def _bearing(k: int, v: int, w: int) -> int:
    """Direction of the chord v -> w of the regular k-gon, in units of pi/(2k).

    With vertex i at angle 2*pi*i/k the chord points at 2*pi*v/k + pi/2
    + pi*((w - v) mod k)/k.  The result is taken in (-2k, 2k], that is
    angles in (-pi, pi]: sorting by it also fixes where each rotation
    tuple starts, which decides the order of the scaffold's triangles
    and so the Y vertex ids of the gadgets.
    """
    a = (4 * v + k + 2 * ((w - v) % k)) % (4 * k)
    return a if a <= 2 * k else a - 4 * k


def maximal_outerplanar(k: int, strategy: str = "fan") -> OuterplanarSkeleton:
    """Triangulate the convex polygon 0..k-1; 2k - 3 edges, k - 2 triangles.

    Strategies: ``fan`` (chords 0-i), ``zigzag`` (alternating two-pointer
    chords), ``seed:<n>`` (seeded random ear cutting).  All yield the same
    counts; only the triangle shapes differ.
    """
    kind, seed = _parse_strategy(strategy)
    if kind == "fan":
        chords = _fan_chords(k)
    elif kind == "zigzag":
        chords = _zigzag_chords(k)
    else:
        chords = _seeded_chords(k, seed)

    hull = [(i, (i + 1) % k) for i in range(k)]
    edges = sorted(tuple(sorted(e)) for e in hull + chords)
    nbrs: dict[int, list[int]] = {i: [] for i in range(k)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotation = {
        v: tuple(sorted(ws, key=lambda w: _bearing(k, v, w)))
        for v, ws in nbrs.items()
    }

    faces = rotation_faces(rotation)
    if len(faces) != k - 1:
        raise RuntimeError(f"scaffold tracing produced {len(faces)} faces for k={k}")
    # The hull side of edge {0, k-1} traversed k-1 -> 0 lies on the unbounded
    # face under the ccw rotation convention used throughout.
    outer = next(f for f in faces if (k - 1, 0) in f.steps)
    triangles = tuple(f for f in faces if f is not outer)
    if any(len(t) != 3 for t in triangles):
        raise RuntimeError("scaffold has a non-triangular inner face")
    return OuterplanarSkeleton(k, tuple(edges), rotation, outer, triangles)


# ---------------------------------------------------------------------------
# Staged drawings and the crossing gadget
# ---------------------------------------------------------------------------


# The gadget inside a triangle with corners c0, c1, c2 (in the walk order
# of the triangle's face): interior vertices b0, b1, b2, each joined to
# all three corners.  Crossing j pairs the edges _GADGET_CROSSING_PAIRS[j]
# (as (interior, corner) indices) at dummy dj; the diagonally opposite
# interior-corner edges stay clean.
_GADGET_CROSSING_PAIRS = (
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2)),
    ((1, 2), (2, 1)),
)
# Counterclockwise rotations at the gadget's own nodes.
_GADGET_ROTATIONS = {
    "b0": "d0 c0 d1",
    "b1": "c1 d0 d2",
    "b2": "d2 d1 c2",
    "d0": "b1 c1 c0 b0",
    "d1": "b0 c0 c2 b2",
    "d2": "c1 b1 b2 c2",
}
# Corner ci receives its wedge straight after c(i-1) in its rotation.
_GADGET_WEDGES = ("d1 b0 d0", "d0 b1 d2", "d2 b2 d1")


class DrawingBuilder:
    """Drawing under construction: a rotation system grown in place.

    Starts from the scaffold's rotation system and the final Y count, so
    every node gets its final id when it is made: Y vertices from
    ``scaffold_count`` on, the dummy of crossing i at
    ``scaffold_count + y_count + i``.  Gadgets and nested vertices add
    nodes with fixed rotations and splice their edges into the rotations
    of the scaffold vertices.  Scaffold edges stay in the rotation system
    and are dropped from the finished bipartite drawing.
    """

    def __init__(self, scaffold: OuterplanarSkeleton, y_count: int):
        self.scaffold_count = scaffold.vertex_count
        self.y_count = y_count
        self._rotation: dict[int, list[int]] = {
            v: list(order) for v, order in scaffold.rotation.items()
        }
        self._next_y = self.scaffold_count
        self._edges: list[Edge] = []
        self._crossings: list[tuple[Edge, Edge]] = []

    def add_y_vertex(self) -> int:
        vid = self._next_y
        self._next_y += 1
        self._rotation[vid] = []
        return vid

    def add_edge(self, u: int, v: int) -> Edge:
        self._edges.append((u, v))
        return (u, v)

    def add_crossing(self, edge_a: Edge, edge_b: Edge) -> int:
        """Record a crossing; returns its dummy node."""
        dummy = self.scaffold_count + self.y_count + len(self._crossings)
        self._crossings.append((edge_a, edge_b))
        self._rotation[dummy] = []
        return dummy

    def set_rotation(self, node: int, order: Sequence[int]) -> None:
        self._rotation[node] = list(order)

    def splice(self, v: int, after: int, wedge: Sequence[int]) -> None:
        """Insert ``wedge`` into the rotation at ``v`` straight after ``after``."""
        order = self._rotation[v]
        i = order.index(after) + 1
        order[i:i] = wedge

    def derive_rotation(self) -> dict[int, tuple[int, ...]]:
        """The rotation system so far without the scaffold edges."""
        x = self.scaffold_count
        return {
            v: tuple(u for u in order if not (v < x and u < x))
            for v, order in self._rotation.items()
        }

    def finish(self) -> tuple[BipartiteGraph, Drawing]:
        """Drop the scaffold edges and assemble the validated drawing."""
        g = new_bipartite(self.scaffold_count, self.y_count, self._edges)
        return g, build_drawing(g, self._crossings, self.derive_rotation())


def insert_b3(builder: DrawingBuilder, triangle: FaceWalk) -> None:
    """Place the crossing gadget inside one inner triangle of the scaffold.

    Adds three Y vertices joined to all three corners (nine edges) and
    the gadget's three crossings, spliced into the corners' rotations
    between the triangle's sides.
    """
    corners = triangle.nodes
    interior = tuple(builder.add_y_vertex() for _ in range(3))
    edge_of: dict[tuple[int, int], Edge] = {}
    for bi, b in enumerate(interior):
        for ci, c in enumerate(corners):
            edge_of[(bi, ci)] = builder.add_edge(c, b)
    dummies = [
        builder.add_crossing(edge_of[a], edge_of[b]) for a, b in _GADGET_CROSSING_PAIRS
    ]

    ids = {}
    for i in range(3):
        ids[f"c{i}"], ids[f"b{i}"], ids[f"d{i}"] = corners[i], interior[i], dummies[i]
    for name, order in _GADGET_ROTATIONS.items():
        builder.set_rotation(ids[name], [ids[t] for t in order.split()])
    for i, wedge in enumerate(_GADGET_WEDGES):
        builder.splice(corners[i], corners[i - 1], [ids[t] for t in wedge.split()])


# ---------------------------------------------------------------------------
# The extremal family
# ---------------------------------------------------------------------------


def _two_column(y: int) -> tuple[BipartiteGraph, Drawing]:
    """x = 2: every Y vertex joins both X vertices, drawn nested, planar."""
    g = new_bipartite(2, y, [(i, 2 + j) for j in range(y) for i in (0, 1)])
    ys = tuple(range(2, 2 + y))
    rotation: dict[int, tuple[int, ...]] = {0: ys, 1: tuple(reversed(ys))}
    for v in ys:
        rotation[v] = (0, 1)
    return g, build_drawing(g, [], rotation)


def _attach_nested_pair(builder: DrawingBuilder, count: int) -> None:
    """Nest ``count`` degree-2 Y vertices onto hull vertices 0 and 1.

    They sit in the unbounded face beside the hull edge 0-1, w1 innermost,
    so their edges neither cross anything nor block any hull vertex from
    the unbounded face.
    """
    added = []
    for _ in range(count):
        w = builder.add_y_vertex()
        builder.add_edge(0, w)
        builder.add_edge(1, w)
        builder.set_rotation(w, (0, 1))
        added.append(w)
    builder.splice(0, builder.scaffold_count - 1, added[::-1])
    builder.splice(1, 0, added)


def construct_extremal(
    x: int, y: int, strategy: str = "fan"
) -> tuple[BipartiteGraph, Drawing]:
    """Bipartite graph plus all-X-face drawing with exactly 3x + 2y - 6 edges.

    Covered regimes: x = 2 (any y >= 2, nested and crossing-free) and
    x >= 3 with y = 3(x-2) + t for t >= 0 (one gadget per scaffold
    triangle, then t nested degree-2 vertices).  For x >= 4 with
    x <= y < 3(x-2) no construction is known; UncoveredRegime is raised.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if y < x:
        raise ValueError(f"need y >= x, got x={x}, y={y}")
    if x == 2:
        return _two_column(y)
    t = y - 3 * (x - 2)
    if t < 0:
        raise UncoveredRegime(
            f"no construction covers x={x}, y={y} (requires y >= {3 * (x - 2)})"
        )
    scaffold = maximal_outerplanar(x, strategy)
    builder = DrawingBuilder(scaffold, y)
    for tri in scaffold.triangles:
        insert_b3(builder, tri)
    if t:
        _attach_nested_pair(builder, t)
    return builder.finish()


# ---------------------------------------------------------------------------
# Doubling along the disk face
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingResult:
    """Mirror-glued drawing: |V*| = |X| + 2|Y| and |E*| = 2|E|."""

    graph_star: BipartiteGraph
    drawing_star: Drawing


def _disk_gaps(walk: FaceWalk, x_count: int) -> dict[int, tuple[int, int]]:
    """Neighbors (p, q) bounding the first visit of the walk at each X vertex
    it visits, found in one pass over the walk."""
    steps = walk.steps
    gaps: dict[int, tuple[int, int]] = {}
    for j, (p, v) in enumerate(steps):
        if v < x_count and v not in gaps:
            gaps[v] = (p, steps[(j + 1) % len(steps)][1])
    return gaps


def double(d: Drawing) -> DoublingResult:
    """Glue a mirror image of the drawing to itself along the X vertices.

    The copy duplicates every Y vertex and crossing and reverses every
    cyclic order; at each X vertex the original rotation and the mirrored
    one are concatenated inside the gap where the all-X face passed.  The
    result is a 1-planar drawing of a bipartite graph on X and the two Y
    copies with twice the edges.
    """
    disk = find_one_disk_face(d)
    if disk is None:
        raise NoOneDiskFace("drawing has no face incident to every X vertex")
    g = d.graph
    x, y, c = g.x_count, g.y_count, len(d.crossings)
    n = x + y
    star_n = x + 2 * y

    def keep(v: int) -> int:
        return v if v < n else star_n + (v - n)

    def mirror(v: int) -> int:
        if v < x:
            return v
        if v < n:
            return v + y
        return star_n + c + (v - n)

    def mirror_edge(e: Edge) -> Edge:
        return (e[0], e[1] + y)

    g_star = new_bipartite(
        x, 2 * y, list(g.edges) + [mirror_edge(e) for e in g.edges]
    )
    pairs = [(cr.edge_a, cr.edge_b) for cr in d.crossings]
    pairs += [(mirror_edge(cr.edge_a), mirror_edge(cr.edge_b)) for cr in d.crossings]

    rot: dict[int, tuple[int, ...]] = {}
    for v in range(x, n + c):
        rot[keep(v)] = tuple(keep(w) for w in d.rotation[v])
        rot[mirror(v)] = tuple(mirror(w) for w in reversed(d.rotation[v]))
    gaps = _disk_gaps(disk, x)
    for v in range(x):
        p, q = gaps[v]
        r = d.rotation[v]
        i = r.index(q)
        linear = r[i:] + r[:i]
        if linear[-1] != p:
            raise RuntimeError("disk face walk disagrees with the rotation system")
        rot[v] = tuple(keep(w) for w in linear) + tuple(
            mirror(w) for w in reversed(linear)
        )

    return DoublingResult(g_star, build_drawing(g_star, pairs, rot))
