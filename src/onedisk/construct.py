"""Constructions that realize the extremal edge counts.

Two procedures live here.  ``construct_extremal`` builds, for part sizes
x <= y with y >= 3(x-2), a bipartite graph and a drawing with every X
vertex on one face and exactly 3x + 2y - 6 edges: it triangulates a
convex polygon on the X vertices (the scaffold), places the crossing
gadget inside every triangle, discards the scaffold's own edges and
nests the leftover Y vertices onto one hull pair.  ``double`` glues a
mirror image of any drawing with an all-X face to it along the X
vertices, doubling the edge count while keeping 1-planarity.

No coordinates are involved.  The scaffold's rotation system comes from
the cyclic order of the polygon.  Each new node's rotation is fixed when
the node is made.  At a scaffold vertex, each gadget and the nested
vertices fill one angle of the scaffold with a wedge of new neighbours,
and the vertex's rotation is its wedges read once in the scaffold's
cyclic order.  ``build_drawing`` then checks the result like any other
drawing, so the staging helpers (``maximal_outerplanar``,
``DrawingBuilder``, ``insert_b3``) guard nothing themselves and are not
exported from the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .drawing import (
    Drawing,
    FaceWalk,
    NoOneDiskFace,
    build_drawing,
    disk_face_index,
    rotation_faces,
)
from .graph import BipartiteGraph, Edge, new_bipartite


class UncoveredRegime(ValueError):
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


def _chords(k: int, strategy: str) -> list[Edge]:
    """The chords that triangulate the polygon 0..k-1 under ``strategy``.

    The name is stripped and read case-blind; one that is not ``fan``,
    ``zigzag`` or ``seed:<int>`` raises ValueError.
    """
    s = str(strategy).strip().lower()
    if s == "fan":
        return [(0, i) for i in range(2, k - 1)]
    if s == "zigzag":
        # (1, k-1), (2, k-1), (2, k-2), (3, k-2), ...: the ends step inward in turn.
        return [(1 + (j + 1) // 2, k - 1 - j // 2) for j in range(k - 3)]
    try:
        rng = random.Random(int(s[5:] if s.startswith("seed:") else ""))
    except ValueError:
        raise ValueError(f"unknown triangulation strategy {strategy!r}") from None
    poly = list(range(k))
    chords: list[Edge] = []
    while len(poly) > 3:
        i = rng.randrange(len(poly))
        chords.append((poly[i - 1], poly[(i + 1) % len(poly)]))
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
    hull = [(i, (i + 1) % k) for i in range(k)]
    edges = sorted(tuple(sorted(e)) for e in hull + _chords(k, strategy))
    nbrs: dict[int, list[int]] = {i: [] for i in range(k)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotation = {
        v: tuple(sorted(ws, key=lambda w: _bearing(k, v, w)))
        for v, ws in nbrs.items()
    }

    faces = rotation_faces(rotation)
    # The hull side of edge {0, k-1} traversed k-1 -> 0 lies on the unbounded
    # face under the ccw rotation convention used throughout.
    outer = next(f for f in faces if (k - 1, 0) in f.steps)
    triangles = tuple(f for f in faces if f is not outer)
    return OuterplanarSkeleton(k, tuple(edges), rotation, outer, triangles)


# ---------------------------------------------------------------------------
# Staged drawings and the crossing gadget
# ---------------------------------------------------------------------------


# The B3 gadget inside a triangle whose face walk visits corners c0, c1,
# c2: Y vertices b0, b1, b2, each joined to all three corners, and the
# dummies d0, d1, d2 of its three crossings.  Each entry is a node's
# counterclockwise rotation; corner ci's is its wedge, which fills the
# angle after c(i-1) in ci's scaffold rotation.  A dummy's rotation
# alternates the edges of its crossing, so entries 0 and 2 are one crossed
# edge and entries 1 and 3 the other; the other three b-c edges stay clean.
_B3 = {
    "c0": "d1 b0 d0", "c1": "d0 b1 d2", "c2": "d2 b2 d1",
    "b0": "d0 c0 d1", "b1": "c1 d0 d2", "b2": "d2 d1 c2",
    "d0": "b1 c1 c0 b0", "d1": "b0 c0 c2 b2", "d2": "c1 b1 b2 c2",
}
# The same rotations as slots into the gadget's node ids, listed in
# _B3's key order.
_B3_SLOTS = tuple(tuple(map(list(_B3).index, order.split())) for order in _B3.values())


class DrawingBuilder:
    """Drawing under construction on a scaffold, with its final Y count.

    Every node gets its final id when it is made: Y vertices from
    ``scaffold_count`` on (``next_y`` is the next free one) and, as in
    every Drawing, the dummy of crossings[i] at the vertex count plus i.
    Gadgets and nested vertices write the plain attributes directly:
    ``rotation`` (each new node's cyclic order), ``edges``, ``crossings``
    and ``wedges``.  ``wedges[c, p]`` lists the new neighbours of
    scaffold vertex c in the angle that follows scaffold neighbour p in
    c's rotation.  The scaffold edges only order the wedges; they never
    enter the finished bipartite drawing.
    """

    def __init__(self, scaffold: OuterplanarSkeleton, y_count: int):
        self.scaffold = scaffold
        self.scaffold_count = scaffold.vertex_count
        self.y_count = y_count
        self.next_y = self.scaffold_count
        self.rotation: dict[int, tuple[int, ...]] = {}
        self.wedges: dict[tuple[int, int], tuple[int, ...]] = {}
        self.edges: list[Edge] = []
        self.crossings: list[tuple[Edge, Edge]] = []

    def derive_rotation(self) -> dict[int, tuple[int, ...]]:
        """The rotation system so far: each scaffold vertex's wedges in the
        scaffold's cyclic order, then the new nodes in creation order."""
        # No two wedges share a key: the key (c, p) reverses the side p -> c,
        # a gadget's key is a side of its triangle's face, a nested key a
        # side of the outer face, and each side lies on exactly one face.
        # A wedge written twice would lose the first, and build_drawing
        # would reject the rotation as incomplete.
        return {
            c: tuple(u for p in order for u in self.wedges.get((c, p), ()))
            for c, order in self.scaffold.rotation.items()
        } | self.rotation

    def finish(self) -> tuple[BipartiteGraph, Drawing]:
        """Assemble the validated bipartite drawing."""
        g = new_bipartite(self.scaffold_count, self.y_count, self.edges)
        return g, build_drawing(g, self.crossings, self.derive_rotation())


def insert_b3(builder: DrawingBuilder, triangle: FaceWalk) -> None:
    """Place the B3 gadget inside one inner triangle of the scaffold: its
    three Y vertices, nine edges, three crossings and three wedges."""
    corners = triangle.nodes
    y = builder.next_y
    builder.next_y += 3
    dummy = builder.scaffold_count + builder.y_count + len(builder.crossings)
    ids = (*corners, y, y + 1, y + 2, dummy, dummy + 1, dummy + 2)
    orders = [tuple(ids[i] for i in slots) for slots in _B3_SLOTS]
    builder.edges += [(c, b) for b in ids[3:6] for c in corners]
    builder.crossings += [((a0, a1), (b0, b1)) for a0, b0, a1, b1 in orders[6:]]
    builder.rotation.update(zip(ids[3:], orders[3:]))
    for i, c in enumerate(corners):
        builder.wedges[c, corners[i - 1]] = orders[i]


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
    the unbounded face.  They fill the outer angles at 0 (after hull
    vertex x-1) and at 1 (after 0).
    """
    added = tuple(range(builder.next_y, builder.next_y + count))
    builder.next_y += count
    builder.edges += [(v, w) for w in added for v in (0, 1)]
    builder.rotation.update((w, (0, 1)) for w in added)
    builder.wedges[0, builder.scaffold_count - 1] = added[::-1]
    builder.wedges[1, 0] = added


def construct_extremal(
    x: int, y: int, strategy: str = "fan"
) -> tuple[BipartiteGraph, Drawing]:
    """Bipartite graph plus all-X-face drawing with exactly 3x + 2y - 6 edges.

    Covered regimes: x = 2 (any y >= 2, nested and crossing-free) and
    x >= 3 with y = 3(x-2) + t for t >= 0 (one gadget per scaffold
    triangle, then t nested degree-2 vertices).  For x >= 4 with
    x <= y < 3(x-2) no construction is known; UncoveredRegime is raised.
    A part size that is not an int (a bool is not an int here) raises
    ValueError, like any other bad part size.  The strategy is parsed
    first, so a bad one raises ValueError whatever the part sizes.
    """
    _chords(3, strategy)
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"part sizes must be ints, got {x!r} and {y!r}")
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


def _disk_gaps(cycle: tuple[int, ...], x_count: int) -> dict[int, int]:
    """Each X vertex on the face's node cycle mapped to the node after its
    first visit, in one pass.

    Visits are taken in the order the face's steps enter them.  The first
    step, cycle[0] -> cycle[1], enters cycle[1], so a visit at cycle[0]
    counts last.
    """
    ring = cycle[1:] + cycle[:2]
    gaps: dict[int, int] = {}
    for v, q in zip(ring, ring[1:]):
        if v < x_count and v not in gaps:
            gaps[v] = q
    return gaps


def double(d: Drawing) -> DoublingResult:
    """Glue a mirror image of the drawing to itself along the X vertices.

    The copy duplicates every Y vertex and crossing and reverses every
    cyclic order; at each X vertex the original rotation and the mirrored
    one are concatenated inside the gap where the all-X face passed.  The
    result is a 1-planar drawing of a bipartite graph on X and the two Y
    copies with twice the edges.
    """
    g = d.graph
    x, y, c = g.x_count, g.y_count, len(d.crossings)
    disk = disk_face_index(d._faces, x)
    if disk is None:
        raise NoOneDiskFace("drawing has no face incident to every X vertex")
    n = x + y
    star_n = x + 2 * y
    # Each node of the planarization mapped to its id in the original copy
    # and in the mirror copy: X vertices are shared, Y vertices and
    # dummies are not, and the dummies follow all 2y Y vertices.
    keep = [*range(n), *range(star_n, star_n + c)]
    mirror = [*range(x), *range(n, n + y), *range(star_n + c, star_n + 2 * c)]

    def mirror_edge(e: Edge) -> Edge:
        return (e[0], e[1] + y)

    g_star = new_bipartite(
        x, 2 * y, list(g.edges) + [mirror_edge(e) for e in g.edges]
    )
    pairs = list(d.crossings)
    pairs += [(mirror_edge(a), mirror_edge(b)) for a, b in d.crossings]

    rot: dict[int, tuple[int, ...]] = {}
    for v in range(x, n + c):
        rot[keep[v]] = tuple(keep[w] for w in d.rotation[v])
        rot[mirror[v]] = tuple(mirror[w] for w in reversed(d.rotation[v]))
    gaps = _disk_gaps(d._faces[disk], x)
    for v in range(x):
        r = d.rotation[v]
        i = r.index(gaps[v])
        linear = r[i:] + r[:i]
        rot[v] = tuple(keep[w] for w in linear) + tuple(
            mirror[w] for w in reversed(linear)
        )

    return DoublingResult(g_star, build_drawing(g_star, pairs, rot))
