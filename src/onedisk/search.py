"""Exhaustive oracle for tiny instances.

Decides whether a small bipartite graph G with parts X and Y has a
1-disk drawing -- a 1-planar drawing with a face incident to every X
vertex -- and computes the exact maximum edge count for small part
sizes.  The search is independent of the constructions.  The crossings
of a drawing form a matching of pairwise independent edge pairs, a
crossing set; the search takes crossing sets by size, then
lexicographically, and returns the first whose apex planarization has a
plane embedding.  That embedding, with the apex removed, is the witness.

The apex planarization of (G, C) is the planarization of G with crossing
set C plus one apex node joined to every X vertex.  Write m = |E(G)|,
c = |C|, x = |X| and y = |Y|.  The planarization comes from
:mod:`onedisk.drawing`, the embedding from
:func:`onedisk._planarity.plane_rotation`, and the witness is
re-verified by ``build_drawing`` (structure, alternation at every dummy,
Euler's formula) and must have a face that touches every X vertex,
found by the rule ``find_one_disk_face`` uses; a witness that fails
either check is a fault of this module and raises.

*A non-planar set holds no witness.*  A 1-disk drawing with crossing
set C is a plane drawing of its planarization with every X vertex on
one face; an apex placed in that face and joined to each X vertex adds
no crossing.  So when the apex planarization is non-planar no drawing
has crossing set C.

*Triangle-face bound.*  Let H be the apex planarization of a connected
G with crossing set C.  It has V = x + y + c + 1 nodes and
E = m + 2c + x edges: each crossed edge is two segments, and the apex
has x.  H is simple and has no X-X, Y-Y, dummy-dummy, apex-Y or
apex-dummy edges, so a triangular face of a plane embedding of H is
x, d, y for a dummy d and an uncrossed edge xy.  The neighbours of d
are the four distinct ends of its crossing edges x_a y_a and x_b y_b,
which are not edges of H, so xy is one of d's two *diagonals*, x_a y_b
or x_b y_a, and the face passes through the angle at d between x and
y.  In any rotation at d the two ends of a diagonal share at most one
angle, and each angle lies on one face, so at most one triangular face
runs through d along xy.  Such a face also uses one side of xy, an edge
has two sides, and each side lies on one face.  So the number t of
triangular faces is at most D'(C), the sum of min(2, mult(e)) over the
edges e of G that are not crossed in C, where mult(e) counts the
crossings of C that have e as a diagonal.  H is connected with at least
3 nodes, so every face has length at least 3; with F faces,
2E >= 3t + 4(F - t), and Euler's formula gives F = E - V + 2.
Together, t >= 2E - 4V + 8 = 2(m - x - 2y + 2), in which c cancels.
So H is planar only if D'(C) >= need := 2(m - x - 2y + 2).

*The prune.*  Adding a crossing to a set crosses two edges, which only
removes terms from D', and adds two diagonals, each raising one term by
at most 1.  Only m - 2s edges are uncrossed in a set of size s, and each
term is at most 2.  So every set of size s that extends a partial set P
has D' at most min(D'(P) + 2(s - |P|), 2(m - 2s)), and P is dropped,
with all those sets, when that is below need.  At |P| = s the rule
reads D'(P) < need, so exactly the sets with D' >= need are listed, and
by the first fact the dropped ones hold no witness.

*The first planar set yields a witness.*  Let k be the least size of a
crossing set whose apex planarization is planar, and C such a set.  In
any plane embedding of its apex planarization, a dummy whose rotation
does not alternate is a point where its two edges touch without
crossing; redrawing them apart, each through the angle between its own
two segments, embeds the apex planarization of C minus that crossing, a
planar set of size k - 1, against the choice of k.  So every dummy
alternates.  Deleting the apex merges the faces around it into one face
that touches every X vertex, so the embedding restricted to the
planarization is a 1-disk drawing with crossing set C.  Sizes ascend,
and the triangle-face bound skips only non-planar sets, so the first
set found planar has size k, and a "no" answer costs one planarity test
per crossing set that the bound lets through.

*Apex planarizations meet the contract of the planarity routine.*
``plane_rotation`` takes only graphs whose peel-and-suppress reduction
is empty or biconnected; the apex planarization H of a connected G is
such a graph.  Call a connected graph K *nearly biconnected* when, for
every node w, all nodes of K - w but the leaves (nodes of degree 1)
adjacent to w lie in one component.  H is nearly biconnected:

- every X vertex is adjacent to the apex;
- every dummy is adjacent to two distinct X vertices, the X ends of
  its two independent edges;
- every Y vertex is adjacent only to X vertices and dummies;
- so removing a node w other than the apex leaves the apex, the other
  X vertices, every dummy and every Y vertex with a neighbour besides w
  in one component.  It cuts off only leaves adjacent to w: Y vertices
  of degree 1, or the apex when x = 1.  Removing the apex leaves the
  planarization of G, which is connected.

Each reduction step keeps K nearly biconnected, and a node cut off
from K - w stays a leaf adjacent to w, as its one edge is untouched.
Peeling a leaf removes a node cut off from K - w or a leaf of the one
component.  Suppressing a node v of degree 2 with neighbours a and b
replaces the path a, v, b in K - w by the edge ab when w is not a or
b; when w = a, v hangs from b alone in K - a, and removing it leaves
the rest connected.  So suppressing a degree-2 node keeps a biconnected
graph biconnected.  The reduction stops at the empty graph or at
minimum degree 3, where K has no leaves, so no node cuts it: K is
biconnected.

Only connected candidate graphs are enumerated: an edge-maximal graph
drawable this way is connected, so disconnected candidates never set the
maximum.  The time budget is the only limit: every answer comes from an
exhausted search, and BudgetExceeded is raised if the deadline comes first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations

from ._planarity import plane_rotation
from .bounds import ceilings
from .drawing import (
    Crossing,
    Drawing,
    _planarization_adjacency,
    build_drawing,
    disk_face_index,
)
from .graph import BipartiteGraph, Edge, new_bipartite, reachable


class BudgetExceeded(RuntimeError):
    """The time budget ran out before the question was settled."""


@dataclass(frozen=True)
class SearchLimits:
    """The search's time budget in seconds; it must be positive."""

    time_budget: float = 300.0

    def __post_init__(self) -> None:
        if not self.time_budget > 0:
            raise ValueError("the time budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a maximum-edge search; witness is re-verified evidence."""

    max_edges: int
    witness: Drawing | None
    exhausted: bool


def _out_of_time(limits: SearchLimits, doing: str) -> BudgetExceeded:
    return BudgetExceeded(f"time budget of {limits.time_budget}s exhausted {doing}")


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


def _crossing_sets(g: BipartiteGraph, limits: SearchLimits, deadline: float):
    """The crossing sets of ``g`` with D' >= need (module doc), as tuples of
    crossings in normal form, by size and then lexicographically in the
    indices of their edges.

    Edges are (x, y) pairs, so two are independent when both ends differ.
    D' is kept as crossings are pushed and popped, and a partial set is
    dropped by the prune rule of the module doc before it is extended.  The
    clock is read at each partial set that is extended, since a pruned walk
    can run long without yielding.  The empty set comes before the pairs
    are listed, since most graphs are decided by it.
    """
    m = len(g.edges)
    need = 2 * (m - g.x_count - 2 * g.y_count + 2)

    def extend(start: int, left: int, free: int, chosen: tuple):
        # ``chosen`` has D' = free and passes the prune with ``left`` pairs to go.
        if time.monotonic() > deadline:
            raise _out_of_time(limits, f"while testing {m}-edge graph")
        if not left:
            yield chosen
            return
        for k, (i, j, a, b, crossing) in enumerate(pairs[start:], start):
            if crossed[i] or crossed[j]:
                continue
            # Edges i and j lose their terms min(2, mult); a and b each
            # gain a side if uncrossed and not yet at two.
            sides = (free - term[mult[i]] - term[mult[j]]
                     + (not crossed[a] and mult[a] < 2) + (not crossed[b] and mult[b] < 2))
            if sides + 2 * (left - 1) < need:
                continue
            crossed[i] = crossed[j] = True
            mult[a] += 1
            mult[b] += 1
            yield from extend(k + 1, left - 1, sides, (*chosen, crossing))
            mult[a] -= 1
            mult[b] -= 1
            crossed[i] = crossed[j] = False

    if need <= 0:
        yield from extend(0, 0, 0, ())
    index = {e: k for k, e in enumerate(g.edges)}
    # Each crossing (edges i < j, sorted pairs, so in normal form) with the
    # indices of its diagonals x_a y_b and x_b y_a; m stands for a diagonal
    # that is not an edge, and counts as crossed.
    pairs = [(i, j, index.get((xa, yb), m), index.get((xb, ya), m), Crossing((xa, ya), (xb, yb)))
             for (i, (xa, ya)), (j, (xb, yb)) in combinations(enumerate(g.edges), 2)
             if xa != xb and ya != yb]
    mult = [0] * (m + 1)
    term = [0, 1] + [2] * m
    crossed = [False] * m + [True]
    for size in range(1, m // 2 + 1):
        # The prune at the empty partial set, whose D' is 0.
        if min(2 * size, 2 * (m - 2 * size)) >= need:
            yield from extend(0, size, 0, ())


def _is_connected(g: BipartiteGraph) -> bool:
    return len(reachable(_planarization_adjacency(g, ()), 0)) == g.vertex_count


# ---------------------------------------------------------------------------
# Drawability
# ---------------------------------------------------------------------------

# The apex node; planarization nodes are numbered from 0.
_APEX = -1


def _decide_drawable(
    g: BipartiteGraph, limits: SearchLimits, deadline: float
) -> Drawing | None:
    """The witness of the first crossing set listed by _crossing_sets whose
    apex planarization is planar, or None when no set is; BudgetExceeded
    when the deadline passes.  The sets left out by the prune are
    non-planar, so this is the first planar set of all."""
    for crossings in _crossing_sets(g, limits, deadline):
        adj = _planarization_adjacency(g, crossings)
        for v in g.x_vertices:
            adj[v].add(_APEX)
        adj[_APEX] = set(g.x_vertices)
        rotation = plane_rotation(adj)
        if rotation is None:
            continue
        del rotation[_APEX]
        for v in g.x_vertices:
            rotation[v].remove(_APEX)
        witness = build_drawing(g, crossings, rotation)
        if disk_face_index(witness._faces, g.x_count) is None:
            raise RuntimeError(f"the embedding of crossing set {crossings} has no disk face")
        return witness
    return None


def is_one_disk_drawable(
    g: BipartiteGraph, limits: SearchLimits | None = None
) -> Drawing | None:
    """Search for any 1-planar drawing of ``g`` with a face touching all X.

    Returns a witness with the first crossing set in the deterministic
    enumeration order (fewest crossings first, then lexicographically)
    that admits one, drawn as the planarity test embeds it, or None once
    the exhaustive search proves none exists.  Crossing sets with too few
    free diagonal sides for the triangle-face bound are pruned unlisted,
    so some "no" answers, K10,2's among them, take no planarity test.
    The time budget is the only limit: BudgetExceeded is raised when it
    runs out before the search is exhausted.
    """
    limits = limits or SearchLimits()
    if not _is_connected(g):
        raise ValueError("drawability search expects a connected graph")
    return _decide_drawable(g, limits, time.monotonic() + limits.time_budget)


# ---------------------------------------------------------------------------
# Maximum edge count
# ---------------------------------------------------------------------------


def _canonical_edges(
    x: int, y: int, chosen: tuple[Edge, ...], limits: SearchLimits, deadline: float
) -> tuple[Edge, ...]:
    """Least adjacency matrix, compared row by row, over part-preserving
    relabelings.

    Only the orders of the smaller part are tried: the x! orders of the X
    rows when x <= y, else the y! orders of the Y columns.  For a fixed
    column order, sorting the rows as tuples gives the least matrix over
    all x! row orders, since the matrices compare row 0 first, then row 1,
    and so on.  For a fixed row order, sorting the columns as column
    vectors gives the least matrix over all y! column orders: the least
    row 0 puts row 0's zeros first, and once rows 0..i-1 are least, the
    column orders that keep them so permute only columns that tie on rows
    0..i-1, among which the least row i puts those columns in ascending
    order of their entry in row i.  Induction on i makes the columns
    ascend as vectors, row 0 first.  Either way the least over all
    relabelings is the least of the matrices tried.  The clock is read
    once per order tried.
    """
    rows = [[0] * y for _ in range(x)]
    for u, v in chosen:
        rows[u][v - x] = 1
    if x <= y:
        columns = list(zip(*rows))
        candidates = (tuple(zip(*sorted(tuple(col[r] for r in order) for col in columns)))
                      for order in permutations(range(x)))
    else:
        candidates = (tuple(sorted(tuple(row[c] for c in order) for row in rows))
                      for order in permutations(range(y)))
    best = None
    for candidate in candidates:
        if time.monotonic() > deadline:
            raise _out_of_time(limits, f"relabeling a {len(chosen)}-edge candidate")
        if best is None or candidate < best:
            best = candidate
    return tuple((i, x + j) for i in range(x) for j in range(y) if best[i][j])


def _classes(x: int, y: int, m: int, limits: SearchLimits, deadline: float):
    """One connected graph with parts (x, y) and m edges per part-preserving
    isomorphism class, in its canonical labelling, in the order in which the
    lexicographic m-edge combinations first reach the class."""
    all_pairs = [(i, x + j) for i in range(x) for j in range(y)]
    seen: set[tuple[Edge, ...]] = set()
    for combo in combinations(all_pairs, m):
        canon = _canonical_edges(x, y, combo, limits, deadline)
        if canon in seen:
            continue
        seen.add(canon)
        g = new_bipartite(x, y, canon)
        if _is_connected(g):
            yield g


def max_edges_one_disk(x: int, y: int, limits: SearchLimits | None = None) -> SearchOutcome:
    """Exact maximum edge count over graphs with parts (x, y) drawable with
    all of X on one face, found by descending exhaustive search.

    Candidate edge sets are enumerated up to part-preserving isomorphism
    and filtered to connected graphs.  The first level with a drawable
    candidate is the maximum.  The search starts at the proven ceiling
    (x*y outside its domain) and tests no level above it: it confirms
    that the ceiling is attained, not that it holds.  Raises
    BudgetExceeded when the time budget runs out first, and ValueError
    for a part size that is not a positive int (a bool is not an int here).
    """
    limits = limits or SearchLimits()
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"part sizes must be ints, got {x!r} and {y!r}")
    if x < 1 or y < 1:
        raise ValueError("part sizes must be positive")
    # Never above x*y: x*y - (3x + 2y - 6) = (x - 2)(y - 3) >= 0 in the disk domain.
    ceiling = ceilings(x, y)["one_disk"]
    if ceiling is None:
        ceiling = x * y
    deadline = time.monotonic() + limits.time_budget

    for m in range(ceiling, 0, -1):
        for g in _classes(x, y, m, limits, deadline):
            witness = _decide_drawable(g, limits, deadline)
            if witness is not None:
                return SearchOutcome(m, witness, exhausted=True)
    return SearchOutcome(0, None, exhausted=True)
