"""Plane embeddings of small simple graphs, for the search's witnesses.

A graph is an adjacency map: every integer node mapped to the set of its
neighbours, symmetric and without loops.  ``plane_rotation`` takes a
graph whose reduction (step 1) is empty or biconnected, as every apex
planarization the search builds is (see :mod:`onedisk.search`), and
returns a rotation system of a plane embedding -- each node mapped to
its neighbours in cyclic order, in the convention of
:func:`onedisk.drawing.rotation_faces` -- or None when the graph is
non-planar.  It works in four steps, each of which keeps planarity:

1. Nodes of degree at most one are peeled off, and each node of degree
   two is suppressed: its two edges become one edge between its
   neighbours, and a parallel edge this makes is dropped.  Each removal
   goes on an undo log with its neighbours and whether they were already
   adjacent.  Drawing a peeled node, a subdivision node or a parallel
   edge into a plane drawing keeps it plane, so the reduced graph is
   planar exactly when the input is.
2. A simple planar graph on V >= 3 nodes has at most 3V - 6 edges, so a
   reduced graph with more is rejected at once.
3. The reduced graph must be empty or biconnected; that is the
   routine's contract.  It is embedded by one run of the path-addition
   algorithm of Demoucron, Malgrange and Pertuiset (1964), which fails
   exactly on non-planar graphs and otherwise yields the faces as node
   cycles, all traversed the same way round.  The rotation is read off
   them: w follows u at v when a face walks u, v, w.  Outside the
   contract the run raises ValueError, when its first cycle cannot close
   or a fragment has fewer than two attachments, unless it has found the
   graph non-planar first; no rotation is ever returned for such a graph.
4. The undo log is replayed backwards.  A peeled node is appended to its
   neighbour's order.  A suppressed node v with neighbours a and b takes
   b's place at a and a's place at b, subdividing the edge ab; when a
   and b were already adjacent, v goes in beside that edge instead --
   after b at a and before a at b -- which splits off a triangular face.

The search hands in graphs of a few dozen nodes, on which this quadratic
method takes well under a millisecond; a linear-time test would be far
more code.  Nothing here imports anything outside the standard library.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

Adjacency = Mapping[int, AbstractSet[int]]


def plane_rotation(adj: Adjacency) -> dict[int, list[int]] | None:
    """A rotation system of a plane embedding of the simple graph ``adj``,
    or None when it is non-planar; ``adj`` is not modified.  A graph whose
    reduction is neither empty nor biconnected raises ValueError or is
    found non-planar (module docstring, step 3)."""
    g, undo = _reduced(adj)
    nodes = len(g)
    edges = sum(len(nbrs) for nbrs in g.values()) // 2
    if nodes >= 3 and edges > 3 * nodes - 6:
        return None
    faces = _embeds(g) if g else []
    if faces is None:
        return None
    # w follows u at v when a face walks u, v, w.
    follows: dict[int, dict[int, int]] = {v: {} for v in g}
    for face in faces:
        for u, v, w in zip(face[-1:] + face[:-1], face, face[1:] + face[:1]):
            follows[v][u] = w
    rotation: dict[int, list[int]] = {}
    for v, succ in follows.items():
        order = rotation[v] = []
        first = u = next(iter(succ))
        while True:
            order.append(u)
            u = succ[u]
            if u == first:
                break
    # Undo the reduction, last removal first (module docstring, step 4).
    for v, nbrs, adjacent in reversed(undo):
        rotation[v] = list(nbrs)
        if len(nbrs) == 1:
            rotation[nbrs[0]].append(v)
        elif len(nbrs) == 2:
            a, b = nbrs
            at_a, at_b = rotation[a], rotation[b]
            if adjacent:
                at_a.insert(at_a.index(b) + 1, v)
                at_b.insert(at_b.index(a), v)
            else:
                at_a[at_a.index(b)] = v
                at_b[at_b.index(a)] = v
    return rotation


def _reduced(adj: Adjacency) -> tuple[dict, list]:
    """A copy of ``adj`` with every node of degree <= 2 peeled or suppressed,
    repeatedly, so every node left has degree >= 3, and the undo log: one
    (node, neighbours, whether two neighbours were already adjacent) per
    removal, in order."""
    g = {v: set(nbrs) for v, nbrs in adj.items()}
    undo = []
    stack = [v for v, nbrs in g.items() if len(nbrs) <= 2]
    while stack:
        v = stack.pop()
        nbrs = g.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        del g[v]
        for u in nbrs:
            g[u].discard(v)
        adjacent = False
        if len(nbrs) == 2:
            a, b = nbrs
            adjacent = b in g[a]
            g[a].add(b)
            g[b].add(a)
        undo.append((v, tuple(nbrs), adjacent))
        stack.extend(nbrs)
    return g, undo


def _path(g: dict, start, goals, avoid) -> list:
    """A shortest path from ``start`` to a node of ``goals`` that enters no
    node of ``avoid`` on the way, as a node list; empty when none exists."""
    parent = {start: None}
    frontier = [start]
    while frontier:
        following = []
        for v in frontier:
            for u in g[v]:
                if u in parent:
                    continue
                parent[u] = v
                if u in goals:
                    path = [u]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1]
                if u not in avoid:
                    following.append(u)
        frontier = following
    return []


def _fragments(g: dict, placed: set, placed_edges: set) -> list[tuple[set, list]]:
    """The fragments of ``g`` relative to the embedded subgraph: each edge
    outside it between two placed nodes, and each component of the unplaced
    nodes with the edges joining it to placed ones.  Each fragment is given
    as its attachments (the placed nodes it touches) and a path through it
    between two of them."""
    out = []
    for v in placed:
        for u in g[v]:
            if v < u and u in placed and (v, u) not in placed_edges:
                out.append(({v, u}, [v, u]))
    seen: set = set()
    for s in g:
        if s in placed or s in seen:
            continue
        comp = {s}
        frontier = [s]
        attachments = set()
        while frontier:
            v = frontier.pop()
            for u in g[v]:
                if u in placed:
                    attachments.add(u)
                elif u not in comp:
                    comp.add(u)
                    frontier.append(u)
        seen |= comp
        # In a biconnected graph every fragment has two attachments or more.
        if len(attachments) < 2:
            raise ValueError(f"{len(attachments)} attachment(s): the graph is not biconnected")
        a = min(attachments)
        inner = _path(g, next(u for u in g[a] if u in comp), attachments - {a}, placed)
        out.append((attachments, [a] + inner))
    return out


def _embeds(g: dict) -> list[list] | None:
    """Demoucron, Malgrange and Pertuiset's path addition on the biconnected
    graph ``g`` of minimum degree three: the faces of a plane embedding, or
    None when there is none.  Raises ValueError on finding that ``g`` is
    not biconnected.

    Faces are node lists, simple cycles because every partial embedding of
    a biconnected graph is biconnected, each traversed the same way round:
    a split face keeps its own direction and the new path is walked once
    each way.  Each round places one path of a
    fragment in a face that holds all the fragment's attachments, taking a
    fragment with a single such face when there is one; a fragment with no
    such face proves the graph non-planar.
    """
    v = next(iter(g))
    a, *others = g[v]
    cycle = [v] + _path(g, a, set(others), {v})
    if len(cycle) == 1:
        raise ValueError(f"node {v} is a cut node: the graph is not biconnected")
    placed = set(cycle)
    placed_edges = set(zip(cycle, cycle[1:] + cycle[:1]))
    placed_edges |= {(b, a) for a, b in placed_edges}
    faces = [cycle, cycle[::-1]]
    face_sets = [set(cycle), set(cycle)]
    while True:
        fragments = _fragments(g, placed, placed_edges)
        if not fragments:
            return faces
        chosen = None
        for attachments, path in fragments:
            homes = [k for k, fs in enumerate(face_sets) if attachments <= fs]
            if not homes:
                return None
            if chosen is None or len(homes) < len(chosen[1]):
                chosen = (path, homes)
                if len(homes) == 1:
                    break
        path, homes = chosen
        k = homes[0]
        face = faces[k]
        i, j = face.index(path[0]), face.index(path[-1])
        if i > j:
            i, j = j, i
            path = path[::-1]
        inner = path[1:-1]
        first = face[i:j + 1] + inner[::-1]
        second = face[j:] + face[:i + 1] + inner
        faces[k], face_sets[k] = first, set(first)
        faces.append(second)
        face_sets.append(set(second))
        placed.update(inner)
        placed_edges.update(zip(path, path[1:]))
        placed_edges.update(zip(path[1:], path))
