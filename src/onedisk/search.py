"""Exhaustive oracle for tiny instances.

Decides, by brute force over crossing sets and rotation systems, whether
a small bipartite graph admits a 1-planar drawing with a face incident
to every X vertex, and computes the exact maximum edge count for small
part sizes.  The search is independent of the constructions: candidate
crossing sets are all matchings of pairwise independent edge pairs,
dummy rotations are the two alternating orders, original vertices try
every cyclic order, and a candidate survives only if face tracing
satisfies Euler's formula.  Planarizations and face walks come from
:mod:`onedisk.drawing`, and whatever the search finds is re-verified by
``build_drawing`` (structure, alternation at every dummy, Euler's
formula) before being returned.

Only connected candidate graphs are enumerated: an edge-maximal graph
drawable this way is connected, so disconnected candidates never set the
maximum.  The time budget is the only limit: every answer comes from an
exhausted search, and BudgetExceeded is raised if the deadline comes first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .bounds import one_disk_max_edges
from .drawing import (
    Drawing,
    _normalize_crossings,
    _planarization_adjacency,
    _successors,
    _walk_faces,
    build_drawing,
    find_one_disk_face,
)
from .graph import BipartiteGraph, Edge, new_bipartite, reachable


class BudgetExceeded(RuntimeError):
    """The time budget ran out before the question was settled."""


@dataclass(frozen=True)
class SearchLimits:
    """The search's time budget in seconds; it must be positive."""

    time_budget: float = 300.0

    def __post_init__(self) -> None:
        if self.time_budget <= 0:
            raise ValueError("the time budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a maximum-edge search; witness is re-verified evidence."""

    max_edges: int
    witness: Drawing | None
    exhausted: bool


# The inner loops read the clock once every _TICK iterations.
_TICK = 4096


def _out_of_time(limits: SearchLimits, doing: str) -> BudgetExceeded:
    return BudgetExceeded(f"time budget of {limits.time_budget}s exhausted {doing}")


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


def _matchings(edges: tuple[Edge, ...]):
    """All sets of pairwise disjoint pairs of independent edges, as index
    pairs (i, j) with i < j, by size and then lexicographically.  Edges are
    (x, y) pairs, so two are independent when both ends differ."""
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


def _is_connected(g: BipartiteGraph) -> bool:
    return len(reachable(_planarization_adjacency(g, ()), 0)) == g.vertex_count


def _rotation_candidates(nbrs: tuple[int, ...]):
    """All distinct cyclic orders of the (nonempty) neighbor set, lexicographically."""
    first, rest = nbrs[0], nbrs[1:]
    for perm in permutations(rest):
        yield (first,) + perm


def _dummy_candidates(edge_a: Edge, edge_b: Edge) -> list[tuple[int, int, int, int]]:
    a1, a2 = edge_a
    b1, b2 = edge_b
    return [(a1, b1, a2, b2), (a1, b2, a2, b1)]


# ---------------------------------------------------------------------------
# Drawability
# ---------------------------------------------------------------------------


def _decide_drawable(
    g: BipartiteGraph, limits: SearchLimits, deadline: float
) -> Drawing | None:
    """The first verified witness in enumeration order, or None when the
    exhausted search has none; BudgetExceeded when the deadline passes."""
    edges = g.edges
    xs = frozenset(range(g.x_count))

    for matching in _matchings(edges):
        if time.monotonic() > deadline:
            raise _out_of_time(limits, f"while testing {len(edges)}-edge graph")
        crossings = _normalize_crossings(g, [(edges[i], edges[j]) for i, j in matching])
        adj = _planarization_adjacency(g, crossings)
        candidates = [_rotation_candidates(tuple(sorted(adj[v]))) for v in range(g.vertex_count)]
        candidates += [_dummy_candidates(c.edge_a, c.edge_b) for c in crossings]
        succ_options = []
        built = 0
        for cand in candidates:
            succ_options.append([])
            for rot in cand:
                built += 1
                if built % _TICK == 0 and time.monotonic() > deadline:
                    raise _out_of_time(limits, "listing rotations")
                succ_options[-1].append(_successors(rot))
        sides = [(v, u) for v, nbrs in adj.items() for u in nbrs]
        target_faces = 2 - len(adj) + len(sides) // 2

        for tick, succ in enumerate(product(*succ_options), 1):
            if tick % _TICK == 0 and time.monotonic() > deadline:
                raise _out_of_time(limits, "mid-enumeration")
            faces = _walk_faces(succ, sides)
            if len(faces) != target_faces:
                continue
            if not any(xs <= {u for u, _ in walk} for walk in faces):
                continue
            rotation = {v: tuple(succ[v]) for v in adj}
            witness = build_drawing(g, crossings, rotation)
            if find_one_disk_face(witness) is None:
                raise RuntimeError(
                    f"the search saw a face touching every X vertex that "
                    f"build_drawing does not trace for the {len(edges)}-edge graph"
                )
            return witness
    return None


def is_one_disk_drawable(
    g: BipartiteGraph, limits: SearchLimits | None = None
) -> Drawing | None:
    """Search for any 1-planar drawing of ``g`` with a face touching all X.

    Returns the first witness in the deterministic enumeration order
    (fewest crossings first, then lexicographic crossing sets and
    rotations), or None once the exhaustive search proves none exists.
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
    """Least adjacency matrix over part-preserving relabelings."""
    matrix = [[0] * y for _ in range(x)]
    for u, v in chosen:
        matrix[u][v - x] = 1
    best: tuple[tuple[int, ...], ...] | None = None
    tick = 0
    for rows in permutations(range(x)):
        for cols in permutations(range(y)):
            tick += 1
            if tick % _TICK == 0 and time.monotonic() > deadline:
                raise _out_of_time(limits, f"relabeling a {len(chosen)}-edge candidate")
            candidate = tuple(tuple(matrix[r][c] for c in cols) for r in rows)
            if best is None or candidate < best:
                best = candidate
    return tuple((i, x + j) for i in range(x) for j in range(y) if best[i][j])


def max_edges_one_disk(x: int, y: int, limits: SearchLimits | None = None) -> SearchOutcome:
    """Exact maximum edge count over graphs with parts (x, y) drawable with
    all of X on one face, found by descending exhaustive search.

    Candidate edge sets are enumerated up to part-preserving isomorphism
    and filtered to connected graphs.  The first level with a drawable
    candidate is the maximum.  The search starts at the proven ceiling
    (x*y outside 2 <= x <= y) and tests no level above it: it confirms
    that the ceiling is attained, not that it holds.  Raises
    BudgetExceeded when the time budget runs out first.
    """
    limits = limits or SearchLimits()
    if x < 1 or y < 1:
        raise ValueError("part sizes must be positive")
    # Never above x*y: x*y - (3x + 2y - 6) = (x - 2)(y - 3) >= 0 for 2 <= x <= y.
    ceiling = one_disk_max_edges(x, y) if 2 <= x <= y else x * y
    all_pairs = [(i, x + j) for i in range(x) for j in range(y)]
    deadline = time.monotonic() + limits.time_budget

    for m in range(ceiling, 0, -1):
        seen: set[tuple[Edge, ...]] = set()
        for combo in combinations(all_pairs, m):
            if time.monotonic() > deadline:
                raise _out_of_time(limits, f"at {m} edges")
            canon = _canonical_edges(x, y, combo, limits, deadline)
            if canon in seen:
                continue
            seen.add(canon)
            g = new_bipartite(x, y, canon)
            if not _is_connected(g):
                continue
            witness = _decide_drawable(g, limits, deadline)
            if witness is not None:
                return SearchOutcome(m, witness, exhausted=True)
    return SearchOutcome(0, None, exhausted=True)
