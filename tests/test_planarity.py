"""The search's planarity routine against networkx's planarity test, which
onedisk never imports, with every plane embedding it returns certified."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from onedisk._planarity import plane_rotation
from onedisk.drawing import rotation_faces
from onedisk.graph import reachable

from conftest import SIZES_UP_TO_3_3, all_matchings, apex_planarization, connected_classes

nx = pytest.importorskip("networkx")


def _certified(adj: dict[int, set[int]]) -> bool:
    """Whether ``adj`` is planar, by ``plane_rotation``, after checking that
    it agrees with networkx and, on a connected graph with an edge, that
    the rotation lists each node's neighbours and meets Euler's formula."""
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((v, u) for v, nbrs in adj.items() for u in nbrs)
    planar, _ = nx.check_planarity(g)
    rotation = plane_rotation(adj)
    assert (rotation is not None) == planar
    if rotation is not None:
        _assert_plane(adj, rotation)
    return planar


def _assert_plane(adj: dict[int, set[int]], rotation: dict[int, list[int]]) -> None:
    """Assert that ``rotation`` is a plane embedding of the connected graph
    ``adj``; graphs that are disconnected or have no edge pass unchecked."""
    edges = sum(len(nbrs) for nbrs in adj.values()) // 2
    if not edges or len(reachable(adj, next(iter(adj)))) != len(adj):
        return
    assert rotation.keys() == adj.keys()
    for v, nbrs in adj.items():
        assert len(rotation[v]) == len(nbrs) and set(rotation[v]) == nbrs, v
    assert len(adj) - edges + len(rotation_faces(rotation)) == 2


def _adjacency(g) -> dict[int, set[int]]:
    return {v: set(g[v]) for v in g}


def _certified_by_blocks(g) -> tuple[bool, bool]:
    """Whether the networkx graph ``g`` is planar, and whether it falls
    outside ``plane_rotation``'s contract.  Such a graph must raise
    ValueError; each of its biconnected blocks is certified instead."""
    adj = _adjacency(g)
    try:
        return _certified(adj), False
    except ValueError:
        blocks = [g.subgraph(b) for b in nx.biconnected_components(g)]
        assert len(blocks) > 1
        planar = all([_certified(_adjacency(b)) for b in blocks])
        assert planar == nx.check_planarity(g)[0]
        return planar, True


def test_agrees_on_the_graph_atlas():
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    outside = [i for i, g in enumerate(atlas) if _certified_by_blocks(g)[1]]
    # Two K4s sharing a node: a cut node survives the reduction.
    assert outside == [1009]


def test_agrees_on_random_graphs():
    rng = random.Random(20261018)
    planar = 0
    outside = []
    for draw in range(3000):
        n = rng.randint(8, 14)
        # Edge probabilities around the planarity threshold of these sizes.
        g = nx.gnp_random_graph(n, rng.uniform(0.15, 0.55), seed=rng.randrange(1 << 30))
        is_planar, is_outside = _certified_by_blocks(g)
        planar += is_planar
        if is_outside:
            outside.append(draw)
    # Both answers occur often, so neither is right by default.
    assert 600 < planar < 2400
    # 13 nodes that reduce to 9 with one cut node.
    assert outside == [209]


def test_agrees_on_apex_planarizations():
    count = non_planar = 0
    for x, y in SIZES_UP_TO_3_3:
        for g in connected_classes(x, y):
            for matching in all_matchings(g.edges):
                non_planar += not _certified(apex_planarization(g, matching))
                count += 1
    assert (count, non_planar) == (847, 607)


def test_suppressed_node_beside_an_edge_is_undone():
    # Node 4 has degree 2 and its neighbours 0 and 1 are adjacent, so the
    # reduction drops the parallel edge it makes and the undo puts node 4
    # back beside the edge 01.
    adj = {v: {u for u in range(4) if u != v} for v in range(4)}
    adj[4] = {0, 1}
    adj[0].add(4)
    adj[1].add(4)
    rotation = plane_rotation(adj)
    assert rotation is not None
    _assert_plane(adj, rotation)


def _cliques(*blocks: tuple[int, ...]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for block in blocks for v in block}
    for block in blocks:
        for v in block:
            adj[v] |= set(block) - {v}
    return adj


@pytest.mark.parametrize("adj", [
    _cliques((0, 1, 2, 3), (0, 4, 5, 6)),
    # Node 4 comes first, so the first cycle would have to cross the bridge.
    _cliques((4, 5, 6, 7), (0, 1, 2, 3), (3, 4)),
    _cliques((0, 1, 2, 3), (4, 5, 6, 7)),
], ids=["sharing_a_node", "joined_by_a_bridge", "disjoint"])
def test_graphs_that_reduce_to_several_blocks_are_refused(adj):
    # Each is planar, but its reduction is neither empty nor biconnected,
    # so no rotation is returned for it.
    with pytest.raises(ValueError, match="not biconnected"):
        plane_rotation(adj)


def test_does_not_mutate_its_input():
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
    copy = {v: set(nbrs) for v, nbrs in adj.items()}
    assert plane_rotation(adj) is not None
    assert adj == copy


def test_onedisk_does_not_import_networkx():
    child = ("import sys, onedisk, onedisk.cli, onedisk.search; "
             "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", child], timeout=60).returncode == 0
