"""The search's planarity test against networkx's, which onedisk never imports."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from onedisk import search
from onedisk._planarity import is_planar

from conftest import SIZES_UP_TO_3_3, apex_planarization, connected_classes

nx = pytest.importorskip("networkx")


def _agrees(adj: dict[int, set[int]]) -> bool:
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((v, u) for v, nbrs in adj.items() for u in nbrs)
    planar, _ = nx.check_planarity(g)
    return is_planar(adj) == planar


def _adjacency(g) -> dict[int, set[int]]:
    return {v: set(g[v]) for v in g}


def test_agrees_on_the_graph_atlas():
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for g in atlas:
        assert _agrees(_adjacency(g)), sorted(g.edges)


def test_agrees_on_random_graphs():
    rng = random.Random(20261018)
    planar = 0
    for _ in range(3000):
        n = rng.randint(8, 14)
        # Edge probabilities around the planarity threshold of these sizes.
        g = nx.gnp_random_graph(n, rng.uniform(0.15, 0.55), seed=rng.randrange(1 << 30))
        adj = _adjacency(g)
        assert _agrees(adj), sorted(g.edges)
        planar += is_planar(adj)
    # Both answers occur often, so neither is right by default.
    assert 600 < planar < 2400


def test_agrees_on_apex_planarizations():
    count = non_planar = 0
    for x, y in SIZES_UP_TO_3_3:
        for g in connected_classes(x, y):
            for matching in search._matchings(g.edges):
                adj = apex_planarization(g, matching)
                assert _agrees(adj), (g.edges, matching)
                count += 1
                non_planar += not is_planar(adj)
    assert (count, non_planar) == (847, 607)


def test_does_not_mutate_its_input():
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
    copy = {v: set(nbrs) for v, nbrs in adj.items()}
    assert is_planar(adj)
    assert adj == copy


def test_onedisk_does_not_import_networkx():
    child = ("import sys, onedisk, onedisk.cli, onedisk.search; "
             "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", child], timeout=60).returncode == 0
