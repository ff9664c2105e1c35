"""The names ``import onedisk`` exports.

Adding or removing a public name is a deliberate change: update the list
here with it.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import onedisk

PUBLIC_NAMES = [
    "AdjacentEdgesCross", "BipartiteGraph", "BoundsReport", "BudgetExceeded",
    "Crossing", "DisconnectedPlanarization", "Drawing",
    "DrawingError", "DuplicateEdge", "EdgeCrossedTwice", "FaceWalk",
    "GraphError", "IncompleteRotation", "NoOneDiskFace",
    "NonAlternatingDummy", "NotPlanarEmbedding", "OutOfDomain",
    "ParseError", "SamePartEdge", "SearchLimits", "UncoveredRegime", "ValidationError",
    "VertexOutOfRange", "build_drawing", "check", "classic_max_edges",
    "construct_extremal", "crossing_count", "czap_max_edges", "double", "edge_count",
    "export_svg", "find_one_disk_face", "huang_max_edges",
    "is_one_disk_drawable", "karpov_max_edges", "load_drawing", "load_graph",
    "max_edges_one_disk", "new_bipartite", "one_disk_max_edges",
    "problem_target_edges", "rotation_faces", "save_drawing", "save_graph",
    "trace_faces", "verification_failure",
]


def test_public_names_are_pinned():
    assert sorted(onedisk.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in onedisk.__all__:
        assert getattr(onedisk, name) is not None, name


def test_every_benchmark_layer_resolves():
    # The traced benchmark run wraps these by name; a rename breaks it.
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    for module, qualname in runpy.run_path(str(spans))["LAYERS"]:
        target = importlib.import_module(f"onedisk.{module}")
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), (module, qualname)


def test_readme_quick_tour_runs_as_commented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    for comment in ("27 edges", "# 9", "# 54 == huang_max_edges(5, 18)", "# True",
                    "max_edges == 6"):
        assert comment in block, comment
    scope: dict = {}
    exec(block, scope)
    od, g, d, star = scope["od"], scope["g"], scope["d"], scope["star"]
    assert (od.edge_count(g), od.crossing_count(d)) == (27, 9)
    assert od.find_one_disk_face(d) is not None
    assert od.edge_count(star.graph_star) == 54 == od.huang_max_edges(5, 18)
    assert od.check(g, d).entry("one_disk").tight is True
    assert scope["out"].max_edges == 6
