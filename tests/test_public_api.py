"""The names ``import onedisk`` exports.

Adding or removing a public name is a deliberate change: update the list
here with it.
"""

from __future__ import annotations

import onedisk

PUBLIC_NAMES = [
    "AdjacentEdgesCross", "BipartiteGraph", "BoundsReport", "BudgetExceeded",
    "ConstructError", "Crossing", "DisconnectedPlanarization", "Drawing",
    "DrawingBuilder", "DrawingError", "DuplicateEdge", "EdgeCrossedTwice", "FaceWalk",
    "GraphError", "IncompleteRotation", "KTooSmall", "NoOneDiskFace",
    "NonAlternatingDummy", "NotATriangle", "NotPlanarEmbedding", "OutOfDomain",
    "ParseError", "SamePartEdge", "SearchLimits", "UncoveredRegime", "ValidationError",
    "VertexOutOfRange", "build_drawing", "check", "classic_max_edges",
    "construct_extremal", "crossing_count", "czap_max_edges", "double", "edge_count",
    "export_svg", "find_one_disk_face", "huang_max_edges", "insert_b3",
    "is_one_disk_drawable", "karpov_max_edges", "load_drawing", "load_graph",
    "max_edges_one_disk", "maximal_outerplanar", "new_bipartite", "one_disk_max_edges",
    "problem_target_edges", "rotation_faces", "save_drawing", "save_graph",
    "trace_faces", "verification_failure", "verify_one_planar",
]


def test_public_names_are_pinned():
    assert sorted(onedisk.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in onedisk.__all__:
        assert getattr(onedisk, name) is not None, name
