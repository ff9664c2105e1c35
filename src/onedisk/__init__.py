"""Toolkit for 1-planar drawings of bipartite graphs with X on a disk boundary.

Construct extremal families attaining 3|X| + 2|Y| - 6 edges, verify
drawings combinatorially through rotation systems and face tracing,
mirror-double drawings along the disk face, evaluate density ceilings,
and corroborate the edge bound by exhaustive search at tiny sizes.
"""

from .bounds import (
    BoundsReport,
    OutOfDomain,
    check,
    classic_max_edges,
    czap_max_edges,
    huang_max_edges,
    karpov_max_edges,
    one_disk_max_edges,
    problem_target_edges,
)
from .construct import (
    UncoveredRegime,
    construct_extremal,
    double,
)
from .documents import (
    ParseError,
    ValidationError,
    load_drawing,
    load_graph,
    save_drawing,
    save_graph,
)
from .drawing import (
    AdjacentEdgesCross,
    Crossing,
    DisconnectedPlanarization,
    Drawing,
    DrawingError,
    EdgeCrossedTwice,
    FaceWalk,
    IncompleteRotation,
    NoOneDiskFace,
    NonAlternatingDummy,
    NotPlanarEmbedding,
    build_drawing,
    crossing_count,
    find_one_disk_face,
    rotation_faces,
    trace_faces,
    verification_failure,
)
from .graph import (
    BipartiteGraph,
    DuplicateEdge,
    GraphError,
    SamePartEdge,
    VertexOutOfRange,
    edge_count,
    new_bipartite,
)
from .search import (
    BudgetExceeded,
    SearchLimits,
    is_one_disk_drawable,
    max_edges_one_disk,
)
from .svg import export_svg

__version__ = "0.1.0"

__all__ = [
    "AdjacentEdgesCross",
    "BipartiteGraph",
    "BoundsReport",
    "BudgetExceeded",
    "Crossing",
    "DisconnectedPlanarization",
    "Drawing",
    "DrawingError",
    "DuplicateEdge",
    "EdgeCrossedTwice",
    "FaceWalk",
    "GraphError",
    "IncompleteRotation",
    "NoOneDiskFace",
    "NonAlternatingDummy",
    "NotPlanarEmbedding",
    "OutOfDomain",
    "ParseError",
    "SamePartEdge",
    "SearchLimits",
    "UncoveredRegime",
    "ValidationError",
    "VertexOutOfRange",
    "build_drawing",
    "check",
    "classic_max_edges",
    "construct_extremal",
    "crossing_count",
    "czap_max_edges",
    "double",
    "edge_count",
    "export_svg",
    "find_one_disk_face",
    "huang_max_edges",
    "is_one_disk_drawable",
    "karpov_max_edges",
    "load_drawing",
    "load_graph",
    "max_edges_one_disk",
    "new_bipartite",
    "one_disk_max_edges",
    "problem_target_edges",
    "rotation_faces",
    "save_drawing",
    "save_graph",
    "trace_faces",
    "verification_failure",
]
