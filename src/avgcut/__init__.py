"""Root-separating edge cuts of optimal average weight in rooted weighted trees.

Exact-rational contraction algorithm, an exhaustive enumeration oracle for
verification, and a dendrogram-cutting layer that turns hierarchical
clusterings into communities.
"""

from .contraction import (
    NEGATIVE_INFINITY,
    POSITIVE_INFINITY,
    Contractibility,
    ContractionState,
    ContractionStep,
    CutResult,
    Objective,
    evaluate_cut,
    optimal_average_cut,
    run_contraction,
)
from .dendro import (
    LinkageTable,
    Merge,
    Partition,
    cluster,
    communities_from_cut,
    linkage_to_tree,
    parse_linkage_csv,
)
from .io import format_edgelist, parse_edgelist, parse_newick
from .oracle import (
    DEFAULT_CUT_LIMIT,
    InternalSubtree,
    brute_force_optimum,
    count_cuts,
    enumerate_cuts,
    is_valid_cut,
)
from .rational import parse_weight
from .tree import EdgeId, NodeId, RootedTree, build_tree, from_edges

__version__ = "0.1.0"

__all__ = [
    "Contractibility",
    "ContractionState",
    "ContractionStep",
    "CutResult",
    "DEFAULT_CUT_LIMIT",
    "EdgeId",
    "InternalSubtree",
    "LinkageTable",
    "Merge",
    "NEGATIVE_INFINITY",
    "NodeId",
    "Objective",
    "POSITIVE_INFINITY",
    "Partition",
    "RootedTree",
    "brute_force_optimum",
    "build_tree",
    "cluster",
    "communities_from_cut",
    "count_cuts",
    "enumerate_cuts",
    "evaluate_cut",
    "format_edgelist",
    "from_edges",
    "is_valid_cut",
    "linkage_to_tree",
    "optimal_average_cut",
    "parse_edgelist",
    "parse_linkage_csv",
    "parse_newick",
    "parse_weight",
    "run_contraction",
    "__version__",
]
