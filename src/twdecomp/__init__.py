"""Treewidth decomposition toolkit.

Approximate minimum-treewidth triangulation with provable width bounds,
built on flow-based minimum vertex separators, plus independent validators
and exact treewidth for small graphs.
"""

from .flow import (Counters, Cut, Exceeded, FlowWorkspace, approx_3way_vertex_cut,
                   min_vertex_separator)
from .graph import Graph, Part, connected_components, vset
from .separators import (DEFAULT_ALPHA, alpha_sum_sep, try_split, two_thirds_vtx_sep,
                         two_way_half_vtx_sep)
from .triangulate import (ALGORITHMS, AlgoReport, DecomposeResult,
                          TreeDecomposition, TreewidthExceeded, TriangSuccess,
                          Triangulation, decompose, min_degree_triang,
                          triang_2way_23, triang_2way_half, triang_3way)
from .validate import (NotChordal, Violation, check_tree_decomposition,
                       clique_number_chordal, exact_treewidth, is_chordal)

__all__ = [
    "ALGORITHMS", "AlgoReport", "Counters", "Cut",
    "DecomposeResult", "DEFAULT_ALPHA", "Exceeded", "FlowWorkspace", "Graph",
    "NotChordal", "Part", "TreeDecomposition", "TreewidthExceeded", "TriangSuccess",
    "Triangulation", "Violation", "alpha_sum_sep",
    "approx_3way_vertex_cut",
    "check_tree_decomposition", "clique_number_chordal", "connected_components",
    "decompose", "exact_treewidth", "is_chordal", "min_degree_triang",
    "min_vertex_separator", "triang_2way_23",
    "triang_2way_half", "triang_3way", "try_split",
    "two_thirds_vtx_sep", "two_way_half_vtx_sep", "vset",
]
