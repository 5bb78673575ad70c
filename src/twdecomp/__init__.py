"""Treewidth decomposition toolkit.

Approximate minimum-treewidth triangulation with provable width bounds,
built on flow-based minimum vertex separators, plus independent validators
and brute-force oracles for small graphs.
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
from .validate import (NotChordal, Violation, brute_force_min_multiway,
                       brute_force_min_separator, check_tree_decomposition,
                       clique_number_chordal, exact_treewidth, is_chordal,
                       max_disjoint_paths, permutation_treewidth)

__all__ = [
    "ALGORITHMS", "AlgoReport", "Counters", "Cut",
    "DecomposeResult", "DEFAULT_ALPHA", "Exceeded", "FlowWorkspace", "Graph",
    "NotChordal", "Part", "TreeDecomposition", "TreewidthExceeded", "TriangSuccess",
    "Triangulation", "Violation", "alpha_sum_sep",
    "approx_3way_vertex_cut",
    "brute_force_min_multiway", "brute_force_min_separator",
    "check_tree_decomposition", "clique_number_chordal", "connected_components",
    "decompose", "exact_treewidth", "is_chordal",
    "max_disjoint_paths", "min_degree_triang",
    "min_vertex_separator", "permutation_treewidth", "triang_2way_23",
    "triang_2way_half", "triang_3way", "try_split",
    "two_thirds_vtx_sep", "two_way_half_vtx_sep", "vset",
]
