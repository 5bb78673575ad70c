import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.approximation import treewidth_min_degree

from twdecomp import (Graph, NotChordal, TreeDecomposition, check_tree_decomposition,
                      clique_number_chordal, exact_treewidth, is_chordal,
                      min_degree_triang, triang_2way_23, TriangSuccess)
from twdecomp.corpus import (complete_graph, cycle_graph, gnp_connected,
                             grid_graph, path_graph, random_tree, star_graph)
from twdecomp.validate import _mcs_order, _peo_failure

from oracles import brute_force_min_separator, permutation_treewidth, reference_peo_failure


def cycle_is_chordless(g, cycle):
    k = len(cycle)
    assert k >= 4
    for i in range(k):
        assert cycle[(i + 1) % k] in g.adj[cycle[i]]
    for i, j in combinations(range(k), 2):
        if (j - i) % k not in (1, k - 1):
            assert cycle[j] not in g.adj[cycle[i]]


def test_square_is_not_chordal():
    g = cycle_graph(4)
    res = is_chordal(g)
    assert isinstance(res, NotChordal)
    assert len(res.cycle) == 4
    cycle_is_chordless(g, res.cycle)


def test_square_plus_chord_is_chordal():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not isinstance(is_chordal(g), NotChordal)


def test_larger_chordless_cycle_witness():
    g = cycle_graph(7)
    res = is_chordal(g)
    assert isinstance(res, NotChordal)
    cycle_is_chordless(g, res.cycle)


def test_saturated_graphs_are_chordal():
    rng = random.Random(21)
    for _ in range(10):
        g = gnp_connected(8, 0.3, rng)
        full = Graph(8, list(g.edges()) + list(combinations(range(8), 2)))
        assert not isinstance(is_chordal(full), NotChordal)


def test_clique_number_on_families():
    k5 = complete_graph(5)
    order = is_chordal(k5)
    assert clique_number_chordal(k5, order) == 5
    tree = random_tree(9, random.Random(3))
    order = is_chordal(tree)
    assert clique_number_chordal(tree, order) == 2


def brute_force_max_clique(g):
    best = 1 if g.n else 0
    for size in range(2, g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(v in g.adj[u] for u, v in combinations(sub, 2)):
                best = max(best, size)
    return best


def test_clique_number_matches_brute_force_on_chordal_graphs():
    rng = random.Random(14)
    for _ in range(10):
        g = gnp_connected(rng.randint(4, 9), rng.uniform(0.3, 0.6), rng)
        tri, _ = min_degree_triang(g)
        h = tri.chordal
        order = is_chordal(h)
        assert clique_number_chordal(h, order) == brute_force_max_clique(h)


def test_clique_number_rejects_bad_orderings():
    g = path_graph(4)
    with pytest.raises(ValueError):
        clique_number_chordal(g, (0, 1, 2))
    # a valid permutation that is not a perfect elimination ordering
    c4 = cycle_graph(4)
    with pytest.raises(ValueError):
        clique_number_chordal(c4, (0, 1, 2, 3))


def eliminated(n, edges, order):
    # The graph plus the fill of eliminating ``order``: each vertex's later
    # neighbours made a clique, which is chordal with ``order`` as a PEO.
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in rows[v] if pos[w] > pos[v]]
        for a, b in combinations(later, 2):
            rows[a].add(b)
            rows[b].add(a)
    return Graph(n, [(u, w) for u in range(n) for w in rows[u] if u < w])


@settings(max_examples=200)
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=3 * n),
    st.permutations(range(n)), st.permutations(range(n)), st.booleans())))
def test_peo_failure_matches_the_reference(case):
    # Chordal graphs (the fill of one permutation) and arbitrary ones, each
    # tested under its MCS order and under another random permutation.
    edges, fill_order, order, chordal = case
    n = len(order)
    g = eliminated(n, edges, fill_order) if chordal else Graph(n, edges)
    for peo in (_mcs_order(g), fill_order, order):
        assert _peo_failure(g, peo) == reference_peo_failure(g, peo)
    if chordal:
        assert _peo_failure(g, fill_order)[0] is None


def test_check_single_bag_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition.from_bags([(0, 1, 2)], [])
    assert check_tree_decomposition(g, td) == []
    assert td.width == 2


def test_check_reports_uncovered_edge():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition.from_bags([(0, 1), (1, 2)], [(0, 1)])
    violations = check_tree_decomposition(g, td)
    assert any(v.kind == "uncovered-edge" and v.subject == (0, 2) for v in violations)


def test_check_reports_uncovered_vertex():
    g = path_graph(3)
    td = TreeDecomposition.from_bags([(0, 1), (1,)], [(0, 1)])
    violations = check_tree_decomposition(g, td)
    assert any(v.kind == "uncovered-vertex" and v.subject == 2 for v in violations)
    assert any(v.kind == "uncovered-edge" and v.subject == (1, 2) for v in violations)


def test_check_reports_broken_subtree():
    g = path_graph(4)
    td = TreeDecomposition.from_bags([(0, 1), (1, 2), (2, 3), (1, 3)],
                                     [(0, 1), (1, 2), (2, 3)])
    # vertex 1 appears in bags 0, 1, 3 but bag 2 between them lacks it
    violations = check_tree_decomposition(g, td)
    assert any(v.kind == "broken-subtree" and v.subject == 1 for v in violations)


def test_check_reports_non_tree():
    g = path_graph(3)
    td = TreeDecomposition.from_bags([(0, 1), (1, 2), (1,)], [(0, 1)])
    violations = check_tree_decomposition(g, td)
    assert any(v.kind == "not-a-tree" for v in violations)


def test_check_accepts_driver_output(small_corpus_tw):
    for g, twv in small_corpus_tw[:15]:
        out = triang_2way_23(g, twv + 1)
        assert isinstance(out, TriangSuccess)
        assert check_tree_decomposition(g, out.decomposition) == []


def networkx_decomposition(g):
    """The bags and tree of networkx's min-degree heuristic on ``g``."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    _, tree = treewidth_min_degree(h)
    index = {bag: i for i, bag in enumerate(tree.nodes)}
    return TreeDecomposition.from_bags(list(tree.nodes),
                                       [(index[a], index[b]) for a, b in tree.edges])


def test_check_accepts_networkx_decompositions_and_catches_a_dropped_vertex(small_corpus):
    # An oracle written independently of this package: every networkx
    # decomposition is valid, and dropping one endpoint from the only bag
    # that holds an edge must be reported as that edge left uncovered.
    rng = random.Random(2718)
    graphs = list(small_corpus) + [gnp_connected(rng.randint(15, 40),
                                                 rng.uniform(0.08, 0.25), rng)
                                   for _ in range(5)]
    broken = 0
    for g in graphs:
        td = networkx_decomposition(g)
        assert check_tree_decomposition(g, td) == []
        holders = {(u, v): [i for i, bag in enumerate(td.bags) if u in bag and v in bag]
                   for u, v in g.edges()}
        edge = next((e for e, found in holders.items() if len(found) == 1), None)
        if edge is None:
            continue
        (i,) = holders[edge]
        bags = list(td.bags)
        bags[i] = tuple(x for x in bags[i] if x != edge[0])
        violations = check_tree_decomposition(
            g, TreeDecomposition.from_bags(bags, td.tree_edges))
        assert ("uncovered-edge", edge) in [(x.kind, x.subject) for x in violations]
        broken += 1
    assert broken > len(graphs) // 2


def test_exact_treewidth_families():
    assert exact_treewidth(complete_graph(4)) == 3
    assert exact_treewidth(path_graph(5)) == 1
    assert exact_treewidth(cycle_graph(5)) == 2
    assert exact_treewidth(star_graph(6)) == 1
    assert exact_treewidth(Graph(0)) == -1
    assert exact_treewidth(Graph(1)) == 0


def test_exact_treewidth_grid_with_permutation_anchor():
    g = grid_graph(3, 3)
    assert exact_treewidth(g) == 3
    assert permutation_treewidth(g) == 3


def test_exact_treewidth_matches_permutation_oracle():
    rng = random.Random(50)
    for _ in range(12):
        g = gnp_connected(rng.randint(3, 7), rng.uniform(0.3, 0.7), rng)
        assert exact_treewidth(g) == permutation_treewidth(g)


def test_exact_treewidth_universal_vertex():
    rng = random.Random(51)
    for _ in range(8):
        n = rng.randint(3, 8)
        g = gnp_connected(n, rng.uniform(0.3, 0.6), rng)
        augmented = Graph(n + 1, list(g.edges()) + [(v, n) for v in range(n)])
        assert exact_treewidth(augmented) == exact_treewidth(g) + 1


def test_exact_treewidth_guard():
    with pytest.raises(ValueError):
        exact_treewidth(path_graph(15))


def test_exact_treewidth_of_chordal_equals_clique_number():
    rng = random.Random(52)
    for _ in range(8):
        g = gnp_connected(rng.randint(4, 10), rng.uniform(0.25, 0.5), rng)
        tri, _ = min_degree_triang(g)
        h = tri.chordal
        order = is_chordal(h)
        assert exact_treewidth(h) == clique_number_chordal(h, order) - 1


def test_brute_force_separator_examples():
    g = Graph(3, [(0, 1), (1, 2)])
    assert brute_force_min_separator(g, ((0,), (2,))) == 1
    # adjacent single-vertex attachments: cutting one of them suffices
    k4 = complete_graph(4)
    assert brute_force_min_separator(k4, ((0,), (1,))) == 1


def test_brute_force_separator_guard():
    with pytest.raises(ValueError):
        brute_force_min_separator(path_graph(11), ((0,), (10,)))
    with pytest.raises(ValueError):
        brute_force_min_separator(path_graph(11), ((0,), (5,), (10,)))
    with pytest.raises(ValueError):
        permutation_treewidth(path_graph(10))
    # Three legs meeting at vertex 2: the one separator oracle answers the
    # three-group case too.
    spider = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 2), (5, 6), (6, 2)])
    assert brute_force_min_separator(spider, ((0,), (3,), (5,))) == 1
    assert brute_force_min_separator(spider, ((0,), (3,))) == 1
