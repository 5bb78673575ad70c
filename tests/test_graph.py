import random

import pytest

from twdecomp import Graph, connected_components, induced_subgraph, vset, within_edge_budget
from twdecomp.corpus import complete_graph, cycle_graph, gnp_connected, grid_graph, path_graph


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])


def test_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.edges() == ((0, 1),)


def test_induced_subgraph_triangle_edge():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    view = induced_subgraph(g, (0, 1))
    assert view.graph.n == 2
    assert view.graph.edges() == ((0, 1),)


def test_induced_subgraph_identity():
    g = cycle_graph(6)
    view = induced_subgraph(g, range(6))
    assert view.graph == g


def test_induced_subgraph_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), (0, 5))


def test_induced_subgraph_matches_edge_filter():
    rng = random.Random(7)
    for _ in range(20):
        g = gnp_connected(10, 0.3, rng)
        keep = vset(rng.sample(range(10), 5))
        view = induced_subgraph(g, keep)
        expected = sorted(
            (view.local(u), view.local(v))
            for u, v in g.edges() if u in set(keep) and v in set(keep)
        )
        assert sorted(view.graph.edges()) == expected


def test_subgraph_mapping_round_trip():
    g = grid_graph(3, 3)
    view = induced_subgraph(g, (1, 4, 7, 8))
    for local in range(view.graph.n):
        assert view.local(view.parent_id(local)) == local
    for parent in view.kept:
        assert view.parent_id(view.local(parent)) == parent


def test_nested_induction_equals_intersection():
    rng = random.Random(13)
    for _ in range(20):
        g = gnp_connected(9, 0.4, rng)
        a = vset(rng.sample(range(9), 6))
        b = vset(rng.sample(range(9), 5))
        first = induced_subgraph(g, a)
        b_local = vset(first.local(v) for v in b if v in set(a))
        second = induced_subgraph(first.graph, b_local)
        direct = induced_subgraph(g, set(a) & set(b))
        assert second.graph == direct.graph


def test_components_path_minus_middle():
    g = Graph(3, [(0, 1), (1, 2)])
    assert connected_components(g, (1,)) == [(0,), (2,)]


def test_components_connected_graph_is_one():
    assert connected_components(cycle_graph(7)) == [tuple(range(7))]


def test_components_grid_minus_middle_column():
    g = grid_graph(3, 3)
    comps = connected_components(g, (1, 4, 7))
    assert comps == [(0, 3, 6), (2, 5, 8)]
    # independent check: breadth-first search from each survivor
    removed = {1, 4, 7}
    for comp in comps:
        start = comp[0]
        seen = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in g.neighbors(cur):
                if nxt not in removed and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        assert vset(seen) == comp


def test_components_partition_property():
    rng = random.Random(31)
    for _ in range(20):
        g = gnp_connected(11, 0.25, rng)
        removed = vset(rng.sample(range(11), 3))
        comps = connected_components(g, removed)
        everything = [v for comp in comps for v in comp]
        assert len(everything) == len(set(everything))
        assert vset(everything) == vset(set(range(11)) - set(removed))


def test_edge_budget_filter():
    assert within_edge_budget(path_graph(10), 1)
    assert not within_edge_budget(complete_graph(10), 2)
