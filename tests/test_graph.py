import random

import networkx as nx
import pytest

from twdecomp import Graph, Part, connected_components, vset
from twdecomp.corpus import cycle_graph, gnp_connected, grid_graph, path_graph


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
    part = Part(g, (1, 0))
    assert part.members == (0, 1)
    assert part.adj == [(1,), (0,), ()]
    assert list(part.inside) == [1, 1, 0]
    assert part.m == 1


def test_induced_subgraph_identity():
    g = cycle_graph(6)
    for part in (Part(g, range(6)), Part(g)):
        assert tuple(part.members) == tuple(range(6))
        assert tuple(part.adj) == g.adj_sorted
        assert list(part.inside) == [1] * 6
        assert part.m == g.m


def test_induced_subgraph_out_of_range():
    for members in ((0, 5), (-1, 1)):
        with pytest.raises(ValueError):
            Part(path_graph(3), members)


def test_induced_subgraph_matches_edge_filter():
    # networkx's induced subgraph is the reference; each member set spans
    # both halves of a disjoint union, so every part has several components.
    rng = random.Random(7)
    for _ in range(30):
        a = gnp_connected(rng.randint(5, 25), rng.uniform(0.1, 0.5), rng)
        b = gnp_connected(rng.randint(5, 25), rng.uniform(0.1, 0.5), rng)
        g = Graph(a.n + b.n, list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])
        members = vset(rng.sample(range(a.n), rng.randint(1, a.n))
                       + rng.sample(range(a.n, g.n), rng.randint(1, b.n)))
        nx_g = nx.Graph()
        nx_g.add_nodes_from(range(g.n))
        nx_g.add_edges_from(g.edges())
        sub = nx_g.subgraph(members)
        part = Part(g, members)
        assert part.members == members
        for v in range(g.n):
            expected = tuple(sorted(sub.neighbors(v))) if v in sub else ()
            assert part.adj[v] == expected
        assert part.m == sub.number_of_edges()
        assert [v for v in range(g.n) if part.inside[v]] == list(members)
        comps = connected_components(g, part=part)
        assert len(comps) >= 2
        assert comps == sorted(vset(c) for c in nx.connected_components(sub))


def test_nested_induction_equals_intersection():
    # a child part built from the root graph equals the child induced from
    # its parent part
    rng = random.Random(13)
    for _ in range(20):
        g = gnp_connected(9, 0.4, rng)
        a = vset(rng.sample(range(9), 6))
        b = set(rng.sample(range(9), 5))
        parent = Part(g, a)
        child = Part(g, set(a) & b)
        for v in range(g.n):
            expected = tuple(w for w in parent.adj[v] if w in b) if v in b else ()
            assert child.adj[v] == expected


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
