import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from twdecomp import Graph, Part, connected_components, vset
from twdecomp.corpus import (cycle_graph, gnp_connected, grid_graph, path_graph,
                             star_graph)

from test_golden import disjoint_union


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


@settings(max_examples=100)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=40) if n > 1 else st.just([]))))
def test_rows_are_ascending_symmetric_and_match_networkx(case):
    # Edges repeat in either direction and many vertices stay isolated.
    n, edges = case
    g = Graph(n, edges + [(v, u) for u, v in edges[::2]])
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    assert len(g.adj) == n and g.m == reference.number_of_edges()
    for v, row in enumerate(g.adj):
        assert type(row) is tuple
        assert list(row) == sorted(set(row))
        assert all(v in g.adj[w] for w in row)
        assert row == tuple(sorted(reference.adj[v]))
    assert len({id(row) for row in g.adj if not row}) <= 1


def test_isolated_vertices_share_one_empty_row():
    # Every empty row is the one shared (); building holds one list per
    # vertex, about 73 bytes, and no set.
    tracemalloc.start()
    try:
        g = Graph(200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 0 and len({id(row) for row in g.adj}) == 1
    assert peak < 20_000_000, peak


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
        assert tuple(part.adj) == g.adj
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


def assert_same_part(part, g, members):
    fresh = Part(g, members)
    assert part.members == fresh.members
    assert part.size == fresh.size == len(fresh.members)
    assert bytes(part.inside) == bytes(fresh.inside)
    # A row that handover cut in place is a list.
    for v in range(g.n):
        assert tuple(part.adj[v]) == fresh.adj[v], v
    assert part.m == fresh.m


def test_handover_equals_a_fresh_build():
    # Each graph's part is handed down a chain of random removals, as the
    # recursion hands a node's part to its largest child; at every step it
    # must equal the part built from the root graph.  Removing one or two
    # members at a time makes a hub's row lose a few entries.
    rng = random.Random(2024)
    graphs = [gnp_connected(rng.randint(6, 40), rng.uniform(0.05, 0.5), rng)
              for _ in range(12)]
    graphs += [grid_graph(5, 7), path_graph(30), star_graph(25), star_graph(60),
               disjoint_union(star_graph(8), gnp_connected(15, 0.3, rng), path_graph(9))]
    for g in graphs:
        for _ in range(3):
            members = vset(rng.sample(range(g.n), rng.randint(1, g.n)))
            part = Part(g, members)
            while members:
                count = rng.choice((1, 2, rng.randint(0, len(members))))
                removed = rng.sample(members, min(count, len(members)))
                members = vset(set(members).difference(removed))
                part = part.handover(removed)
                assert_same_part(part, g, members)


def test_handover_refuses_and_spends():
    g = grid_graph(3, 3)
    part = Part(g, (0, 1, 2, 4))
    for stray in ((3,), (0, 5), (-1,), (0, 9)):
        with pytest.raises(ValueError, match="not a member"):
            part.handover(stray)
    assert_same_part(part, g, (0, 1, 2, 4))
    # A part of the whole graph is built like any other, so handing it over
    # cuts its own rows and leaves g.adj as it was.
    whole = Part(g).handover((2, 4))
    assert_same_part(whole, g, (0, 1, 3, 5, 6, 7, 8))
    assert g.adj == grid_graph(3, 3).adj
    assert g.adj[1] == (0, 2, 4)
    sub = part.handover((0, 4, 4))
    assert_same_part(sub, g, (1, 2))
    with pytest.raises(AttributeError):
        part.members
    with pytest.raises(AttributeError):
        part.handover((1,))


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
            for nxt in g.adj[cur]:
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
