"""The heap-ordered MCS and min-degree elimination, the indexed
decomposition checker and the one-BFS chordless-cycle witness against the
quadratic versions they replaced.

The four reference functions below are the earlier library code, kept
verbatim apart from their names and from reading a row as a set where they
subtract from it: they scan every vertex, bag or vertex pair at each step.  The library must return exactly what the first three return;
a chordless cycle is not unique, so the witness is checked for validity.
"""

import random
import time
from itertools import combinations

import networkx as nx
from hypothesis import given, settings, strategies as st

from twdecomp import (Graph, NotChordal, TreeDecomposition, Triangulation,
                      check_tree_decomposition, is_chordal, min_degree_triang)
from twdecomp.corpus import (complete_graph, cycle_graph, gnp_connected, grid_graph,
                             k_tree, partial_k_tree, path_graph, random_tree,
                             star_graph)
from twdecomp.graph import vset
from twdecomp.validate import Violation, _mcs_order

from test_golden import disjoint_union
from test_validate import cycle_is_chordless


def quadratic_mcs_order(g):
    n = g.n
    weight = [0] * n
    picked = [False] * n
    order = []
    for _ in range(n):
        best = -1
        best_w = -1
        for v in range(n):
            if not picked[v] and weight[v] > best_w:
                best = v
                best_w = weight[v]
        picked[best] = True
        order.append(best)
        for w in g.adj[best]:
            if not picked[w]:
                weight[w] += 1
    order.reverse()
    return order


def quadratic_min_degree_triang(g):
    n = g.n
    adj = [set(g.adj[v]) for v in range(n)]
    alive = set(range(n))
    order = []
    bags = []
    fills = set()
    pos = {}
    for step in range(n):
        v = min(alive, key=lambda u: (len(adj[u]), u))
        nbrs = sorted(adj[v])
        bags.append(vset([v] + nbrs))
        pos[v] = step
        order.append(v)
        for a, b in combinations(nbrs, 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fills.add((a, b))
        for u in nbrs:
            adj[u].discard(v)
        alive.discard(v)
        adj[v] = set()

    edges = []
    roots = []
    for i, bag in enumerate(bags):
        later = [u for u in bag if pos[u] > i]
        if later:
            parent = min(later, key=lambda u: pos[u])
            edges.append((i, pos[parent]))
        else:
            roots.append(i)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    if not bags:
        bags.append(())

    chordal = Graph(n, list(g.edges()) + sorted(fills)) if fills else g
    cn = max((len(b) for b in bags), default=0)
    tri = Triangulation(g, tuple(sorted(fills)), chordal, tuple(order), cn)
    return tri, TreeDecomposition.from_bags(bags, edges)


def quadratic_chordless_cycle(g):
    # Any chordless cycle c0..cm yields a hit for v=c0 with u, w its cycle
    # neighbors: the rest of the cycle avoids N[v] entirely.
    for v in range(g.n):
        nbrs = g.adj[v]
        for u, w in combinations(nbrs, 2):
            if w in g.adj[u]:
                continue
            blocked = (set(g.adj[v]) - {u, w}) | {v}
            parent = {u: None}
            queue = [u]
            found = False
            while queue and not found:
                cur = queue.pop(0)
                for nxt in g.adj[cur]:
                    if nxt in blocked or nxt in parent:
                        continue
                    parent[nxt] = cur
                    if nxt == w:
                        found = True
                        break
                    queue.append(nxt)
            if not found:
                continue
            path = [w]
            while path[-1] != u:
                path.append(parent[path[-1]])
            path.reverse()
            return tuple([v] + path)
    raise RuntimeError("no chordless cycle found in a non-chordal graph")


def quadratic_check_tree_decomposition(g, td):
    bags = [set(b) for b in td.bags]
    nbags = len(bags)
    out = []

    for i, bag in enumerate(bags):
        for v in bag:
            if not (0 <= v < g.n):
                out.append(Violation("bag-vertex-range", v,
                                     f"bag {i} holds unknown vertex {v}"))

    edges = []
    for a, b in td.tree_edges:
        if not (0 <= a < nbags and 0 <= b < nbags) or a == b:
            out.append(Violation("not-a-tree", (a, b),
                                 f"bad tree edge ({a}, {b})"))
        else:
            edges.append((a, b))
    tree_adj = [[] for _ in range(nbags)]
    for a, b in edges:
        tree_adj[a].append(b)
        tree_adj[b].append(a)
    if nbags:
        seen = [False] * nbags
        stack = [0]
        seen[0] = True
        while stack:
            cur = stack.pop()
            for nxt in tree_adj[cur]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        if not all(seen) or len(edges) != nbags - 1:
            out.append(Violation("not-a-tree", None,
                                 f"{nbags} bags with {len(edges)} edges do not form a tree"))

    covered = set().union(*bags) if bags else set()
    for v in range(g.n):
        if v not in covered:
            out.append(Violation("uncovered-vertex", v,
                                 f"vertex {v} appears in no bag"))

    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in bags):
            out.append(Violation("uncovered-edge", (u, v),
                                 f"edge ({u}, {v}) is inside no bag"))

    for v in range(g.n):
        holders = [i for i, bag in enumerate(bags) if v in bag]
        if len(holders) <= 1:
            continue
        holder_set = set(holders)
        seen_h = {holders[0]}
        stack = [holders[0]]
        while stack:
            cur = stack.pop()
            for nxt in tree_adj[cur]:
                if nxt in holder_set and nxt not in seen_h:
                    seen_h.add(nxt)
                    stack.append(nxt)
        if len(seen_h) != len(holders):
            out.append(Violation("broken-subtree", v,
                                 f"bags containing vertex {v} are not connected"))
    return out


def family_graphs():
    """Seeded paths, stars, grids, k-trees, random graphs, disjoint unions and
    the graphs with zero and one vertex."""
    rng = random.Random(5150)
    graphs = [Graph(0), Graph(1), path_graph(2), complete_graph(5), cycle_graph(9)]
    for _ in range(6):
        graphs += [
            path_graph(rng.randint(3, 60)),
            star_graph(rng.randint(2, 40)),
            grid_graph(rng.randint(1, 7), rng.randint(2, 9)),
            k_tree(rng.randint(5, 60), rng.randint(1, 4), rng),
            partial_k_tree(rng.randint(10, 60), rng.randint(2, 4), 0.3, rng),
            gnp_connected(rng.randint(2, 50), rng.uniform(0.05, 0.5), rng),
            disjoint_union(random_tree(rng.randint(2, 20), rng), Graph(1),
                           gnp_connected(rng.randint(2, 15), 0.4, rng),
                           cycle_graph(rng.randint(3, 8))),
        ]
    return graphs


def test_mcs_order_matches_quadratic_reference():
    for g in family_graphs():
        chordal = min_degree_triang(g)[0].chordal
        for h in (g, chordal):
            assert _mcs_order(h) == quadratic_mcs_order(h)


def test_min_degree_matches_quadratic_reference():
    for g in family_graphs():
        tri, td = min_degree_triang(g)
        ref_tri, ref_td = quadratic_min_degree_triang(g)
        assert td == ref_td
        assert tri.fill_edges == ref_tri.fill_edges
        assert tri.peo == ref_tri.peo
        assert tri.chordal == ref_tri.chordal
        assert tri.clique_number == ref_tri.clique_number


def test_is_chordal_agrees_with_networkx():
    rng = random.Random(6060)
    chordal_count = 0
    for i in range(200):
        n = rng.randint(1, 80)
        if i % 4 == 0:
            g = partial_k_tree(max(n, 5), rng.randint(1, 4), rng.uniform(0.0, 0.3), rng)
        elif i % 4 == 1:
            g = grid_graph(rng.randint(1, 8), rng.randint(1, 10))
        else:
            g = gnp_connected(n, rng.uniform(0.02, 0.3), rng)
        if i % 2:
            g = min_degree_triang(g)[0].chordal
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        expected = nx.is_chordal(nxg)
        assert (not isinstance(is_chordal(g), NotChordal)) == expected, (i, g)
        chordal_count += expected
    assert 100 <= chordal_count < 200


@st.composite
def decompositions(draw):
    """A graph and a decomposition that may break every condition the
    checker tests: out-of-range vertices, self-loop, out-of-range and
    duplicate tree edges, forests, cycles and empty bags; n may be 0."""
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    if n and draw(st.booleans()):
        # A valid decomposition with a few vertices moved between bags.
        td = min_degree_triang(g)[1]
        bags = [list(b) for b in td.bags]
        tree_edges = list(td.tree_edges)
        for _ in range(draw(st.integers(0, 3))):
            bag = draw(st.sampled_from(bags))
            if bag and draw(st.booleans()):
                bag.remove(draw(st.sampled_from(bag)))
            else:
                bag.append(draw(st.integers(0, n - 1)))
    else:
        nbags = draw(st.integers(0, 6))
        vertex = st.integers(-2, n + 1)
        bags = draw(st.lists(st.lists(vertex, max_size=5), min_size=nbags, max_size=nbags))
        tree_edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, nbags)
                      if draw(st.booleans())]
    index = st.integers(-1, len(bags))
    tree_edges += draw(st.lists(st.tuples(index, index), max_size=4))
    return g, TreeDecomposition(tuple(tuple(b) for b in bags), tuple(tree_edges), 0)


@settings(max_examples=400)
@given(decompositions())
def test_checker_matches_quadratic_reference(case):
    g, td = case
    assert check_tree_decomposition(g, td) == quadratic_check_tree_decomposition(g, td)


def test_chordless_cycle_witness_is_valid_on_seeded_graphs():
    # Wherever the quadratic scan finds a witness, the one-BFS extraction from
    # the failing triple of the elimination test finds a valid one too.
    rng = random.Random(2340)
    witnesses = 0
    for i in range(600):
        n = rng.randint(4, 40)
        if i % 2:
            g = gnp_connected(n, rng.uniform(0.05, 0.6), rng)
        else:
            g = partial_k_tree(max(n, 6), rng.randint(2, 4), rng.uniform(0.05, 0.4), rng)
        res = is_chordal(g)
        if isinstance(res, NotChordal):
            cycle_is_chordless(g, res.cycle)
            cycle_is_chordless(g, quadratic_chordless_cycle(g))
            witnesses += 1
    assert witnesses >= 300


def test_chordless_cycle_witness_is_linear():
    # A 3-tree on 1000 vertices with a chordless 5-cycle hung on its last
    # vertex; the quadratic scan took seconds here.
    g = k_tree(1000, 3, random.Random(1))
    n = g.n
    hung = [(n - 1, n), (n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, n - 1)]
    g = Graph(n + 4, list(g.edges()) + hung)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        res = is_chordal(g)
        best = min(best, time.perf_counter() - start)
    assert isinstance(res, NotChordal)
    cycle_is_chordless(g, res.cycle)
    assert len(res.cycle) == 5
    assert best < 0.1


def _corruptions(g, td, rng):
    """Copies of ``td`` with its tree edges kept and one bag changed, each
    with the kind of violation the change must cause: a vertex dropped from
    an interior bag of its subtree, a vertex added to a bag two or more tree
    edges from its subtree, and an edge's endpoint dropped from the only bag
    that covers the edge."""
    adj = [[] for _ in td.bags]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    holders = [[i for i, bag in enumerate(td.bags) if v in bag] for v in range(g.n)]

    def changed(i, drop=None, add=None):
        bags = [list(b) for b in td.bags]
        if drop is not None:
            bags[i].remove(drop)
        if add is not None:
            bags[i].append(add)
        return TreeDecomposition(tuple(tuple(b) for b in bags), td.tree_edges, 0)

    interior = [(v, i) for v in range(g.n) for i in holders[v]
                if sum(v in td.bags[j] for j in adj[i]) >= 2]
    for v, i in rng.sample(interior, min(3, len(interior))):
        yield "broken-subtree", changed(i, drop=v)

    for v in rng.sample(range(g.n), min(3, g.n)):
        dist = {i: 0 for i in holders[v]}
        queue = list(holders[v])
        for cur in queue:
            for nxt in adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        far = [i for i, d in dist.items() if d >= 2]
        if far:
            yield "broken-subtree", changed(rng.choice(far), add=v)

    single = [(u, v) for u, v in g.edges()
              if sum(u in bag and v in bag for bag in td.bags) == 1]
    for u, v in rng.sample(single, min(3, len(single))):
        i = next(i for i, bag in enumerate(td.bags) if u in bag and v in bag)
        yield "uncovered-edge", changed(i, drop=rng.choice((u, v)))


def test_checker_matches_quadratic_reference_on_corrupted_deep_trees():
    # Hypothesis stops at seven vertices.  These min-degree decompositions
    # keep their tree shape under every corruption, so the checker decides
    # each subtree condition by counting, on trees up to 300 bags deep.
    rng = random.Random(2626)
    graphs = family_graphs() + [k_tree(n, k, rng) for n, k in ((300, 2), (250, 4), (120, 1))]
    graphs += [path_graph(300), path_graph(97)]
    kinds = {"broken-subtree": 0, "uncovered-edge": 0}
    for g in graphs:
        td = min_degree_triang(g)[1]
        assert check_tree_decomposition(g, td) == [] == quadratic_check_tree_decomposition(g, td)
        for kind, bad in _corruptions(g, td, rng):
            found = check_tree_decomposition(g, bad)
            assert found == quadratic_check_tree_decomposition(g, bad)
            assert kind in {v.kind for v in found}
            assert not any(v.kind == "not-a-tree" for v in found)
            kinds[kind] += 1
    assert kinds["broken-subtree"] >= 200 and kinds["uncovered-edge"] >= 120, kinds
