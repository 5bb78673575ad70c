import math
import random
import re
from collections import Counter, deque
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.flow import edmonds_karp

from twdecomp import (Counters, Cut, Exceeded, FlowWorkspace, Graph, Part,
                      approx_3way_vertex_cut, decompose, flow, min_vertex_separator, try_split,
                      vset)
from twdecomp.corpus import (complete_graph, cycle_graph, gnp_connected, grid_graph,
                             partial_k_tree, random_tree, star_graph)
from twdecomp.flow import _split_three_ways, _verify_cut, _verify_separator
from twdecomp.separators import _three_partitions

from oracles import (brute_force_min_separator, half_candidates, max_disjoint_paths,
                     reference_approx_3way_vertex_cut, reference_min_vertex_separator,
                     split_three_ways_by_components, two_thirds_candidates)
from test_certificate_counts import search_graphs
from test_golden import fallback_graphs, golden_graphs
from test_graph import assert_same_part


def fresh(g, *groups, part=None, counters=None):
    """A new workspace whose targets are the union of ``groups``."""
    return FlowWorkspace(g, part, [v for grp in groups for v in grp], counters)


def one_shot(g, terminals, bound, part=None):
    """One flow through a workspace of its own."""
    return min_vertex_separator(fresh(g, *terminals, part=part), terminals, bound)


def sides_in_order(cut):
    """Every side of ``cut`` in side order, its rest listed at its place."""
    sides = list(cut.listed)
    sides.insert(cut.rest_at, cut.rest)
    return tuple(sides)


def cut_is_consistent(g, terminals, res):
    sep, s1, s2 = set(res.separator), set(res.listed[0]), set(res.rest)
    assert len(sep) + len(s1) + len(s2) == g.n
    assert not (sep & s1) and not (sep & s2) and not (s1 & s2)
    for u, v in g.edges():
        assert not ((u in s1 and v in s2) or (u in s2 and v in s1))
    side_a, side_b = terminals
    assert set(side_a) - sep <= s1
    assert set(side_b) - sep <= s2


def test_flow_rejects_overlapping_sides():
    with pytest.raises(ValueError, match="disjoint"):
        one_shot(Graph(3, [(0, 1), (1, 2)]), ((0, 1), (1, 2)), 3)


def test_flow_rejects_an_empty_side():
    with pytest.raises(ValueError, match="non-empty"):
        one_shot(Graph(3, [(0, 1), (1, 2)]), ((), (1,)), 3)


def test_path_bottleneck():
    # a - x - c: the minimum is a single vertex; unit capacities make the
    # source attachment itself the frontier cut.
    g = Graph(3, [(0, 1), (1, 2)])
    terminals = ((0,), (2,))
    res = one_shot(g, terminals, 2)
    assert isinstance(res, Cut)
    assert len(res.separator) == 1 == brute_force_min_separator(g, terminals)
    cut_is_consistent(g, terminals, res)


def test_square_cycle_cut():
    g = cycle_graph(4)
    terminals = ((0,), (2,))
    res = one_shot(g, terminals, 4)
    assert len(res.separator) == brute_force_min_separator(g, terminals) == 1
    cut_is_consistent(g, terminals, res)


def test_complete_minus_one_edge():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)]
    g = Graph(5, edges)
    terminals = ((0,), (1,))
    res = one_shot(g, terminals, 4)
    assert len(res.separator) == brute_force_min_separator(g, terminals) == 1
    cut_is_consistent(g, terminals, res)


def test_wide_attachments_need_internal_cut():
    # With both endpoints of every short path attached, the cut must use the
    # two middle vertices: a full Menger-style instance.
    g = cycle_graph(4)
    terminals = ((0, 2), (1, 3))
    res = one_shot(g, terminals, 4)
    assert isinstance(res, Cut)
    assert len(res.separator) == brute_force_min_separator(g, terminals) == 2


def test_exceeded_after_bound_plus_one_augmentations():
    g = complete_graph(6)
    terminals = ((0, 1, 2), (3, 4, 5))
    res = one_shot(g, terminals, 1)
    assert isinstance(res, Exceeded)
    assert res.augmentations == 2


def test_packed_path_blocking_a_second_source_is_rerouted():
    # a1 - m - b1, a2 - m, a1 - x - y - b2.  The two-edge path a1-m-b1 is
    # packed first and leaves a2 no route of its own; flow 2 needs a BFS that
    # sends a2 through m and cancels a1 -> m by a residual back-step.
    a1, a2, m, b1, x, y, b2 = range(7)
    g = Graph(7, [(a1, m), (m, b1), (a2, m), (a1, x), (x, y), (y, b2)])
    terminals = ((a1, a2), (b1, b2))
    res = one_shot(g, terminals, 3)
    assert isinstance(res, Cut)
    assert len(res.separator) == 2 == brute_force_min_separator(g, terminals)
    assert res.augmentations == 2
    cut_is_consistent(g, terminals, res)


def test_adjacent_terminals_are_packed_up_to_the_bound():
    # Three source-sink edges plus a chord: one-edge paths alone certify
    # more than `bound` disjoint paths.
    g = Graph(6, [(0, 3), (1, 4), (2, 5), (0, 4)])
    terminals = ((0, 1, 2), (3, 4, 5))
    for bound in (0, 1, 2):
        res = one_shot(g, terminals, bound)
        assert isinstance(res, Exceeded)
        assert res.augmentations == bound + 1
    res = one_shot(g, terminals, 3)
    assert isinstance(res, Cut)
    assert len(res.separator) == 3 == brute_force_min_separator(g, terminals)
    assert res.augmentations == 3


def split_vertex_max_flow(vertices, edges, terminals):
    """Max-flow value and residual-reachable cut of the split-vertex network.

    Each vertex v becomes ("in", v) -> ("out", v) with capacity one; graph
    edges and the super-terminal arcs are uncapacitated.  ``vertices`` come
    in ascending order.
    """
    net = nx.DiGraph()
    for v in vertices:
        net.add_edge(("in", v), ("out", v), capacity=1)
    for u, v in edges:
        net.add_edge(("out", u), ("in", v))
        net.add_edge(("out", v), ("in", u))
    side_a, side_b = terminals
    for a in side_a:
        net.add_edge("s", ("in", a))
    for b in side_b:
        net.add_edge(("out", b), "t")
    residual = edmonds_karp(net, "s", "t")
    reached = {"s"}
    queue = deque(["s"])
    while queue:
        x = queue.popleft()
        for y, arc in residual.succ[x].items():
            if y not in reached and arc["capacity"] - arc["flow"] > 0:
                reached.add(y)
                queue.append(y)
    separator, side1, side2 = [], [], []
    for v in vertices:
        seen_in, seen_out = ("in", v) in reached, ("out", v) in reached
        if seen_in and not seen_out:
            separator.append(v)
        elif seen_in or seen_out:
            side1.append(v)
        else:
            side2.append(v)
    return residual.graph["flow_value"], (tuple(separator), tuple(side1), tuple(side2))


def test_matches_networkx_max_flow_beyond_brute_force_range():
    rng = random.Random(5150)
    # a separate stream, so the whole-graph inputs stay as they were
    part_rng = random.Random(5151)
    outcomes = set()
    part_outcomes = set()
    for _ in range(120):
        n = rng.randint(11, 60)
        g = gnp_connected(n, rng.uniform(1.5, 6.0) / n, rng)
        verts = list(range(n))
        rng.shuffle(verts)
        a = rng.randint(1, n // 4)
        b = rng.randint(1, n // 4)
        terminals = (tuple(verts[:a]), tuple(verts[a:a + b]))
        bound = rng.randint(0, 6)
        value, cut = split_vertex_max_flow(range(g.n), g.edges(), terminals)
        res = one_shot(g, terminals, bound)
        assert isinstance(res, Exceeded) == (value > bound)
        assert res.augmentations == min(value, bound + 1)
        if isinstance(res, Cut):
            assert (res.separator, *res.listed, res.rest) == cut
        outcomes.add(type(res))

        # the same terminals inside a random member subset, against
        # networkx on the induced subgraph
        members = vset(verts[:a + b] + [v for v in verts[a + b:]
                                        if part_rng.random() < 0.7])
        sub = nx.Graph(g.edges()).subgraph(members)
        value, cut = split_vertex_max_flow(members, sub.edges(), terminals)
        res = one_shot(g, terminals, bound, Part(g, members))
        assert isinstance(res, Exceeded) == (value > bound)
        assert res.augmentations == min(value, bound + 1)
        if isinstance(res, Cut):
            assert (res.separator, *res.listed, res.rest) == cut
        part_outcomes.add(type(res))
    assert outcomes == part_outcomes == {Cut, Exceeded}


@pytest.mark.parametrize("separator, side1, flow, message", [
    ((2,), (0, 3), 1, "edge (0, 1) crosses the cut"),
    ((2,), (0, 1), 2, "cut size differs from flow value"),
    ((2,), (0, 1, 5), 1, "do not partition the vertices"),
    ((2,), (0, 1, 7), 1, "do not partition the vertices"),
    ((2,), (0, 1, 1), 1, "do not partition the vertices"),
    ((2,), (0, 1, 2), 1, "do not partition the vertices"),
    ((2,), (0, 1, 3, 4), 1, "uncut sink attachment outside the rest"),
    ((2,), (3, 4), 1, "uncut source attachment outside side1"),
], ids=["crossing-edge", "size-differs", "not-a-partition", "out-of-range",
        "listed-twice", "separator-in-side1", "sink-in-side1", "source-outside-side1"])
def test_verify_cut_rejects_tampered_cuts(separator, side1, flow, message):
    # A flow's cut lists side1 only; its rest is the part minus side1 and
    # the separator.  Vertex 5 is in the graph but not in the part.  A cut
    # that does not split its part is refused when it is built, the others
    # by the flow's own checks.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    terminals = ((0,), (4,))
    part = Part(g, range(5))
    _verify_cut(*terminals, Cut((2,), ((0, 1),), 1, part), 1)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        _verify_cut(*terminals, Cut(separator, (side1,), 1, part), flow)


@settings(max_examples=120)
@given(kind=st.sampled_from(("gnp", "grid", "tree")), n=st.integers(4, 40),
       count=st.sampled_from((1, 3)), rest=st.booleans(),
       tamper=st.sampled_from((None, "moved", "repeat", "outsider")),
       seed=st.integers(0, 2**31))
def test_a_cut_is_built_exactly_when_it_splits_its_part(kind, n, count, rest, tamper, seed):
    # The members of a part go at random to the separator, to ``count``
    # listed sides and, when ``rest`` holds, to the rest: whole components of
    # the part minus the separator at a time, then tampered with by moving
    # one member to another side, listing a vertex twice, or listing one
    # from outside the part.  networkx decides independently whether the
    # pieces partition the part and every component of the part minus the
    # separator lies in one side.
    rng = random.Random(seed)
    g = property_graph(kind, n, rng)
    if rng.random() < 0.25:
        part, members = Part(g), tuple(range(g.n))
    else:
        members = vset(v for v in range(g.n) if rng.random() < 0.8)
        part = Part(g, members)
    sub = nx.Graph(g.edges())
    sub.add_nodes_from(range(g.n))
    sub = sub.subgraph(members)
    labels = range(count + 1 if rest else count)
    share = rng.uniform(0.05, 0.5)
    separator = [v for v in members if rng.random() < share]
    label = dict.fromkeys(separator, -1)
    for comp in nx.connected_components(sub.subgraph(set(members) - set(separator))):
        label.update(dict.fromkeys(comp, rng.choice(labels)))
    if tamper == "moved" and len(label) > len(separator):
        v = rng.choice([v for v in members if label[v] >= 0])
        label[v] = rng.choice(labels)
    pieces = [[] for _ in range(count + 1)]
    for v in members:
        if label[v] < count:
            pieces[label[v] + 1].append(v)
    listed_vertices = [v for piece in pieces for v in piece]
    if tamper == "repeat" and listed_vertices:
        rng.choice(pieces).append(rng.choice(listed_vertices))
    elif tamper == "outsider":
        outside = [v for v in range(g.n) if v not in sub] + [-1, g.n]
        rng.choice(pieces).append(rng.choice(outside))
    rest_vertices = set(sub) - {v for piece in pieces for v in piece}
    side_of = {v: i for i, piece in enumerate(pieces[1:]) for v in piece}
    accepted = nx.community.is_partition(sub, [*pieces, rest_vertices]) and all(
        len({side_of.get(v, count) for v in comp}) == 1
        for comp in nx.connected_components(sub.subgraph(set(sub) - set(pieces[0]))))
    separator, listed = tuple(pieces[0]), tuple(map(tuple, pieces[1:]))
    if accepted:
        assert Cut(separator, listed, 0, part).owner == dict.fromkeys(separator, -1) | side_of
    else:
        with pytest.raises(RuntimeError, match="flow invariant violated"):
            Cut(separator, listed, 0, part)


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(4, 10)
        g = gnp_connected(n, rng.uniform(0.25, 0.6), rng)
        verts = list(range(n))
        rng.shuffle(verts)
        a = rng.randint(1, max(1, n // 3))
        b = rng.randint(1, max(1, n // 3))
        terminals = (tuple(verts[:a]), tuple(verts[a:a + b]))
        res = one_shot(g, terminals, n)
        assert isinstance(res, Cut)
        assert len(res.separator) == brute_force_min_separator(g, terminals)
        assert res.augmentations <= n + 1
        cut_is_consistent(g, terminals, res)


def test_menger_duality_on_small_graphs():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(4, 8)
        g = gnp_connected(n, rng.uniform(0.25, 0.5), rng)
        verts = list(range(n))
        rng.shuffle(verts)
        terminals = (tuple(verts[:2]), tuple(verts[2:4]))
        res = one_shot(g, terminals, n)
        packing = max_disjoint_paths(g, *terminals)
        assert len(res.separator) == packing


def test_determinism():
    rng = random.Random(3)
    g = gnp_connected(9, 0.4, rng)
    terminals = ((0, 1), (7, 8))
    first = one_shot(g, terminals, 9)
    second = one_shot(g, terminals, 9)
    assert first == second


def test_three_way_star_all_isolating_cuts_are_center():
    g = star_graph(3)
    res = approx_3way_vertex_cut(fresh(g, (1, 2, 3)), (1,), (2,), (3,), 3)
    assert res.separator == (0,)
    # Every search finished, so side 1 is the one left unlisted.
    assert (res.listed, res.rest_at, res.rest) == (((1,), (3,)), 1, (2,))
    assert sides_in_order(res) == ((1,), (2,), (3,))


def test_three_way_spider_matches_brute_force():
    # Three legs t1-a-m, t2-b-m, t3-c-m meeting at m: removing the meeting
    # point separates everything, so the optimum is a single vertex.
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 2), (5, 6), (6, 2)])
    groups = ((0,), (3,), (5,))
    opt = brute_force_min_separator(g, groups)
    assert opt == 1
    res = approx_3way_vertex_cut(fresh(g, *groups), *groups, bound=3)
    assert len(res.separator) == 1


def test_three_way_respects_four_thirds_factor():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(5, 10)
        g = gnp_connected(n, rng.uniform(0.25, 0.6), rng)
        verts = list(range(n))
        rng.shuffle(verts)
        groups = (tuple(verts[0:1]), tuple(verts[1:2]), tuple(verts[2:3]))
        res = approx_3way_vertex_cut(fresh(g, *groups), *groups, bound=n)
        opt = brute_force_min_separator(g, groups)
        got = len(res.separator)
        assert got <= math.ceil(4 * opt / 3)
        sides = sides_in_order(res)
        combined = set(res.separator) | set().union(*map(set, sides))
        assert len(combined) == n


def test_three_way_exceeded_when_bound_too_small():
    g = complete_graph(7)
    res = approx_3way_vertex_cut(fresh(g, (0, 1, 2)), (0,), (1,), (2,), 1)
    assert isinstance(res, Exceeded)


def test_three_way_reuses_cached_isolating_cuts():
    g = grid_graph(4, 4)
    groups = ((0, 1), (14, 15), (3, 7))
    # A workspace of its own for each call runs three flows every time.
    plain = Counters()
    want = approx_3way_vertex_cut(fresh(g, *groups, counters=plain), *groups, 6)
    assert isinstance(want, Cut)
    assert approx_3way_vertex_cut(fresh(g, *groups, counters=plain), *groups, 6) == want
    assert plain.separator_calls == 6
    ws = fresh(g, *groups, counters=Counters())
    counters = ws.counters
    first = approx_3way_vertex_cut(ws, *groups, 6)
    assert first == want and first.augmentations == want.augmentations
    assert counters.separator_calls == 3
    assert counters.augmentations == first.augmentations
    assert sorted(ws.cuts) == sorted(ws.mask(grp) for grp in groups)
    # The same groups again run no flow, give an equal cut and report no
    # augmentations.
    again = approx_3way_vertex_cut(ws, *groups, 6)
    assert again == want and again.augmentations == 0
    assert counters.separator_calls == 3
    assert 2 * counters.augmentations == plain.augmentations
    # Another split of the same targets shares one group: two flows run, and
    # the cut reports theirs alone.
    regrouped = ((0, 1), (14,), (3, 7, 15))
    before = counters.augmentations
    shared = approx_3way_vertex_cut(ws, *regrouped, 6)
    assert shared == approx_3way_vertex_cut(fresh(g, *regrouped), *regrouped, 6)
    assert counters.separator_calls == 5
    assert shared.augmentations == counters.augmentations - before > 0
    # The cuts of a call that ended Exceeded are kept too.
    ws = fresh(complete_graph(7), (0, 1, 2))
    first = approx_3way_vertex_cut(ws, (0,), (1,), (2,), 1)
    again = approx_3way_vertex_cut(ws, (0,), (1,), (2,), 1)
    assert isinstance(first, Exceeded) and again == Exceeded(first.bound, 0)
    assert first.augmentations == ws.counters.augmentations > 0
    assert ws.counters.separator_calls == 3


def test_isolating_cuts_are_kept_per_group():
    g = grid_graph(4, 4)
    groups = ((0, 1), (14, 15), (3, 7))
    ws = fresh(g, *groups)
    # Each group's flow runs once, whatever the bound; a later call, at any
    # bound, runs none and reports no augmentations.  Each result reports
    # what its own flows added to the counters.
    for bound, flows in ((6, 3), (2, 3), (6, 3), (2, 3)):
        calls, augs = ws.counters.separator_calls, ws.counters.augmentations
        got = approx_3way_vertex_cut(ws, *groups, bound)
        want = approx_3way_vertex_cut(fresh(g, *groups), *groups, bound)
        assert ws.counters.separator_calls == flows
        assert got.augmentations == ws.counters.augmentations - augs
        if flows == calls:
            want = replace(want, augmentations=0)
        assert got == want and got.augmentations == want.augmentations
    assert isinstance(approx_3way_vertex_cut(ws, *groups, 2), Exceeded)
    assert sorted(ws.cuts) == sorted(ws.mask(grp) for grp in groups)
    assert all(isinstance(sep, int) for sep in ws.cuts.values())


def test_a_second_bound_runs_no_flow():
    # Bound 1 rejects the triple after three exact isolating flows, and
    # bound 6 then reuses all three: its cut equals a fresh workspace's.
    g = grid_graph(4, 4)
    groups = ((0, 1), (14, 15), (3, 7))
    ws = fresh(g, *groups)
    assert isinstance(approx_3way_vertex_cut(ws, *groups, 1), Exceeded)
    assert ws.counters.separator_calls == 3
    got = approx_3way_vertex_cut(ws, *groups, 6)
    assert ws.counters.separator_calls == 3 and got.augmentations == 0
    assert got == approx_3way_vertex_cut(fresh(g, *groups), *groups, 6)


def test_a_negative_bound_is_refused_before_any_flow():
    ws = fresh(grid_graph(4, 4), (0, 1), (14, 15), (3, 7))
    with pytest.raises(ValueError, match="bound must be non-negative"):
        approx_3way_vertex_cut(ws, (0, 1), (14, 15), (3, 7), -1)
    assert ws.counters == Counters() and not ws.cuts
    assert_clean(ws)


def test_three_way_cuts_match_the_bounded_reference_on_small_graphs():
    # Seeded 3-partitions of random targets on graphs of at most 10
    # vertices, bounds 0..n in a shuffled order on one workspace: the exact
    # cuts, kept per group, give the separator, listed sides and rest
    # position (or Exceeded) of the reference, which keeps a cut per
    # (group, bound) on a twin workspace and leaves out a cut above the
    # bound.  Each kept cut is a minimum isolating cut.
    rng = random.Random(2929)
    outcomes = Counter()
    for _ in range(60):
        n = rng.randint(4, 10)
        kind = rng.choice(("gnp", "tree", "grid", "pkt"))
        if kind == "grid":
            g = grid_graph(2, n // 2)
        elif kind == "tree":
            g = random_tree(n, rng)
        elif kind == "pkt":
            g = partial_k_tree(n, rng.randint(2, 3), 0.3, rng)
        else:
            g = gnp_connected(n, rng.uniform(0.25, 0.6), rng)
        targets = rng.sample(range(g.n), rng.randint(3, g.n))
        ws, twin = FlowWorkspace(g, None, targets), FlowWorkspace(g, None, targets)
        for _ in range(3):
            owner = [rng.choice((0, 0, 1, 1, 2)) if rng.random() < 0.9 else 0 for _ in targets]
            groups = tuple(vset(t for t, o in zip(targets, owner) if o == i) for i in range(3))
            bounds = list(range(g.n + 1))
            rng.shuffle(bounds)
            for bound in bounds:
                got = approx_3way_vertex_cut(ws, *groups, bound)
                want = reference_approx_3way_vertex_cut(twin, *groups, bound)
                if isinstance(want, Exceeded):
                    assert isinstance(got, Exceeded) and got.bound == bound
                    outcomes["exceeded"] += 1
                    continue
                assert got == want
                assert sides_in_order(got) == split_three_ways_by_components(
                    g, ws.part, got.separator, groups)
                outcomes["cut"] += 1
            assert_clean(ws)
        for mask, sep in ws.cuts.items():
            group = ws.targets_of(mask)
            others = ws.targets_of(((1 << len(targets)) - 1) ^ mask)
            assert sep.bit_count() == brute_force_min_separator(g, (group, others))
            assert sep.bit_count() <= len(group)
    assert min(outcomes.values()) > 100


def test_three_way_groups_must_partition_the_targets():
    ws = fresh(grid_graph(4, 4), (0, 1, 3, 7, 14, 15))
    bad = [
        ((0, 1), (1, 3), (7, 14, 15), "partition"),   # overlap
        ((0, 1), (1, 3), (7, 14), "partition"),       # overlap, 15 left out
        ((0, 0, 1), (3, 7), (14, 15), "partition"),   # repeated vertex
        ((0, 0), (3, 7), (14, 15), "partition"),      # repeat, 1 left out
        ((0, 1), (3, 7), (14,), "partition"),         # 15 left out
        ((0, 1), (3, 7), (14, 15, 2), "not a target"),
    ]
    for *groups, message in bad:
        with pytest.raises(ValueError, match=message):
            approx_3way_vertex_cut(ws, *groups, 6)
        assert_clean(ws)
    assert ws.counters.separator_calls == 0 and not ws.cuts


def test_three_way_rejects_overlapping_groups():
    with pytest.raises(ValueError):
        approx_3way_vertex_cut(fresh(star_graph(3), (1, 2)), (1,), (1,), (2,), 3)


def assert_clean(ws):
    n = len(ws.part.inside)
    assert ws.arrays.sat == bytearray(n)
    assert ws.arrays.role == bytearray(n)
    assert ws.arrays.in_flow == [-1] * n
    assert ws.arrays.prev == [-1] * (2 * n)


def workspace_inputs():
    """Seeded (graph, part or None, targets) triples: random graphs and grids,
    each on the whole graph and inside a random part."""
    rng = random.Random(8080)
    graphs = [grid_graph(4, 5), grid_graph(6, 6)]
    graphs += [gnp_connected(rng.randint(12, 60), rng.uniform(2.0, 6.0) / 30, rng)
               for _ in range(8)]
    for g in graphs:
        for whole in (True, False):
            members = list(range(g.n))
            if not whole:
                members = [v for v in members if rng.random() < 0.7]
            targets = rng.sample(members, rng.randint(2, min(7, len(members))))
            yield g, None if whole else Part(g, members), vset(targets), rng


def test_shared_workspace_matches_one_shot_flows_and_networkx():
    outcomes = set()
    for g, part, targets, rng in workspace_inputs():
        ws = FlowWorkspace(g, part, targets)
        assert ws.targets == targets
        members = part.members if part is not None else range(g.n)
        sub = nx.Graph(g.edges()).subgraph(members)
        splits = list(two_thirds_candidates(targets)) + list(half_candidates(targets))
        rng.shuffle(splits)
        for side_a, side_b in splits:
            bound = rng.randint(0, 5)
            terminals = (side_a, side_b)
            got = min_vertex_separator(ws, terminals, bound)
            assert_clean(ws)
            assert got == one_shot(g, terminals, bound, part)
            value, cut = split_vertex_max_flow(members, sub.edges(), terminals)
            assert isinstance(got, Exceeded) == (value > bound)
            assert got.augmentations == min(value, bound + 1)
            if isinstance(got, Cut):
                assert (got.separator, *got.listed, got.rest) == cut
            outcomes.add(type(got))
    assert outcomes == {Cut, Exceeded}


def property_graph(kind, n, rng):
    """A seeded graph of ``kind`` with at most n <= 60 vertices."""
    if kind == "gnp":
        return gnp_connected(n, rng.uniform(1.5, 5.0) / n, rng)
    if kind == "grid":
        rows = rng.randint(2, 6)
        return grid_graph(rows, max(2, n // rows))
    if kind == "tree":
        return random_tree(n, rng)
    if kind == "star":
        # A hub: its row is far longer than the other targets' rows.
        chords = [tuple(rng.sample(range(1, n), 2)) for _ in range(n // 10)]
        return Graph(n, [(0, v) for v in range(1, n)] + chords)
    if kind == "two-hubs":
        # K_{2,n-2} and a few chords: two hubs 0 and 1 with equally long rows.
        chords = [tuple(rng.sample(range(2, n), 2)) for _ in range(n // 10)]
        return Graph(n, [(h, v) for h in (0, 1) for v in range(2, n)] + chords)
    return partial_k_tree(n, rng.randint(2, 4), 0.15, rng)


@settings(max_examples=30)
@given(kind=st.sampled_from(("gnp", "grid", "tree", "star", "two-hubs", "pkt")),
       n=st.integers(8, 60), seed=st.integers(0, 2**31))
def test_listed_sides_along_a_handover_chain_match_networkx(kind, n, seed):
    # Along a random chain of handovers, as the recursion hands a node's part
    # to its largest child, the part equals a fresh build; in it every
    # successful flow lists the side networkx reaches from the sources in
    # the split-vertex residual network, and networkx's side2 is the cut's
    # unlisted rest, the rest of the part.  Two workspaces over the part
    # share one Counters and take turns with its flow arrays.
    rng = random.Random(seed)
    g = property_graph(kind, n, rng)
    nx_g = nx.Graph(g.edges())
    nx_g.add_nodes_from(range(g.n))
    members = vset(v for v in range(g.n) if rng.random() < 0.85)
    part = Part(g, members)
    counters = Counters()
    while len(members) >= 2:
        assert_same_part(part, g, members)
        sub = nx_g.subgraph(members)
        spaces = [FlowWorkspace(g, part, rng.sample(members, rng.randint(2, min(8, len(members)))),
                                counters) for _ in range(2)]
        for _ in range(3):
            ws = rng.choice(spaces)
            targets = list(ws.targets)
            rng.shuffle(targets)
            cut = rng.randint(1, len(targets) - 1)
            terminals = (vset(targets[:cut]), vset(targets[cut:]))
            bound = rng.randint(0, 4)
            got = min_vertex_separator(ws, terminals, bound)
            value, (separator, side1, side2) = split_vertex_max_flow(members, sub.edges(),
                                                                     terminals)
            assert isinstance(got, Exceeded) == (value > bound)
            if isinstance(got, Cut):
                assert (got.separator, got.listed) == (separator, (side1,))
                assert got.rest == side2 == vset(set(members) - set(side1) - set(separator))
        # ``near`` fills each member's mask on its first read, by a scan of
        # a short row or by bisection into a long one (a hub's): either way
        # it holds every target next to the member, and so do the two-hop
        # rows built from it, which list every neighbour of their target:
        # each neighbour's mask holds that target's bit.
        for ws in spaces:
            for a in ws.targets:
                near = [(v, sum(ws.bit_of.get(t, 0) for t in sub[v])) for v in sorted(sub[a])]
                assert ws.two_hop(a) == near
                assert all(mask & ws.bit_of[a] for _, mask in near)
            for v in members:
                assert ws.near[v] == sum(ws.bit_of.get(t, 0) for t in sub[v])
        count = rng.choice((1, 2, max(1, len(members) // 3)))
        removed = rng.sample(members, min(len(members), count))
        members = vset(set(members).difference(removed))
        part = part.handover(removed)
    assert_same_part(part, g, members)


def test_a_first_read_after_a_handover_raises():
    # ``near`` reads the rows through the workspace's part, so a mask first
    # read after the part is handed over raises like any other use of a
    # spent part; a mask read before stays.
    g = grid_graph(3, 3)
    part = Part(g)
    ws = FlowWorkspace(g, part, (0, 4, 8))
    assert ws.near[1] == ws.mask((0, 4))
    part.handover((2,))
    assert ws.near[1] == ws.mask((0, 4))
    with pytest.raises(AttributeError):
        ws.near[3]


def workspace_state(ws):
    """What a workspace keeps between flows: its certificate stores, two-hop
    rows, target masks, attachment mask and isolating cuts."""
    certs = {b: (c.on, c.low, c.one, c.high, c.count) for b, c in ws.certs.items()}
    return certs, ws.rows, ws.near, ws.attached, ws.cuts, ws.sep_ids


def test_interleaved_workspaces_match_workspaces_run_alone():
    # Two or three workspaces over different targets of one part share one
    # Counters, and so the run's flow arrays, and take turns on a seeded
    # schedule of two-way flows and three-way cuts.  Each must end as a twin
    # that ran its own calls alone, on a Counters of its own: the same
    # results, augmentations included, and the same kept state; the shared
    # counts are the twins' sums.
    rng = random.Random(2727)
    outcomes = set()
    bisected = 0
    for kind in ("gnp", "grid", "tree", "star", "two-hubs", "pkt") * 4:
        g = property_graph(kind, rng.randint(20, 60), rng)
        members = vset(v for v in range(g.n) if v == 0 or rng.random() < 0.85)
        part = Part(g, members)
        counters = Counters()
        spaces = []
        for i in range(rng.randint(2, 3)):
            if i == 0:
                # Vertex 0 and two more: on a star or K_{2,n}, 0 is a hub,
                # whose mask is filled by bisection.
                targets = [0, *rng.sample(members[1:], 2)]
            else:
                targets = rng.sample(members, rng.randint(3, min(9, len(members))))
            spaces.append(FlowWorkspace(g, part, targets, counters))
        schedule = []
        for _ in range(30):
            i = rng.randrange(len(spaces))
            targets = list(spaces[i].targets)
            rng.shuffle(targets)
            bound = rng.randint(0, 4)
            if rng.random() < 0.6:
                cut = rng.randint(1, len(targets) - 1)
                groups = (vset(targets[:cut]), vset(targets[cut:]))
            else:
                a, b = sorted(rng.sample(range(1, len(targets)), 2))
                groups = (targets[:a], targets[a:b], targets[b:])
            schedule.append((i, groups, bound))

        def run(ws, groups, bound):
            if len(groups) == 2:
                res = min_vertex_separator(ws, groups, bound)
            else:
                res = approx_3way_vertex_cut(ws, *groups, bound)
            assert_clean(ws)
            outcomes.add((len(groups), type(res)))
            return res, res.augmentations

        together = [run(spaces[i], groups, bound) for i, groups, bound in schedule]
        counts = ("separator_calls", "augmentations", "certified")
        sums = Counter()
        for i, ws in enumerate(spaces):
            twin = FlowWorkspace(g, part, ws.targets)
            alone = [run(twin, groups, bound) for j, groups, bound in schedule if j == i]
            assert [got for (j, *_), got in zip(schedule, together) if j == i] == alone
            assert workspace_state(ws) == workspace_state(twin)
            sums.update({name: getattr(twin.counters, name) for name in counts})
            # A mask whose row is longer than the target count was bisected.
            bisected += any(len(part.adj[v]) > len(ws.targets) for v in ws.near)
        assert all(getattr(counters, name) == sums[name] for name in counts)
    assert outcomes == {(n, kind) for n in (2, 3) for kind in (Cut, Exceeded)}
    assert bisected


def test_workspace_rejects_bad_sides_and_stays_clean():
    g = grid_graph(4, 4)
    part = Part(g, range(12))
    ws = FlowWorkspace(g, part, (0, 3, 5, 9, 10))
    bad = [
        ((), (3,), "non-empty"),
        ((0,), (), "non-empty"),
        ((0, 4), (9,), "not a target"),           # a member outside the targets
        ((0,), (9, 13), "not a target"),          # a vertex outside the part
        ((0, 99), (9,), "not a target"),          # out of range
        ((0, 3), (3, 9), "disjoint"),
        ((0, 0), (9,), "repeat"),
    ]
    for side_a, side_b, message in bad:
        with pytest.raises(ValueError, match=message):
            min_vertex_separator(ws, (side_a, side_b), 3)
        assert_clean(ws)
    assert ws.counters.separator_calls == 0
    # The workspace still answers correctly afterwards.
    got = min_vertex_separator(ws, ((0, 3), (9, 10)), 3)
    assert got == one_shot(g, ((0, 3), (9, 10)), 3, part)
    assert_clean(ws)


def test_workspace_checks_targets_graph_and_part():
    g = grid_graph(3, 3)
    part = Part(g, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="out of range"):
        FlowWorkspace(g, part, (0, 5))
    with pytest.raises(ValueError, match="out of range"):
        FlowWorkspace(g, None, (0, 9))
    ws = FlowWorkspace(g, part, (2, 0, 3, 0))
    assert ws.targets == (0, 2, 3)


def certificate_masks(ws, bound, c):
    """The target masks of the regions of certificate ``c`` kept at ``bound``."""
    certs = ws.certs[bound]
    first = certs.width + c * certs.paths
    return [sum(1 << p for p, bits in enumerate(certs.on) if bits >> i & 1)
            for i in range(first, first + certs.paths)]


def ruled(ws, side_a, side_b, bound):
    """``try_split`` of the sides, with the rulings and the flows it added:
    (None, 1, 0) when a kept certificate ruled the sides out."""
    counters = ws.counters
    certified, calls = counters.certified, counters.separator_calls
    cut = try_split(ws, side_a, side_b, bound)
    return cut, counters.certified - certified, counters.separator_calls - calls


def test_exceeded_flow_keeps_a_menger_certificate():
    # Every flow that ends Exceeded keeps bound+1 regions, pairwise disjoint,
    # each holding a source and a sink, and each connected: its targets lie
    # in one component of the part minus the other regions' targets.  The
    # certificate rules out its own pair of sides.
    kept = 0
    for g, part, targets, rng in workspace_inputs():
        ws = FlowWorkspace(g, part, targets)
        members = part.members if part is not None else range(g.n)
        sub = nx.Graph(g.edges()).subgraph(members)
        splits = list(two_thirds_candidates(targets)) + list(half_candidates(targets))
        for side_a, side_b in splits:
            bound = rng.randint(0, 3)
            before = ws.certs[bound].count if bound in ws.certs else 0
            got = min_vertex_separator(ws, (side_a, side_b), bound)
            if not isinstance(got, Exceeded):
                assert ws.certs.get(bound) is None or ws.certs[bound].count == before
                continue
            assert ws.certs[bound].count == before + 1
            masks = certificate_masks(ws, bound, before)
            assert len(masks) == bound + 1
            sources, sinks = ws.mask(side_a), ws.mask(side_b)
            for i, mask in enumerate(masks):
                assert mask & sources and mask & sinks
                assert not any(mask & other for other in masks[i + 1:])
                others = sum(masks) ^ mask
                region = ws.targets_of(mask)
                rest = sub.subgraph(v for v in members if not ws.bit_of.get(v, 0) & others)
                assert nx.node_connected_component(rest, region[0]) >= set(region)
            assert ruled(ws, side_a, side_b, bound) == (None, 1, 0)
            assert ruled(ws, side_b, side_a, bound) == (None, 1, 0)
            kept += 1
    assert kept > 20


def test_certificate_on_a_grid():
    # The 4x4 grid's first three columns join its top row to its bottom row,
    # and column 3's ends, next to column 2's path, join its region.
    g = grid_graph(4, 4)
    top, bottom = (0, 1, 2, 3), (12, 13, 14, 15)
    ws = fresh(g, top, bottom)
    assert isinstance(min_vertex_separator(ws, (top, bottom), 2), Exceeded)
    assert ws.certs[2].count == 1
    assert certificate_masks(ws, 2, 0) == [ws.mask(region)
                                           for region in ((0, 12), (1, 13), (2, 3, 14, 15))]
    # Each side of another split holds a target of every kept region ...
    assert ruled(ws, (0, 13, 2, 15), (12, 1, 14, 3), 2) == (None, 1, 0)
    assert min_vertex_separator(fresh(g, top, bottom), ((0, 13, 2, 15), (12, 1, 14, 3)),
                                2) == Exceeded(2, 3)
    # ... but not here, where the first region has both ends on one side.
    assert ruled(ws, (0, 12, 1), (13, 2, 14), 2)[1:] == (0, 1)
    # Certificates answer for their own bound only.
    assert ruled(ws, top, bottom, 1)[1:] == (0, 1)
    assert_clean(ws)


@settings(max_examples=60)
@given(kind=st.sampled_from(("gnp", "grid", "tree", "star", "pkt")),
       n=st.integers(8, 40), seed=st.integers(0, 2**31))
def test_every_grown_certificate_ruling_is_sound(kind, n, seed):
    # Candidates in a random order, each through ``try_split``, so ruled on
    # the kept certificates first and flowed only when none rules it out:
    # every ruling's twin flow, in a workspace whose certificates nothing
    # reads, ends Exceeded.  Bad groups that a certificate would rule out
    # raise through ``try_split`` the message that ``side_masks`` raises.
    rng = random.Random(seed)
    g = property_graph(kind, n, rng)
    members = list(range(g.n))
    part = None
    if rng.random() < 0.5:
        members = [v for v in members if rng.random() < 0.8] or members
        part = Part(g, members)
    targets = vset(rng.sample(members, min(len(members), rng.randint(3, 9))))
    ws, twin = FlowWorkspace(g, part, targets), FlowWorkspace(g, part, targets)
    splits = list(two_thirds_candidates(targets)) + list(half_candidates(targets))
    rng.shuffle(splits)
    bound = rng.randint(0, 3)
    for side_a, side_b in splits:
        outcome = ruled(ws, side_a, side_b, bound)
        if outcome[1:] == (0, 1):
            continue
        assert outcome == (None, 1, 0)
        assert isinstance(min_vertex_separator(twin, (side_a, side_b), bound), Exceeded)
        for bad in ((side_a + side_b[:1], side_b), (side_a, side_b + side_a[-1:]),
                    (side_a + side_a[:1], side_b), (side_a, side_b + side_b[:1]),
                    (side_a + side_b[:1] + side_a[:1], side_b)):
            with pytest.raises(ValueError) as by_masks:
                ws.side_masks(*bad)
            with pytest.raises(ValueError, match=re.escape(str(by_masks.value))):
                try_split(ws, *bad, bound)
    assert_clean(ws)


def dead_end_graph(kind, n, rng):
    """A seeded graph of ``kind`` whose flows have dead ends: a path or a
    caterpillar (a path of n // 2 vertices, each later vertex a leaf of a
    random one of them), to take its targets from the low end, or a star
    with a few chords, to take its hub as a target."""
    if kind == "path-end":
        return Graph(n, [(v, v + 1) for v in range(n - 1)])
    if kind == "caterpillar-end":
        spine = n // 2
        legs = [(rng.randrange(spine), v) for v in range(spine, n)]
        return Graph(n, [(v, v + 1) for v in range(spine - 1)] + legs)
    chords = [tuple(rng.sample(range(1, n), 2)) for _ in range(n // 20)]
    return Graph(n, [(0, v) for v in range(1, n)] + chords)


def flow_case(kind, n, rng):
    """A seeded graph of ``kind``, a part of it (None for the whole graph,
    else a random 80% of it) and targets in that part: at the low end of
    a path or caterpillar, a star's hub and a few leaves, or a random set.
    The last three kinds have dead ends next to their targets."""
    dead_ends = kind in ("path-end", "caterpillar-end", "hub")
    g = dead_end_graph(kind, n, rng) if dead_ends else property_graph(kind, n, rng)
    part = None
    members = list(range(g.n))
    if rng.random() < 0.6:
        members = [v for v in members if rng.random() < 0.8] or [0]
        part = Part(g, members)
    if kind == "hub":
        targets = members[:1] + rng.sample(members[1:], min(len(members) - 1, rng.randint(1, 3)))
    elif dead_ends:
        targets = members[:rng.randint(2, 8)]
    else:
        targets = rng.sample(members, min(len(members), rng.randint(2, 8)))
    return g, part, targets


@settings(max_examples=130)
@given(kind=st.sampled_from(("gnp", "grid", "tree", "star", "pkt", "path-end",
                             "caterpillar-end", "hub")),
       n=st.integers(8, 60), seed=st.integers(0, 2**31))
def test_separator_only_flow_matches_the_listed_flow(kind, n, seed):
    # The same sides in two twin workspaces, one flow listing its side and
    # one not: the separator, the augmentations, Exceeded-ness and the
    # counters (certificates included) must agree, and both hand back clean
    # arrays.  The last three kinds have dead ends, which the flow that
    # lists no side leaves out of its searches: targets at the low end of a
    # path or caterpillar, and a star's hub among the targets.
    rng = random.Random(seed)
    g, part, targets = flow_case(kind, n, rng)
    if len(targets) < 2:
        return
    listed, bare = (FlowWorkspace(g, part, targets, Counters()) for _ in range(2))
    for _ in range(4):
        pick = list(listed.targets)
        rng.shuffle(pick)
        cut = rng.randint(1, len(pick) - 1)
        terminals = (vset(pick[:cut]), vset(pick[cut:]))
        bound = rng.randint(0, 5)
        want = min_vertex_separator(listed, terminals, bound)
        got = min_vertex_separator(bare, terminals, bound, separator_only=True)
        assert_clean(listed)
        assert_clean(bare)
        assert type(got) is type(want)
        assert got.augmentations == want.augmentations
        if isinstance(want, Cut):
            assert got.separator == want.separator and got.listed == ()
        assert bare.counters == listed.counters
        assert {b: c.on for b, c in bare.certs.items()} == {b: c.on for b, c in listed.certs.items()}


@pytest.mark.parametrize("pendant", [False, True], ids=["unlabelled", "labelled"])
def test_a_region_next_to_a_hub_sink_is_no_dead_end(pendant):
    # The hub 0 (40 leaves) is the sink, and the sources are its leaf 1 and
    # the vertex 41, joined to the hub by the path 41, 42, ..., 60, 0, with
    # or without the longer pendant path 61..99 of 41.  The hub's row holds
    # non-targets, so its bit is in ``attached`` (its mask filled by
    # bisection), and the flow is not dead although the sources hold every
    # other attached target.  Leaving out the non-targets would lose the
    # hub's entry state, and the cut would be {1}, not {0}.
    edges = [(0, v) for v in range(1, 41)] + [(41, 42)]
    edges += [(v, v + 1) for v in range(42, 60)] + [(60, 0)]
    if pendant:
        edges += [(41, 61)] + [(v, v + 1) for v in range(61, 99)]
    g = Graph(100, edges)
    terminals = ((1, 41), (0,))
    listed, bare = fresh(g, *terminals), fresh(g, *terminals)
    want = min_vertex_separator(listed, terminals, 3)
    got = min_vertex_separator(bare, terminals, 3, separator_only=True)
    assert want.separator == got.separator == (0,)
    assert want.augmentations == got.augmentations == 1
    assert bare.attached == bare.mask((0, 41))
    assert bare.attached & ~bare.mask(terminals[0]) == bare.mask((0,))
    assert_clean(bare)


def test_a_dead_flow_matches_a_flow_that_is_never_dead():
    # Seeded separator-only flows through a workspace and through a twin
    # whose ``attached`` holds every target, so that none of its flows is
    # dead: the result, the augmentations, the counters and the kept
    # certificates agree after every flow, and both hand back clean arrays.
    # Enough of the flows are dead that the check cannot pass vacuously.
    dead = 0
    for kind in ("path-end", "caterpillar-end", "hub", "star", "tree"):
        for seed in range(30):
            rng = random.Random(seed)
            g, part, targets = flow_case(kind, rng.randint(8, 60), rng)
            if len(targets) < 2:
                continue
            ws, twin = FlowWorkspace(g, part, targets), FlowWorkspace(g, part, targets)
            twin.attached = (1 << len(twin.targets)) - 1
            for _ in range(6):
                pick = list(ws.targets)
                rng.shuffle(pick)
                cut = rng.randint(1, len(pick) - 1)
                terminals = (vset(pick[:cut]), vset(pick[cut:]))
                bound = rng.randint(0, 5)
                got = min_vertex_separator(ws, terminals, bound, separator_only=True)
                want = min_vertex_separator(twin, terminals, bound, separator_only=True)
                assert got == want
                assert got.augmentations == want.augmentations
                assert ws.counters == twin.counters
                assert kept_certificates(ws) == kept_certificates(twin)
                assert_clean(ws)
                assert_clean(twin)
                dead += not ws.attached & ~ws.mask(terminals[0])
    assert dead >= 200


def separator_state(monkeypatch, g, terminals, bound):
    """The arguments ``_verify_separator`` saw in a separator-only flow over
    all of ``g``, copied before the flow reset its arrays."""
    seen = []

    def record(part, prev, queue, separator, side_a, side_b, value, dead):
        seen.append((list(prev), list(queue), list(separator), value, dead))
        return _verify_separator(part, prev, queue, separator, side_a, side_b, value, dead)

    monkeypatch.setattr(flow, "_verify_separator", record)
    res = one_shot_bare(g, terminals, bound)
    monkeypatch.undo()
    assert isinstance(res, Cut) and len(seen) == 1
    return seen[0]


def one_shot_bare(g, terminals, bound):
    return min_vertex_separator(fresh(g, *terminals), terminals, bound, separator_only=True)


def path_plus(n, *extra):
    return Graph(n, [(v, v + 1) for v in range(9)] + list(extra))


# The pendant 10-11 hangs off vertex 1.
PENDANT = [(1, 10), (10, 11)]


@pytest.mark.parametrize("sources, sink, base, extra, tamper, message", [
    # The reached side {0, 1, 2} is smaller than the rest {4..9}: its rows
    # are scanned.
    ((0, 1, 2, 3), 9, [], [], None, None),
    ((0, 1, 2, 3), 9, [], [(1, 7)], None, "an edge joins the reached side and the rest"),
    # The rest {7, 8, 9} is smaller than the reached side {0..5}: it is
    # searched from the sink.
    ((0, 1, 2, 3, 4, 5, 6), 9, [], [], None, None),
    ((0, 1, 2, 3, 4, 5, 6), 9, [], [(3, 8)], None, "an edge joins the reached side and the rest"),
    # A pocket {10, 11} of the rest holds no sink: the search sees fewer
    # vertices than the rest holds, and the reached side is scanned.
    ((0, 1, 2, 3, 4, 5, 6), 9, [], [(10, 11)], None, None),
    ((0, 1, 2, 3, 4, 5, 6), 9, [], [(10, 11), (2, 10)], None,
     "an edge joins the reached side and the rest"),
    ((0, 1, 2, 3), 9, [], [], "size", "cut size differs from flow value"),
    ((0, 1, 2, 3), 9, [], [], "source", "uncut source attachment outside side1"),
    ((0, 1, 2, 3), 9, [], [], "sink", "uncut sink attachment outside the rest"),
    ((0, 1, 2, 3), 9, [], [], "repeat", "do not partition the vertices"),
    ((0, 1, 2, 3), 9, [], [], "outsider", "do not partition the vertices"),
    # The rows below are dead flows: every target next to a non-target is a
    # source, so the non-targets lie on the reached side, counted apart
    # from the search.  The sinks 0..4 and the sources 5 and 6: the cut is {5}, and
    # the reached side, 6 and the dead end {7, 8, 9}, is smaller than the
    # rest {0..4}, so the walked rows and the non-targets' rows are scanned.
    ((5, 6), (0, 1, 2, 3, 4), [], [], None, None),
    ((5, 6), (0, 1, 2, 3, 4), [], [(4, 8)], None,
     "an edge joins the reached side and the rest"),
    # The sources 1, 2 and 3 and the sink 0: the cut is {1}, and the rest
    # {0} is searched from the sink, which finds an edge into the dead end
    # {4..9}.
    ((1, 2, 3), 0, [], [], None, None),
    ((1, 2, 3), 0, [], [(0, 7)], None, "an edge joins the reached side and the rest"),
    # Were a dead end's state queued, the counts would take a vertex twice.
    ((1, 2, 3), 0, [], [], "searched", "a skipped dead end was searched"),
    # As above, with the pendant {10, 11} next to the cut source 1 only: a
    # pocket without a sink, which lies on the reached side with the other
    # non-targets, so the search of the rest does not fall short of it and
    # finds an edge from the rest into the pocket.
    ((1, 2, 3), 0, PENDANT, [], None, None),
    ((1, 2, 3), 0, PENDANT, [(0, 11)], None, "an edge joins the reached side and the rest"),
], ids=["reached-smaller", "reached-smaller-crossing", "rest-smaller",
        "rest-smaller-crossing", "sink-free-pocket", "sink-free-pocket-crossing",
        "size-differs", "source-in-rest", "sink-reached", "listed-twice", "out-of-range",
        "reached-smaller-with-dead-end", "reached-smaller-with-dead-end-crossing",
        "unlabelled-dead-end", "unlabelled-dead-end-crossing", "searched-dead-end",
        "pocket-beside-unlabelled-dead-end", "pocket-beside-unlabelled-dead-end-crossing"])
def test_verify_separator_fires_on_each_broken_condition(monkeypatch, sources, sink, base,
                                                         extra, tamper, message):
    # The state of a real separator-only flow on the path 0..9 plus the
    # ``base`` edges (and the vertices above 9 that an edge uses) from
    # ``sources`` to ``sink`` (one sink, or a tuple of them), checked again
    # against a graph with ``extra`` edges or with one input changed.
    n = max(max(edge) + 1 for edge in [(0, 9)] + base + extra)
    terminals = (sources, sink if isinstance(sink, tuple) else (sink,))
    prev, queue, separator, value, dead = separator_state(
        monkeypatch, path_plus(n, *base), terminals, 3)
    # The flows with the sink 9 are not dead; the others are.
    assert (dead is not None) == (sink != 9)
    part = Part(path_plus(n, *base, *extra))
    side_a, side_b = terminals
    if tamper == "size":
        value += 1
    elif tamper == "source":
        side_a += (7,)
    elif tamper == "sink":
        side_b += (1,)
    elif tamper == "searched":
        queue.append(2 * 5)
    elif tamper in ("repeat", "outsider"):
        # The flow returns its separator as a Cut, which checks it is made of
        # members, none twice.
        again = separator[0] if tamper == "repeat" else n
        with pytest.raises(RuntimeError, match=re.escape(message)):
            Cut(tuple(separator) + (again,), (), value, part)
        return
    args = (part, prev, queue, separator, side_a, side_b, value, dead)
    if message is None:
        _verify_separator(*args)
    else:
        with pytest.raises(RuntimeError, match=re.escape(message)):
            _verify_separator(*args)


def test_split_three_ways_matches_the_full_scan_on_every_golden_split(monkeypatch,
                                                                       small_corpus):
    # Every three-way split of the golden bg367 runs, against the full scan
    # of the part's components: the same sides, or the same refusal.
    seen = []

    def compared(part, separator, groups):
        want = split_three_ways_by_components(Graph(len(part.inside)), part, separator, groups)
        got = _split_three_ways(part, separator, groups)
        assert all_three_sides(part, separator, *got) == want
        seen.append(len(part.inside))
        return got

    monkeypatch.setattr(flow, "_split_three_ways", compared)
    for g in [*golden_graphs(small_corpus).values(), *fallback_graphs().values()]:
        decompose(g, "bg367", search=True)
        decompose(g, "bg367", k=4)
    assert len(seen) > 100


@settings(max_examples=150)
@given(kind=st.sampled_from(("gnp", "grid", "tree", "star", "pkt")),
       n=st.integers(8, 60), seed=st.integers(0, 2**31))
def test_split_three_ways_matches_the_full_scan_on_connected_graphs(kind, n, seed):
    # A random separator and three disjoint random groups of a connected
    # graph: every component of the rest touches the separator, so the
    # searches find every side but the last exactly as the full scan does,
    # or refuse the same groups.
    rng = random.Random(seed)
    g = property_graph(kind, n, rng)
    part = Part(g)
    order = list(range(g.n))
    rng.shuffle(order)
    separator = vset(order[:rng.randint(0, max(1, g.n // 6))])
    groups = [[], [], []]
    for v in order[:rng.randint(3, min(g.n, 12))]:
        groups[rng.randrange(3)].append(v)
    try:
        want = split_three_ways_by_components(g, part, separator, groups)
    except RuntimeError as err:
        with pytest.raises(RuntimeError, match=re.escape(str(err))):
            _split_three_ways(part, separator, groups)
        return
    assert all_three_sides(part, separator, *_split_three_ways(part, separator, groups)) == want


def all_three_sides(part, separator, listed, rest_at):
    """The two listed sides of a three-way split with the unlisted one
    rebuilt by ``Part.remainder`` at its place."""
    assert len(listed) == 2 and 0 <= rest_at <= 2
    sides = list(listed)
    sides.insert(rest_at, part.remainder(separator, *listed))
    return tuple(sides)


def reference_three_way_accepts(g, targets, masks, bound, isolating):
    """Whether the two cheapest isolating cuts of a triple fit ``bound``
    together, each cut from a listed flow in a workspace of its own (kept
    in ``isolating`` by group mask); ties go to the earlier group."""
    costs = []
    full = (1 << len(targets)) - 1
    for i, mask in enumerate(masks):
        if mask in (0, full):
            costs.append((0, i, set()))
            continue
        if mask not in isolating:
            group = tuple(t for j, t in enumerate(targets) if mask >> j & 1)
            others = tuple(t for j, t in enumerate(targets) if not mask >> j & 1)
            res = min_vertex_separator(FlowWorkspace(g, None, targets), (others, group), bound)
            isolating[mask] = None if isinstance(res, Exceeded) else set(res.separator)
        if isolating[mask] is not None:
            costs.append((len(isolating[mask]), i, isolating[mask]))
    if len(costs) < 2:
        return False
    costs.sort(key=lambda c: c[:2])
    return len(costs[0][2] | costs[1][2]) <= bound


def test_mask_filter_accepts_exactly_the_triples_with_a_three_way_cut():
    # Every triple of a bg367 search's target set, on grids, partial k-trees
    # and G(n, p) up to n = 40: the mask filter passes a triple exactly when
    # the reference's two cheapest cuts fit the bound, and exactly then does
    # approx_3way_vertex_cut return a Cut.
    rng = random.Random(367)
    graphs = [grid_graph(4, 4), grid_graph(5, 8), grid_graph(6, 6)]
    graphs += [partial_k_tree(n, rng.randint(2, 4), 0.15, rng) for n in (20, 30, 40)]
    graphs += [gnp_connected(n, rng.uniform(1.5, 4.0) / n, rng) for n in (20, 30, 40)]
    verdicts = set()
    for g in graphs:
        for k in (1, 2, 3):
            bound = math.floor(4 * k / 3)
            targets = vset(rng.sample(range(g.n), min(g.n, math.floor(7 * k / 3) + 1)))
            ws = FlowWorkspace(g, None, targets)
            isolating = {}
            for masks in _three_partitions(targets, k):
                passed = ws.isolating_union(masks).bit_count() <= bound
                assert passed == reference_three_way_accepts(g, targets, masks, bound, isolating)
                groups = [ws.targets_of(mask) for mask in masks]
                assert isinstance(approx_3way_vertex_cut(ws, *groups, bound), Cut) == passed
                verdicts.add(passed)
    assert verdicts == {True, False}


def pop_time_search(rows, role, sat, in_flow, prev, queue):
    """The augmenting search as it ran before it stopped at a free sink's
    entry: it ends when it pops a sink's exit state.  Kept verbatim apart
    from spelling out ``_UNSEEN``, returning the goal and reading rows from
    ``rows``, which in a dead flow filters a source's row to the targets
    (the search once did that itself, in a branch for dead flows), as the
    reference for ``flow._augmenting_search``."""
    push = queue.append
    for s in queue:
        v = s >> 1
        if s & 1:
            if role[v] == flow._SINK:
                return s
            for w in rows[v]:
                t = 2 * w
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
            if sat[v]:
                t = 2 * v
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
        else:
            if not sat[v]:
                t = 2 * v + 1
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
            u = in_flow[v]
            if u >= 0:
                t = 2 * u + 1
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
    return -1


def counting(search, tally):
    """``search``, adding the states each call queued to ``tally[0]``."""
    def counted(*args):
        goal = search(*args)
        tally[0] += len(args[5])
        return goal
    return counted


def kept_certificates(ws):
    return {b: (c.on, c.low, c.one, c.high) for b, c in ws.certs.items()}


def assert_twin_flows_agree(kind, n, seed, twin_flow):
    """Twin workspaces take the same flows, two-way and separator-only with
    mixed bounds, the twin's through ``twin_flow``: the result, the
    augmentations, the counters and the kept certificates agree after
    every flow, and both hand back clean arrays."""
    rng = random.Random(seed)
    g, part, targets = flow_case(kind, n, rng)
    if len(targets) < 2:
        return
    ws, twin = FlowWorkspace(g, part, targets), FlowWorkspace(g, part, targets)
    for _ in range(8):
        pick = list(ws.targets)
        rng.shuffle(pick)
        cut = rng.randint(1, len(pick) - 1)
        terminals = (vset(pick[:cut]), vset(pick[cut:]))
        bound = rng.randint(0, 5)
        separator_only = rng.random() < 0.5
        got = min_vertex_separator(ws, terminals, bound, separator_only=separator_only)
        want = twin_flow(twin, terminals, bound, separator_only=separator_only)
        assert got == want
        assert got.augmentations == want.augmentations
        assert ws.counters == twin.counters
        assert kept_certificates(ws) == kept_certificates(twin)
        assert_clean(ws)
        assert_clean(twin)


FLOW_KINDS = st.sampled_from(("gnp", "grid", "tree", "star", "pkt", "path-end",
                              "caterpillar-end", "hub"))


@settings(max_examples=150)
@given(kind=FLOW_KINDS, n=st.integers(8, 40), seed=st.integers(0, 2**31))
def test_search_that_stops_at_a_free_sink_matches_the_pop_time_search(kind, n, seed):
    # The twin runs its flows with the pop-time search patched in.
    def pop_time_flow(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_augmenting_search", pop_time_search)
            return min_vertex_separator(*args, **kwargs)

    assert_twin_flows_agree(kind, n, seed, pop_time_flow)


@settings(max_examples=150)
@given(kind=FLOW_KINDS, n=st.integers(8, 40), seed=st.integers(0, 2**31))
def test_a_path_applied_while_walked_back_matches_the_reference_flow(kind, n, seed):
    # The twin runs the reference flow, which builds each augmenting path
    # forward before applying it and whose search filters a dead flow's
    # rows itself.  The last three kinds make some separator-only flows dead.
    assert_twin_flows_agree(kind, n, seed, reference_min_vertex_separator)


def test_a_search_stops_at_the_first_free_sink_it_reaches(monkeypatch):
    # pkt100 with half45 in search mode, the corpus of the certificate-count
    # tests: the searches queue about half the states the pop-time search
    # queued (5,519), and the flow counts stay those of that search.
    g = search_graphs()["pkt100"]
    counts = {}
    for name, search in (("stop", flow._augmenting_search), ("pop", pop_time_search)):
        tally = [0]
        monkeypatch.setattr(flow, "_augmenting_search", counting(search, tally))
        report = decompose(g, "half45", search=True).report
        counts[name] = tally[0]
        assert (report.separator_calls, report.flow_augmentations, report.certified) == (64, 499, 24)
    assert counts["stop"] <= 3_300
    assert counts["pop"] == 5_519
