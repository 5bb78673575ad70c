import math
import random
import re
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import compress
from types import SimpleNamespace

import pytest

from twdecomp import (Counters, Cut, Graph, NotChordal, Part,
                      TreewidthExceeded, TriangSuccess,
                      check_tree_decomposition, clique_number_chordal, decompose,
                      exact_treewidth, is_chordal, min_degree_triang, triang_2way_23,
                      triang_2way_half, triang_3way)
from twdecomp import flow, graph, separators, triangulate
from twdecomp.flow import FlowWorkspace
from twdecomp.corpus import (complete_graph, cycle_graph, gnp_connected,
                             grid_graph, partial_k_tree, path_graph, random_tree,
                             star_graph)
from twdecomp.triangulate import TreeDecomposition, _check_three_way_contract, _finish
from twdecomp.validate import _mcs_order

from test_flow import dead_end_graph
from test_golden import golden_graphs


def assert_sound_success(g, out, clique_cap=None):
    assert isinstance(out, TriangSuccess)
    tri, td = out.triangulation, out.decomposition
    base_edges = set(g.edges())
    assert base_edges <= set(tri.chordal.edges())
    assert not isinstance(is_chordal(tri.chordal), NotChordal)
    assert check_tree_decomposition(g, td) == []
    assert td.width <= tri.clique_number - 1
    if clique_cap is not None:
        assert tri.clique_number <= clique_cap


def test_factor4_base_case_clique():
    out = triang_2way_23(complete_graph(5), 4)
    assert_sound_success(complete_graph(5), out, 17)
    assert out.decomposition.width == 4


def test_factor4_rejects_k10_at_k2():
    out = triang_2way_23(complete_graph(10), 2)
    assert isinstance(out, TreewidthExceeded)
    assert out.message == "the treewidth exceeds 1"


def test_factor4_long_path():
    g = path_graph(20)
    out = triang_2way_23(g, 2)
    assert_sound_success(g, out, 9)
    assert exact_treewidth(path_graph(12)) == 1


def test_factor4_cycle():
    g = cycle_graph(20)
    out = triang_2way_23(g, 3)
    assert_sound_success(g, out, 13)


def test_factor45_base_case():
    out = triang_2way_half(complete_graph(5), 4)
    assert_sound_success(complete_graph(5), out)


def test_factor45_long_path():
    g = path_graph(20)
    out = triang_2way_half(g, 2)
    assert_sound_success(g, out, 11)


def test_factor45_rejects_clique():
    assert isinstance(triang_2way_half(complete_graph(10), 2), TreewidthExceeded)


def test_threeway_base_case():
    g = gnp_connected(7, 0.5, random.Random(1))
    out = triang_3way(g, 2)  # 7 <= floor(22/3)
    assert_sound_success(g, out, 8)


def test_threeway_long_path():
    g = path_graph(30)
    out = triang_3way(g, 2)
    assert_sound_success(g, out, 8)


def test_threeway_rejects_clique():
    assert isinstance(triang_3way(complete_graph(12), 2), TreewidthExceeded)


def test_threeway_custom_alpha():
    g = path_graph(18)
    alpha = Fraction(3, 2)
    out = triang_3way(g, 2, alpha=alpha)
    assert_sound_success(g, out, math.ceil((2 * alpha + 1) * 2))


def test_alpha_and_counters_are_keyword_only():
    g = path_graph(6)
    with pytest.raises(TypeError):
        triang_3way(g, 2, Fraction(3, 2))
    for fn in (triang_2way_23, triang_2way_half):
        with pytest.raises(TypeError):
            fn(g, 2, Counters())


def test_each_public_driver_call_is_one_run(monkeypatch):
    # Without counters a driver call makes one Counters for all its split
    # nodes, as decompose does: the root-sized flow arrays are allocated
    # once, and the outcome is decompose's.
    made = [0]
    init = flow._FlowArrays.__init__

    def counted(self, n):
        made[0] += 1
        init(self, n)

    monkeypatch.setattr(flow._FlowArrays, "__init__", counted)
    g = path_graph(2000)
    for algo, driver in (("rs4", triang_2way_23), ("half45", triang_2way_half),
                         ("bg367", triang_3way)):
        made[0] = 0
        outcome = driver(g, 2)
        assert made[0] == 1, algo
        assert outcome == decompose(g, algo, k=2).outcome, algo


def test_three_way_drivers_check_k_and_alpha_up_front():
    # path_graph(4) is a base case: no separator search runs to catch these
    g = path_graph(4)
    assert_sound_success(g, triang_3way(g, 2))
    with pytest.raises(ValueError):
        triang_3way(g, 2, alpha=Fraction(1, 2))
    with pytest.raises(ValueError):
        triang_3way(g, 0)


def test_edge_budget_filter():
    # m <= n*k is checked before any separator search, on the node's own
    # vertices and edges: K10 fails it at k=2 although K10 plus a 30-vertex
    # path (74 edges, 40 vertices) passes it as a whole.
    path = [(u, u + 1) for u in range(10, 39)]
    k10 = complete_graph(10).edges()
    for fn in (triang_2way_23, triang_2way_half, triang_3way):
        for g in (complete_graph(10), Graph(40, list(k10) + path)):
            counters = Counters()
            assert isinstance(fn(g, 2, counters=counters), TreewidthExceeded)
            assert counters.separator_calls == 0
        counters = Counters()
        assert_sound_success(path_graph(10), fn(path_graph(10), 1, counters=counters))
        assert counters.separator_calls > 0


def test_deep_recursion_keeps_the_interpreter_limit():
    limit = sys.getrecursionlimit()
    g = path_graph(1000)
    for fn in (triang_2way_half, triang_3way):
        assert_sound_success(g, fn(g, 2))
        assert sys.getrecursionlimit() == limit


def test_three_way_separator_bound_is_an_invariant():
    # path 0-1-2-3-4-5-6 split at 3; bound 1 admits x = (3,) only.  Vertex 7
    # of the graph is outside the part.  A cut lists its sides; the rest of
    # the part is one more side, never listed.  A cut that does not split its
    # part is refused when it is built; the contract checks the rest.
    g = path_graph(8)
    part = Part(g, range(7))

    def cut(x, *listed):
        return Cut(x, listed, 0, part)

    # Three listed sides and an empty rest, and bg367's fallback: one listed
    # side and the rest.
    _check_three_way_contract(cut((3,), (0, 1, 2), (4, 5, 6), ()), 1)
    _check_three_way_contract(cut((3,), (0, 1, 2)), 1)
    _check_three_way_contract(cut((3,), (4, 5, 6)), 1)
    bad = [
        ("exceeds the bound", lambda: cut((2, 3), (0, 1), (4, 5, 6), ())),
        # three listed sides and the rest (2,): four sides in all, and the
        # edges (1, 2) and (2, 3) join two of them
        ("edge (1, 2) crosses the cut", lambda: cut((3,), (0, 1), (4, 5, 6), ())),
        ("do not partition", lambda: cut((3,), (0, 1, 2), (4, 5, 7), ())),
        ("do not partition", lambda: cut((3,), (0, 1, 2), (4, 5, 5), ())),
        ("do not partition", lambda: cut((3,), (0, 1, 2, 7))),
        ("do not partition", lambda: cut((3,), (0, 1, 1, 2))),
        ("fewer than two non-empty sides", lambda: cut((3,), (0, 1, 2, 4, 5, 6), (), ())),
        # a listed side and the separator that cover the part leave no rest
        ("fewer than two non-empty sides", lambda: cut((3,), (0, 1, 2, 4, 5, 6))),
        ("edge (2, 3) crosses the cut", lambda: cut((4,), (0, 1, 2), (3,), (5, 6))),
        # between the two smaller sides; the largest is (0, 1, 2)
        ("edge (4, 5) crosses the cut", lambda: cut((3,), (0, 1, 2), (4,), (5, 6))),
        # between a smaller side and the largest, listed last
        ("edge (1, 2) crosses the cut", lambda: cut((0,), (), (1,), (2, 3, 4, 5, 6))),
        # from the one listed side into the rest (3, 5, 6), the larger side
        ("edge (2, 3) crosses the cut", lambda: cut((4,), (0, 1, 2))),
        # from a listed side into the rest (6,)
        ("edge (5, 6) crosses the cut", lambda: cut((3,), (0, 1, 2), (4, 5))),
        # from the largest listed side into the rest (3,): with a rest, no
        # listed side is skipped
        ("edge (2, 3) crosses the cut", lambda: cut((4,), (0, 1, 2), (5, 6))),
        # between two listed sides while the rest (4, 5, 6) is not empty
        ("edge (1, 2) crosses the cut", lambda: cut((3,), (0, 1), (2,))),
    ]
    for message, build in bad:
        with pytest.raises(RuntimeError, match=re.escape(message)):
            _check_three_way_contract(build(), 1)
    # A valid split with four sides, three listed and the rest (6,), within
    # the bound.
    with pytest.raises(RuntimeError, match="more than three sides"):
        _check_three_way_contract(cut((1, 3, 5), (0,), (2,), (4,)), 3)


def test_finish_refuses_a_fill_that_leaves_a_chordless_cycle():
    # The 5-cycle with one chord keeps the chordless 4-cycle 0-1-2-3.
    td = TreeDecomposition.from_bags([(0, 1, 2), (0, 2, 3), (0, 3, 4)], [(0, 1), (1, 2)])
    with pytest.raises(RuntimeError, match="not chordal"):
        _finish(cycle_graph(5), 1, {(0, 3)}, td, None)
    out = _finish(cycle_graph(5), 1, {(0, 2), (0, 3)}, td, None)
    assert out.triangulation.clique_number == 3
    assert sorted(out.triangulation.peo) == list(range(5))


def finish_graphs(small_corpus):
    """The golden graphs, seeded grids and seeded partial k-trees."""
    graphs = golden_graphs(small_corpus)
    graphs.update(grid5x6=grid_graph(5, 6), grid7x7=grid_graph(7, 7))
    rng = random.Random(2202)
    for n, k, drop in ((30, 2, 0.1), (45, 3, 0.05), (60, 4, 0.1)):
        graphs[f"pkt{n}"] = partial_k_tree(n, k, drop, rng)
    return graphs


@pytest.mark.parametrize("algo, mode", [("rs4", "search"), ("rs4", "adaptive"),
                                        ("half45", "search"), ("half45", "adaptive"),
                                        ("bg367", "search")])
def test_finish_takes_a_perfect_elimination_order_off_the_bags(small_corpus, algo, mode):
    # The order lists each vertex at its first bag in pre-order, reversed; it
    # passes the ordering test, and the clique number it gives is the
    # decomposition's width + 1 and the one an MCS order gives.
    for name, g in finish_graphs(small_corpus).items():
        out = decompose(g, algo, **{mode: True}).outcome
        tri, td = out.triangulation, out.decomposition
        assert tri.peo == tuple(dict.fromkeys(v for bag in td.bags for v in bag))[::-1], name
        assert clique_number_chordal(tri.chordal, tri.peo) == tri.clique_number, name
        assert tri.clique_number == td.width + 1, name
        assert clique_number_chordal(tri.chordal, _mcs_order(tri.chordal)) == tri.clique_number
        assert isinstance(is_chordal(tri.chordal), tuple), name


def test_min_degree_on_tree():
    g = random_tree(12, random.Random(2))
    tri, td = min_degree_triang(g)
    assert td.width == 1
    assert check_tree_decomposition(g, td) == []


def test_min_degree_on_cycles():
    for n in (4, 7, 10):
        g = cycle_graph(n)
        tri, td = min_degree_triang(g)
        assert td.width == 2
        assert check_tree_decomposition(g, td) == []


def test_min_degree_on_cliques():
    for n in (2, 5, 8):
        g = complete_graph(n)
        tri, td = min_degree_triang(g)
        assert td.width == n - 1
        assert check_tree_decomposition(g, td) == []


def test_min_degree_output_is_chordal():
    rng = random.Random(77)
    for _ in range(10):
        g = gnp_connected(rng.randint(4, 12), rng.uniform(0.2, 0.6), rng)
        tri, td = min_degree_triang(g)
        assert not isinstance(is_chordal(tri.chordal), NotChordal)
        assert set(g.edges()) <= set(tri.chordal.edges())
        assert check_tree_decomposition(g, td) == []
        assert td.width == tri.clique_number - 1


def test_decompose_search_path():
    res = decompose(path_graph(10), "rs4", search=True)
    assert res.k_used == 1
    assert isinstance(res.outcome, TriangSuccess)
    assert res.outcome.decomposition.width <= 5
    assert check_tree_decomposition(path_graph(10), res.outcome.decomposition) == []


def test_decompose_search_clique():
    # k=1 is rejected; k=2 already succeeds through the n <= 4k base case
    for algo in ("rs4", "half45", "bg367"):
        res = decompose(complete_graph(6), algo, search=True)
        assert res.k_used == 2
        assert res.outcome.decomposition.width == 5


def test_decompose_adaptive_cycle():
    g = cycle_graph(10)
    res = decompose(g, "half45", adaptive=True)
    assert isinstance(res.outcome, TriangSuccess)
    assert check_tree_decomposition(g, res.outcome.decomposition) == []


def test_decompose_adaptive_rs4_flavor():
    g = grid_graph(3, 4)
    res = decompose(g, "rs4", adaptive=True)
    assert isinstance(res.outcome, TriangSuccess)
    assert check_tree_decomposition(g, res.outcome.decomposition) == []


def test_decompose_adaptive_rejected_for_threeway():
    with pytest.raises(ValueError):
        decompose(cycle_graph(6), "bg367", adaptive=True)


def test_decompose_needs_a_mode():
    with pytest.raises(ValueError):
        decompose(path_graph(4), "rs4")
    # Conflicting modes are refused, not resolved by precedence.
    conflicts = ({"k": 1, "search": True}, {"k": 1, "adaptive": True},
                 {"search": True, "adaptive": True},
                 {"k": 1, "search": True, "adaptive": True})
    for algo in ("rs4", "half45", "bg367"):
        for modes in conflicts:
            with pytest.raises(ValueError, match="exactly one"):
                decompose(complete_graph(6), algo, **modes)
    # The baseline ignores the modes.
    for modes in conflicts:
        assert decompose(path_graph(4), "mindeg", **modes).report.mode == "none"


def test_decompose_report_fields():
    res = decompose(path_graph(10), "half45", search=True, graph_name="p10")
    rep = res.report
    assert rep.graph == "p10" and rep.n == 10 and rep.m == 9
    assert rep.algo == "half45" and rep.mode == "search"
    assert rep.width_plus_one == res.outcome.decomposition.width + 1
    assert rep.separator_calls > 0 and rep.flow_augmentations > 0


def test_decompose_fixed_k_propagates_rejection():
    res = decompose(complete_graph(10), "rs4", k=2)
    assert isinstance(res.outcome, TreewidthExceeded)
    assert res.report.width_plus_one is None


def test_assemble_single_bag():
    td = triang_2way_23(complete_graph(4), 1).decomposition
    assert td.bags == ((0, 1, 2, 3),)
    assert td.tree_edges == ()
    assert td.width == 3


def test_assemble_shares_separator_across_branches():
    out = triang_2way_23(path_graph(5), 1)
    assert isinstance(out, TriangSuccess)
    td = out.decomposition
    shared = [bag for bag in td.bags if 2 in bag]
    assert len(shared) >= 2
    assert check_tree_decomposition(path_graph(5), td) == []


def test_disconnected_input_handled():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    for fn in (triang_2way_23, triang_2way_half, triang_3way):
        out = fn(g, 2)
        assert_sound_success(g, out)
    tri, td = min_degree_triang(g)
    assert check_tree_decomposition(g, td) == []
    res = decompose(g, "half45", adaptive=True)
    assert check_tree_decomposition(g, res.outcome.decomposition) == []


def test_empty_and_single_vertex_graphs():
    for n in (0, 1):
        g = Graph(n)
        out = triang_2way_23(g, 1)
        assert isinstance(out, TriangSuccess)
        assert check_tree_decomposition(g, out.decomposition) == []
        tri, td = min_degree_triang(g)
        assert check_tree_decomposition(g, td) == []


def wheel_graph(rim):
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube(dim):
    n = 1 << dim
    return Graph(n, [(v, v ^ (1 << i)) for v in range(n)
                     for i in range(dim) if v < v ^ (1 << i)])


@pytest.mark.parametrize("g", [wheel_graph(8), complete_bipartite(3, 4),
                               complete_bipartite(2, 6), hypercube(3)],
                         ids=["wheel8", "k34", "k26", "cube3"])
def test_structured_families_succeed_at_tight_k(g):
    twv = exact_treewidth(g)
    for fn, cap in ((triang_2way_23, lambda k: 4 * k + 1),
                    (triang_2way_half, lambda k: (9 * k) // 2 + 2),
                    (triang_3way, lambda k: math.ceil(11 * k / 3))):
        out = fn(g, twv + 1)
        assert_sound_success(g, out, cap(twv + 1))
        assert out.decomposition.width >= twv


def test_rejection_is_sound_on_small_graphs(small_corpus_tw):
    for g, twv in small_corpus_tw[:30]:
        for k in range(1, twv + 1):
            for fn in (triang_2way_23, triang_2way_half, triang_3way):
                out = fn(g, k)
                if isinstance(out, TreewidthExceeded):
                    assert twv > k - 1


def test_width_never_below_exact(small_corpus_tw):
    for g, twv in small_corpus_tw[:20]:
        out = triang_2way_23(g, twv + 1)
        assert isinstance(out, TriangSuccess)
        assert out.decomposition.width >= twv


def test_every_flow_enters_through_min_vertex_separator(monkeypatch):
    # External tracers count flows by wrapping min_vertex_separator at every
    # module reference of the package, so every flow a driver runs must go
    # through that function and show up in the report's counters.
    import importlib
    import pkgutil

    import twdecomp
    from twdecomp import flow
    from twdecomp.corpus import partial_k_tree

    for info in pkgutil.iter_modules(twdecomp.__path__):
        if info.name != "__main__":
            importlib.import_module(f"twdecomp.{info.name}")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "twdecomp" or name.startswith("twdecomp."))]
    original = flow.min_vertex_separator
    augmentations = []

    def wrapper(*args, **kwargs):
        res = original(*args, **kwargs)
        augmentations.append(res.augmentations)
        return res

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    assert not [attr for mod in modules for attr, value in vars(mod).items()
                if value is original]

    graphs = (grid_graph(6, 6), partial_k_tree(30, 3, 0.1, random.Random(77)))
    runs = (("rs4", "search"), ("half45", "search"), ("bg367", "search"),
            ("rs4", "adaptive"), ("half45", "adaptive"))
    for g in graphs:
        for algo, mode in runs:
            augmentations.clear()
            report = decompose(g, algo, **{mode: True}).report
            assert len(augmentations) == report.separator_calls > 0, (algo, mode)
            assert sum(augmentations) == report.flow_augmentations, (algo, mode)


def wrap_everywhere(monkeypatch, original, wrapper):
    """Replace every reference to ``original`` in the package's modules."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "twdecomp" or name.startswith("twdecomp.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def listed_sizes(monkeypatch):
    """Wrap ``min_vertex_separator`` everywhere; the returned list gets, per
    flow that returns a Cut, the sizes of its listed sides together."""
    from twdecomp import flow

    original = flow.min_vertex_separator
    sizes = []

    def wrapper(*args, **kwargs):
        res = original(*args, **kwargs)
        if isinstance(res, Cut):
            sizes.append(sum(map(len, res.listed)))
        return res

    wrap_everywhere(monkeypatch, original, wrapper)
    return sizes


@pytest.mark.parametrize("algo", ["rs4", "half45"])
def test_adaptive_flows_list_little_on_a_path(monkeypatch, algo):
    # Once a node has a cut, adaptive mode bounds each later flow by one less
    # than that cut's size, so a flow that cannot win stops early instead of
    # listing the part's far side: the listed sides of all flows together
    # stay linear in n.
    sizes = listed_sizes(monkeypatch)
    n = 2000
    res = decompose(path_graph(n), algo, adaptive=True)
    assert res.report.width_plus_one == 2
    assert sizes and sum(sizes) <= 4 * n


def test_bg367_on_a_path_searches_no_component_and_lists_no_isolating_side(monkeypatch):
    # At k = 2 every bg367 candidate on a path is a triple, so every flow is
    # an isolating cut: none lists a side, and the three-way split finds its
    # sides without a components search.
    sizes = listed_sizes(monkeypatch)
    original = graph.connected_components
    callers = []

    def components(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(*args, **kwargs)

    wrap_everywhere(monkeypatch, original, components)
    res = decompose(path_graph(2000), "bg367", k=2)
    assert isinstance(res.outcome, TriangSuccess)
    assert len(sizes) == res.report.separator_calls > 0
    assert set(sizes) == {0}
    assert "twdecomp.flow" not in callers


def test_bg367_on_a_path_queues_and_lists_linearly(monkeypatch):
    # Two counts, with no timing, over bg367 at k = 2 on a path: the states
    # queued by the breadth-first searches of all flows (every ``prev``
    # entry a search sets), and the vertices entered into three-way cuts
    # (their separators and listed sides).  Isolating flows that searched
    # their sources' dead ends, the tail of the path, queued 503,958 states
    # at n = 1000, and three-way cuts that listed their largest side entered
    # 250,488 vertices there; both grew as n squared.  Now both come to
    # about 8n and 2n.
    from twdecomp import flow

    n = 4000
    limit = 16 * n
    queued = [0]

    class CountingRow(list):
        def __setitem__(self, i, value):
            if value != -1:
                queued[0] += 1
                assert queued[0] <= limit, "the searches queue more than 16n states"
            super().__setitem__(i, value)

    class CountingArrays(flow._FlowArrays):
        def __init__(self, size):
            super().__init__(size)
            self.prev = CountingRow(self.prev)

    entered = [0]
    check = Cut.__post_init__

    def counted_check(cut):
        check(cut)
        if len(cut.listed) >= 2:
            entered[0] += len(cut.owner)

    monkeypatch.setattr(flow, "_FlowArrays", CountingArrays)
    monkeypatch.setattr(Cut, "__post_init__", counted_check)
    res = decompose(path_graph(n), "bg367", k=2)
    assert isinstance(res.outcome, TriangSuccess)
    assert res.report.separator_calls > n
    assert 0 < queued[0] <= limit
    assert 0 < entered[0] <= 4 * n


def test_bg367_on_a_caterpillar_checks_its_isolating_cuts_linearly(monkeypatch):
    # A count, with no timing, over bg367 at k = 2 on a caterpillar: the rows
    # ``_verify_separator`` reads from its part.  A check that put the legs
    # of a cut target in the rest would find the rest's search short of them
    # and scan every member beyond the sources: 1,261,496 rows (315n) here.
    # A dead flow scans only the rows of its rest, the targets no search
    # reached, and never lists its non-targets: the rows read come to about
    # 3n.
    from twdecomp import flow

    n = 4000
    read = [0]

    class CountingRows:
        def __init__(self, adj):
            self.adj = adj

        def __getitem__(self, v):
            read[0] += 1
            return self.adj[v]

    check = flow._verify_separator

    def counted(part, *args):
        rows = SimpleNamespace(adj=CountingRows(part.adj), size=part.size)
        return check(rows, *args)

    monkeypatch.setattr(flow, "_verify_separator", counted)
    res = decompose(dead_end_graph("caterpillar-end", n, random.Random(n)), "bg367", k=2)
    assert isinstance(res.outcome, TriangSuccess)
    assert res.report.separator_calls > n // 2
    assert 0 < read[0] <= 4 * n


def test_no_stale_part_reaches_a_search(monkeypatch):
    # The largest child of a split node inherits the node's part; every
    # search must still see exactly the part induced by its members.
    original = triangulate.FlowWorkspace
    seen = []

    def checked(g, part, targets, counters=None):
        fresh = Part(g, part.members)
        assert bytes(part.inside) == bytes(fresh.inside)
        assert list(map(tuple, part.adj)) == list(fresh.adj)
        assert part.m == fresh.m
        seen.append(len(part.members))
        return original(g, part, targets, counters)

    monkeypatch.setattr(triangulate, "FlowWorkspace", checked)
    graphs = (path_graph(300), star_graph(200), random_tree(150, random.Random(5)),
              grid_graph(6, 6))
    runs = [(algo, {"k": 2}) for algo in ("rs4", "half45", "bg367")]
    runs += [(algo, {"search": True}) for algo in ("rs4", "half45", "bg367")]
    runs += [(algo, {"adaptive": True}) for algo in ("rs4", "half45")]
    for g in graphs:
        for algo, mode in runs:
            seen.clear()
            decompose(g, algo, **mode)
            assert seen, (algo, mode)


def test_split_nodes_cost_what_they_remove(monkeypatch):
    # A count, with no timing, summed over the run: the members listed by the
    # flows (side1 and the separator of every cut); the members scanned by
    # the check of every cut as it is built (those, plus the rows of side1);
    # the entries the workspaces' ``near`` holds once the run ends, each
    # filled on its first read; and the surgery: every
    # row or id range filtered (Part.__init__, a handover's short rows,
    # Part.remainder), every vertex a handover removes and every bisection
    # into a hub's row.  A node that listed, verified or rebuilt its whole
    # part would make these counts grow as n squared: listing whole parts
    # alone is about 670n on the path, while both runs here come to about 14n.
    per_vertex = 20
    counts = Counter()
    masks = []
    check = Cut.__post_init__
    init = FlowWorkspace.__init__
    handover = Part.handover

    def counted_check(cut):
        side1 = cut.listed[0]
        listed = len(side1) + len(cut.separator)
        counts["listed"] += listed
        counts["verified"] += listed + sum(len(cut.part.adj[u]) for u in side1)
        check(cut)

    def counted_init(ws, *args):
        init(ws, *args)
        masks.append(ws.near)

    def counted_handover(part, removed):
        removed = set(removed)
        counts["surgery"] += len(removed)
        return handover(part, removed)

    def counted_compress(data, selectors):
        counts["surgery"] += len(data)
        return compress(data, selectors)

    def counted_bisect(row, v, *bounds):
        counts["surgery"] += 1
        return bisect_left(row, v, *bounds)

    monkeypatch.setattr(Cut, "__post_init__", counted_check)
    monkeypatch.setattr(FlowWorkspace, "__init__", counted_init)
    monkeypatch.setattr(Part, "handover", counted_handover)
    monkeypatch.setattr(graph, "compress", counted_compress)
    monkeypatch.setattr(graph, "bisect_left", counted_bisect)
    for g, mode in ((path_graph(4000), {"k": 2}), (star_graph(2000), {"search": True})):
        counts.clear()
        masks.clear()
        assert isinstance(decompose(g, "half45", **mode).outcome, TriangSuccess)
        counts["near"] = sum(map(len, masks))
        assert all(counts.values()) and len(counts) == 4, counts
        assert counts.total() <= per_vertex * g.n, (g, counts)


def two_hubs_graph(n: int) -> Graph:
    """K_{2,n}: the hubs 0 and 1, each joined to the n leaves 2..n+1."""
    return Graph(n + 2, [(h, v) for h in (0, 1) for v in range(2, n + 2)])


@pytest.mark.parametrize("graph_of, algo, mode", [
    (star_graph, "bg367", {"search": True}),
    (path_graph, "bg367", {"k": 2}),
    (lambda n: random_tree(n, random.Random(n)), "rs4", {"adaptive": True}),
    (two_hubs_graph, "half45", {"search": True}),
    (two_hubs_graph, "rs4", {"k": 3}),
], ids=["star-bg367-search", "path-bg367-k2", "tree-rs4-adaptive", "two-hubs-half45-search",
        "two-hubs-rs4-k3"])
def test_target_masks_stay_linear(monkeypatch, graph_of, algo, mode):
    # A count, with no timing: the work of every ``near`` fill, summed over
    # the run, per vertex, grows by at most half from n to 2n (about 5, 5,
    # 8, 10 and 7 per vertex here).  A fill that bisects costs its
    # bisections; one that does not costs the row it scanned.  Scanning a
    # hub's row (a star's centre, either hub of K_{2,n}) costs n on its own,
    # and every split node reads the hubs.
    fill = flow._Near.__missing__
    bisections = [0]
    work = [0]

    def counted_bisect(row, v, *bounds):
        bisections[0] += 1
        return bisect_left(row, v, *bounds)

    def counted_fill(near, v):
        before = bisections[0]
        mask = fill(near, v)
        work[0] += bisections[0] - before or len(near.part.adj[v])
        return mask

    monkeypatch.setattr(flow, "bisect_left", counted_bisect)
    monkeypatch.setattr(flow._Near, "__missing__", counted_fill)
    per_vertex = []
    for n in (500, 1000):
        work[0] = 0
        assert isinstance(decompose(graph_of(n), algo, **mode).outcome, TriangSuccess)
        per_vertex.append(work[0] / n)
    assert 0 < per_vertex[1] <= 1.5 * per_vertex[0], per_vertex


def test_fallback_splits_list_the_rest_only_for_a_child(monkeypatch):
    # A count, with no timing: the members that Part.remainder lists over a
    # bg367 search on partial k-trees whose split nodes take the two-way
    # fallback (a first group of more than k targets).  A fallback's rest is
    # listed only when it becomes a child that is not the heir; listing it at
    # every fallback node, to check and size it as a third side, came to
    # about 6n on the first graph and 8n on the second.
    listed = [0]
    fallbacks = [0]
    remainder = Part.remainder
    first_cut = separators._first_cut

    def counted_remainder(part, *taken):
        out = remainder(part, *taken)
        listed[0] += len(out)
        return out

    def counted_first_cut(*args):
        cut = first_cut(*args)
        fallbacks[0] += cut is not None
        return cut

    monkeypatch.setattr(Part, "remainder", counted_remainder)
    # bg367 reaches the two-way ruling loop through its fallback only.
    monkeypatch.setattr(separators, "_first_cut", counted_first_cut)
    for n, k, drop in ((320, 5, 0.04), (600, 4, 0.03)):
        g = partial_k_tree(n, k, drop, random.Random(n))
        listed[0] = fallbacks[0] = 0
        assert isinstance(decompose(g, "bg367", search=True).outcome, TriangSuccess)
        assert fallbacks[0] >= n // 10, (n, fallbacks)
        assert listed[0] <= n, (n, listed)
