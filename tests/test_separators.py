"""Balanced separator procedures: frozen examples, oracle agreement, and the
completeness certificates on graphs with known treewidth."""

import math
import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from twdecomp import (Counters, Cut, Exceeded, FlowWorkspace, Graph, Part,
                      TriangSuccess, alpha_sum_sep, approx_3way_vertex_cut,
                      connected_components, decompose, min_vertex_separator, try_split, two_thirds_vtx_sep,
                      two_way_half_vtx_sep, vset)
from twdecomp import flow, separators, triangulate
from twdecomp.corpus import (complete_graph, gnp_connected, grid_graph, partial_k_tree,
                             path_graph, star_graph)
from twdecomp.separators import DEFAULT_ALPHA, candidate_splits

from oracles import (brute_force_min_separator, half_candidates, reference_three_partitions,
                     reference_try_split, two_thirds_candidates)
from test_certificate_counts import search_graphs
from test_flow import property_graph, sides_in_order


def two_way_sep_is_consistent(g, sep, w):
    (side1,) = sep.listed
    pieces = set(sep.separator) | set(side1) | set(sep.rest)
    assert len(pieces) == g.n
    assert len(sep.separator) + len(side1) + len(sep.rest) == g.n
    s1, s2 = set(side1), set(sep.rest)
    assert s1 and s2
    for u, v in g.edges():
        assert not ((u in s1 and v in s2) or (u in s2 and v in s1))


def cliqued(g, *groups):
    return Graph(g.n, list(g.edges())
                 + [pair for grp in groups for pair in combinations(grp, 2)])


def test_try_split_path_bottleneck():
    sep = try_split(FlowWorkspace(path_graph(5), None, (0, 1, 3, 4)), (0, 1), (3, 4), 1)
    assert sep is not None
    assert len(sep.separator) == 1
    two_way_sep_is_consistent(path_graph(5), sep, range(5))
    terminals = ((0, 1), (3, 4))
    assert brute_force_min_separator(path_graph(5), terminals) == 1


def test_try_split_clique_fails():
    g = complete_graph(6)
    assert try_split(FlowWorkspace(g, None, (0, 1, 4, 5)), (0, 1), (4, 5), 5) is None


def test_try_split_matches_brute_force_minimum():
    rng = random.Random(1717)
    for _ in range(30):
        n = rng.randint(5, 10)
        g = gnp_connected(n, rng.uniform(0.25, 0.55), rng)
        verts = list(range(n))
        rng.shuffle(verts)
        a, b = tuple(verts[:2]), tuple(verts[2:4])
        sep = try_split(FlowWorkspace(g, None, a + b), a, b, n)
        expected = brute_force_min_separator(cliqued(g, a, b), (a, b))
        if sep is not None:
            assert len(sep.separator) == expected
            two_way_sep_is_consistent(g, sep, verts)


def test_group_cliques_never_change_the_cut():
    # A super-terminal attaches to every vertex of its group, so the searches
    # skip cliquing the groups: flow, cut and sides must come out the same.
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(3, 12)
        g = gnp_connected(n, rng.uniform(0.2, 0.6), rng)
        verts = list(range(n))
        rng.shuffle(verts)
        i = rng.randint(1, n - 2)
        j = rng.randint(i + 1, n - 1)
        last = rng.randint(j, n)
        a, b, c = verts[:i], verts[i:j], verts[j:last]
        bound = rng.randint(0, n)
        clique_ab, clique_abc = cliqued(g, a, b), cliqued(g, a, b, c)
        assert (min_vertex_separator(FlowWorkspace(g, None, a + b), (a, b), bound)
                == min_vertex_separator(FlowWorkspace(clique_ab, None, a + b), (a, b), bound))
        # A three-way cut leaves the side of its last unfinished search
        # unlisted, and the cliques change the order the searches finish in:
        # the separator and every side, the rest included, must agree.
        plain = approx_3way_vertex_cut(FlowWorkspace(g, None, a + b + c), a, b, c, bound)
        cliqued_cut = approx_3way_vertex_cut(FlowWorkspace(clique_abc, None, a + b + c),
                                             a, b, c, bound)
        assert type(plain) is type(cliqued_cut)
        if isinstance(plain, Exceeded):
            assert plain == cliqued_cut
        else:
            assert ((plain.separator, sides_in_order(plain))
                    == (cliqued_cut.separator, sides_in_order(cliqued_cut)))


def test_two_thirds_path_whole_vertex_set():
    g = path_graph(5)
    # oracle first: enumerate all single vertices that give a balanced split
    valid = []
    w = tuple(range(5))
    for x in range(5):
        comps = connected_components(g, (x,))
        if len(comps) >= 2 and all(3 * len(set(c) & set(w)) <= 2 * len(w) for c in comps):
            valid.append((x,))
    assert valid  # at least one qualifying single-vertex separator exists
    sep = two_thirds_vtx_sep(FlowWorkspace(g, None, w), 1)
    assert sep is not None
    assert sep.separator in valid
    assert sep.separator == (2,)
    for side in (*sep.listed, sep.rest):
        assert 3 * len(set(side) & set(w)) <= 2 * len(w)


def test_two_thirds_clique_not_found():
    # a clique on 3k+3 vertices admits no balanced separator of size k
    assert two_thirds_vtx_sep(FlowWorkspace(complete_graph(6), None, range(6)), 1) is None


def test_two_thirds_never_fails_when_treewidth_allows(small_corpus_tw):
    for g, twv in small_corpus_tw[:40]:
        k = twv + 1
        w = vset(range(min(g.n, 3 * k + 2)))
        sep = two_thirds_vtx_sep(FlowWorkspace(g, None, w), k)
        if g.n > 4 * k:
            assert sep is not None


def test_two_way_half_path():
    sep = two_way_half_vtx_sep(FlowWorkspace(path_graph(5), None, range(5)), 1)
    assert sep is not None
    assert len(sep.separator) == 1
    assert sep.separator == (2,)
    for side in (*sep.listed, sep.rest):
        assert len(set(side) & set(range(5))) <= 3


def test_two_way_half_clique_not_found():
    assert two_way_half_vtx_sep(FlowWorkspace(complete_graph(8), None, range(8)), 2) is None


def test_two_way_half_never_fails_when_treewidth_allows(small_corpus_tw):
    for g, twv in small_corpus_tw[:40]:
        k = twv + 1
        w = vset(range(min(g.n, 3 * k + 2)))
        sep = two_way_half_vtx_sep(FlowWorkspace(g, None, w), k)
        if g.n > 4 * k:
            assert sep is not None
            assert len(sep.separator) <= (3 * k) // 2


def brute_force_half_separator_exists(g, w, size_limit):
    """Exhaustive search for a two-way split with both W-sides at most half."""
    w = set(w)
    half = len(w)
    for size in range(size_limit + 1):
        for cut in combinations(range(g.n), size):
            comps = connected_components(g, cut)
            counts = [len(set(c) & w) for c in comps]
            for pick in range(1 << len(comps)):
                left = sum(c for i, c in enumerate(counts) if pick >> i & 1)
                right = sum(counts) - left
                if 2 * left <= half and 2 * right <= half:
                    return True
    return False


def test_half_separator_existence_bound(small_corpus_tw):
    # any graph of treewidth <= k-1 has a two-way half separator of the
    # target set with size at most k + |W|/6
    rng = random.Random(8)
    for g, twv in small_corpus_tw[:12]:
        if g.n < 4:
            continue
        k = twv + 1
        w = vset(rng.sample(range(g.n), min(g.n, 3 * k + 2)))
        limit = k + len(w) // 6
        assert brute_force_half_separator_exists(g, w, limit)


def three_way_sep_is_consistent(g, sep):
    # Two listed sides and the rest, or a fallback's one listed side and its
    # rest.
    sides = [set(side) for side in (*sep.listed, sep.rest)]
    assert len(sides) in (2, 3)
    pieces = set(sep.separator).union(*sides)
    assert len(pieces) == g.n
    assert sum(map(len, sides)) + len(sep.separator) == g.n
    assert sum(1 for s in sides if s) >= 2
    for u, v in g.edges():
        for i in range(len(sides)):
            for j in range(len(sides)):
                if i != j:
                    assert not (u in sides[i] and v in sides[j])


def test_alpha_sum_star_center():
    g = star_graph(7)
    sep = alpha_sum_sep(FlowWorkspace(g, None, range(8)), 3)
    assert sep is not None
    assert sep.separator == (0,)
    three_way_sep_is_consistent(g, sep)
    limit = (1 + Fraction(4, 3)) * 3
    for side in (*sep.listed, sep.rest):
        assert len((set(side) & set(range(8))) | set(sep.separator)) <= limit


def test_alpha_sum_clique_not_found():
    assert alpha_sum_sep(FlowWorkspace(complete_graph(10), None, range(10)), 2) is None


def test_alpha_sum_never_fails_when_treewidth_allows(small_corpus_tw):
    alpha = Fraction(4, 3)
    for g, twv in small_corpus_tw[:40]:
        k = twv + 1
        nominal = math.floor((1 + alpha) * k) + 1
        w = vset(range(min(g.n, nominal)))
        sep = alpha_sum_sep(FlowWorkspace(g, None, w), k)
        if g.n > math.floor((2 * alpha + 1) * k):
            assert sep is not None
            three_way_sep_is_consistent(g, sep)


def test_alpha_sum_balance_is_checked_on_success(small_corpus_tw):
    alpha = Fraction(4, 3)
    for g, twv in small_corpus_tw[:25]:
        k = twv + 1
        nominal = math.floor((1 + alpha) * k) + 1
        w = vset(range(min(g.n, nominal)))
        sep = alpha_sum_sep(FlowWorkspace(g, None, w), k)
        if sep is None:
            continue
        limit = (1 + alpha) * k
        for side in (*sep.listed, sep.rest):
            assert len((set(side) & set(w)) | set(sep.separator)) <= limit


def test_separator_determinism(small_corpus_tw):
    g, twv = small_corpus_tw[5]
    k = twv + 1
    w = vset(range(min(g.n, 3 * k + 2)))
    assert (two_thirds_vtx_sep(FlowWorkspace(g, None, w), k)
            == two_thirds_vtx_sep(FlowWorkspace(g, None, w), k))
    assert (two_way_half_vtx_sep(FlowWorkspace(g, None, w), k)
            == two_way_half_vtx_sep(FlowWorkspace(g, None, w), k))


def test_alpha_sum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        alpha_sum_sep(FlowWorkspace(path_graph(5), None, range(5)), 0)
    with pytest.raises(ValueError):
        alpha_sum_sep(FlowWorkspace(path_graph(5), None, range(5)), 2, Fraction(1, 2))


def uncached_alpha_sum_sep(g, targets, k, alpha, counters, part):
    """alpha_sum_sep with every candidate running its flows in a workspace of
    its own, so no isolating cut is reused."""
    w = vset(targets)
    wset = set(w)
    cut_bound = math.floor(alpha * k)
    per_side_limit = (1 + alpha) * k
    for groups in reference_three_partitions(w, k):
        if len(groups) == 3:
            groups = [tuple(v for i, v in enumerate(w) if mask >> i & 1) for mask in groups]
        if len(groups) == 2:
            cut = try_split(FlowWorkspace(g, part, w, counters), *groups, k)
            if cut is None:
                continue
        else:
            cut = approx_3way_vertex_cut(FlowWorkspace(g, part, w, counters),
                                         *groups, cut_bound)
            if isinstance(cut, Exceeded):
                continue
        # Every side, the rest listed too.
        sides = (*cut.listed, cut.rest)
        if (sum(1 for side in sides if side) >= 2
                and all(len((set(side) & wset) | set(cut.separator)) <= per_side_limit
                        for side in sides)):
            return cut
    return None


def test_alpha_sum_sep_matches_uncached_reference():
    # Within one search every triple partitions the same targets, so reusing a
    # group's isolating cut must return the reference's separator while
    # running no more flows; on grids most candidates fail and groups recur.
    rng = random.Random(3670)
    graphs = [("grid", grid_graph(r, c)) for r, c in ((4, 4), (4, 5), (5, 5), (5, 6), (6, 6))]
    graphs += [("gnp", gnp_connected(rng.randint(8, 40), rng.uniform(0.08, 0.3), rng))
               for _ in range(6)]
    found = 0
    for kind, g in graphs:
        want, got = Counters(), Counters()
        for alpha in (Fraction(1), Fraction(4, 3), Fraction(3, 2)):
            for whole in (True, False):
                k = rng.randint(1, 3)
                members = (range(g.n) if whole
                           else rng.sample(range(g.n), rng.randint(g.n // 2, g.n)))
                part = Part(g) if whole else Part(g, members)
                size = min(len(members), math.floor((1 + alpha) * k) + 1)
                targets = rng.sample(sorted(members), size)
                calls = (want.separator_calls, got.separator_calls)
                expected = uncached_alpha_sum_sep(g, targets, k, alpha, want, part)
                sep = alpha_sum_sep(FlowWorkspace(g, part, targets, got), k, alpha)
                assert sep == expected, (kind, g, alpha, whole, k, targets)
                found += sep is not None
                assert got.separator_calls - calls[1] <= want.separator_calls - calls[0]
        assert got.augmentations <= want.augmentations
        if kind == "grid":
            assert got.separator_calls < want.separator_calls, g
    assert 0 < found < len(graphs) * 6


def test_try_split_refuses_bad_groups_while_certificates_are_kept():
    g = grid_graph(4, 4)
    top, bottom = (0, 1, 2, 3), (12, 13, 14, 15)
    ws = FlowWorkspace(g, None, top + bottom)
    assert try_split(ws, top, bottom, 2) is None
    assert ws.certs[2].count == 1
    # The kept certificate would rule out the first two; every group is
    # checked before any ruling, so each is refused and none is counted.
    bad = [
        ((0, 13, 2, 15), (12, 1, 14, 3, 15), "disjoint"),
        ((0, 13, 2, 15, 0), (12, 1, 14, 3), "repeat"),
        ((0, 13, 2, 15), (), "non-empty"),
        ((), (12, 1, 14, 3), "non-empty"),
        ((0, 13, 2, 15, 5), (12, 1, 14, 3), "not a target"),
        ((0, 13, 2, 15), (12, 1, 14, 3, 99), "not a target"),
    ]
    for group_a, group_b, message in bad:
        with pytest.raises(ValueError, match=message):
            try_split(ws, group_a, group_b, 2)
    assert ws.counters.certified == 0
    assert try_split(ws, (0, 13, 2, 15), (12, 1, 14, 3), 2) is None
    assert ws.counters.certified == 1 and ws.counters.separator_calls == 1


def test_every_certificate_ruling_matches_a_real_flow(monkeypatch):
    # A candidate that a kept certificate rules out runs no flow.  Run it
    # anyway, in a twin workspace whose certificates nothing reads: the flow
    # must end Exceeded.  The output must not depend on the rulings either.
    # Every two-way candidate (of the two-way searches, adaptive mode and
    # bg367's fallback) is ruled in ``_first_cut``, so the rulings are the
    # candidates it reads from its pairs that reach no flow: each is
    # replayed once the loop returns.
    first_cut = separators._first_cut
    real_flow = separators.min_vertex_separator
    twins = {}
    rulings = [0]
    tried = []      # [first, second, ran a flow] of the running loop
    searching = [False]

    def replay(ws, side_a, side_b, bound):
        twin = twins.get(ws)
        if twin is None:
            twin = twins[ws] = FlowWorkspace(g, ws.part, ws.targets)
        assert isinstance(min_vertex_separator(twin, (side_a, side_b), bound), Exceeded)
        rulings[0] += 1

    def recorded(pairs):
        for first, second in pairs:
            tried.append([first, second, False])
            yield first, second

    def flowed(ws, terminals, bound, **options):
        if searching[0]:
            first, second, ran = tried[-1]
            pick = ws.targets.__getitem__
            assert not ran and terminals == (tuple(map(pick, first)), tuple(map(pick, second)))
            tried[-1][2] = True
        return real_flow(ws, terminals, bound, **options)

    def ruled(ws, pairs, bound):
        tried.clear()
        searching[0] = True
        try:
            cut = first_cut(ws, recorded(pairs), bound)
        finally:
            searching[0] = False
        pick = ws.targets.__getitem__
        for first, second, ran in tried:
            if not ran:
                replay(ws, tuple(map(pick, first)), tuple(map(pick, second)), bound)
        return cut

    grids = [grid_graph(6, 6), grid_graph(5, 8), grid_graph(7, 7)]
    pkts = [partial_k_tree(n, k, 0.15, random.Random(n)) for n, k in ((36, 3), (48, 4), (60, 3))]
    gnps = [gnp_connected(n, p, random.Random(n)) for n, p in ((30, 0.1), (45, 0.07), (60, 0.05))]
    runs = [(g, algo, {"search": True}) for g in grids + pkts + gnps
            for algo in ("half45", "bg367")]
    runs += [(g, "rs4", {"search": True}) for g in grids[:2] + pkts[:1] + gnps[:1]]
    runs += [(g, algo, {"adaptive": True}) for g in (grids[0], pkts[0], gnps[0])
             for algo in ("rs4", "half45")]
    # The criterion-8 partial 5-tree pkt100, where grown certificates rule
    # out the most candidates.
    scale = partial_k_tree(100, 5, 0.03, random.Random(8008))
    runs += [(scale, algo, {"search": True}) for algo in ("rs4", "half45")]
    # A wheel's centre and a grid's apex, a vertex joined to all others, are
    # hubs: free targets that a certificate's region may hold.
    rim = 60
    wheel = Graph(rim + 1, [(v, (v + 1) % rim) for v in range(rim)]
                  + [(v, rim) for v in range(rim)])
    grid = grid_graph(5, 5)
    apex_grid = Graph(grid.n + 1, list(grid.edges()) + [(v, grid.n) for v in range(grid.n)])
    runs += [(g, algo, {"search": True}) for g in (wheel, apex_grid) for algo in ("rs4", "half45")]
    ruled_by_algo = dict.fromkeys(("rs4", "half45", "bg367"), 0)
    # Adaptive mode reaches the loop through triangulate's reference to it.
    monkeypatch.setattr(separators, "_first_cut", ruled)
    monkeypatch.setattr(triangulate, "_first_cut", ruled)
    monkeypatch.setattr(separators, "min_vertex_separator", flowed)
    keep_certificate = flow._keep_certificate
    for g, algo, mode in runs:
        monkeypatch.setattr(flow, "_keep_certificate", keep_certificate)
        rulings[0] = 0
        twins.clear()
        res = decompose(g, algo, **mode)
        assert res.report.certified == rulings[0], (algo, mode)
        ruled_by_algo[algo] += rulings[0]
        # No certificate kept: nothing is ruled out.
        monkeypatch.setattr(flow, "_keep_certificate", lambda ws, side_b, value, bound: None)
        plain = decompose(g, algo, **mode)
        assert isinstance(res.outcome, TriangSuccess)
        assert res.k_used == plain.k_used, (algo, mode)
        assert res.outcome.decomposition == plain.outcome.decomposition, (algo, mode)
        assert res.report.separator_calls <= plain.report.separator_calls
        assert plain.report.certified == 0
    assert all(ruled_by_algo.values()), ruled_by_algo


def test_two_way_searches_rule_without_a_call(monkeypatch):
    # A two-way search makes no call per candidate: the workspace has no
    # per-candidate ``certified``, and no ``ruling`` rebuilt per flow.
    # ``_first_cut`` fetches its bound's certificates once per call and
    # reads them in place; every other fetch keeps a certificate.  A call
    # per candidate would be 14,140 on grid10x10 half45 and 10,277 on pkt100
    # rs4, and a rebuild at the start and after each flow that ends
    # Exceeded 1,477 and 606.  The run's candidate list holds exactly as
    # many first groups as the longest search of each size read.
    assert not hasattr(FlowWorkspace, "certified")
    assert not hasattr(FlowWorkspace, "ruling")
    loops, fetches, kept = [0], [0], [0]
    fetch, keep = FlowWorkspace.certificates, flow._keep_certificate
    first_cut = separators._first_cut

    def counted_fetch(ws, bound):
        fetches[0] += 1
        return fetch(ws, bound)

    def counted_loop(*args):
        loops[0] += 1
        return first_cut(*args)

    def counted_keep(*args):
        kept[0] += 1
        return keep(*args)

    splits = separators.candidate_splits
    runs = {}
    reached = {}
    searches = [0]

    def measured(counters, size, flavor):
        runs[id(counters)] = counters
        searches[0] += 1
        firsts = 0
        last = None
        for first, second in splits(counters, size, flavor):
            if first is not last:
                last = first
                firsts += 1
                key = (size, len(first))
                reached[key] = max(reached.get(key, 0), firsts)
            yield first, second

    monkeypatch.setattr(FlowWorkspace, "certificates", counted_fetch)
    monkeypatch.setattr(separators, "_first_cut", counted_loop)
    monkeypatch.setattr(flow, "_keep_certificate", counted_keep)
    monkeypatch.setattr(separators, "candidate_splits", measured)
    graphs = search_graphs()
    for name, algo, calls in (("grid10x10", "half45", 47), ("pkt100", "rs4", 9)):
        loops[0] = fetches[0] = kept[0] = searches[0] = 0
        runs.clear()
        reached.clear()
        report = decompose(graphs[name], algo, search=True).report
        assert loops[0] == searches[0] == calls, name
        assert fetches[0] == loops[0] + kept[0], name
        assert report.certified > 0
        (counters,) = runs.values()
        assert {key: len(pairs) for key, (pairs, _) in counters.splits.items()} == reached


@pytest.mark.parametrize("flavor, oracle", (("rs4", two_thirds_candidates),
                                            ("half45", half_candidates)))
def test_candidate_splits_follow_the_reference_order(flavor, oracle):
    counters = Counters()
    for size in range(14):
        targets = tuple(range(3, 3 + 2 * size, 2))
        got = [(tuple(targets[i] for i in first), tuple(targets[i] for i in second))
               for first, second in candidate_splits(counters, size, flavor)]
        assert got == list(oracle(targets)), size
    # Both flavours share the lists, one per (size, first-group size), which
    # the first pass built in full.
    assert {key: len(pairs) for key, (pairs, _) in counters.splits.items()} == {
        (size, -(-size // 2)): math.comb(size, -(-size // 2)) for size in range(2, 14)}


def test_a_later_search_extends_the_list_an_early_stop_left():
    counters = Counters()
    early = candidate_splits(counters, 9, "half45")
    head = [next(early) for _ in range(5)]
    assert [first for first, _ in head] == list(combinations(range(9), 5))[:5]
    assert len(counters.splits[9, 5][0]) == 5
    later = list(candidate_splits(counters, 9, "rs4"))
    assert later == list(two_thirds_candidates(tuple(range(9))))
    assert len(counters.splits[9, 5][0]) == math.comb(9, 5)


@pytest.mark.parametrize("seed", range(8))
def test_readers_of_one_list_take_turns_in_any_order(seed):
    # Two or three readers share one run's lists and take turns, each
    # reading a few candidates at a time in a seeded order, so a reader
    # resumes after another has grown the list it reads.  Readers are the
    # two flavours and alpha_sum_sep's collapsed pairs of each first-part
    # size it tries; at an even size that of size/2 is half45's list.
    # Every reader yields its whole reference sequence all the same.
    rng = random.Random(seed)
    for size in range(2, 14):
        w = tuple(range(size))
        kinds = {"rs4": list(two_thirds_candidates(w)), "half45": list(half_candidates(w))}
        for s1 in range(max(-(-size // 3), 1), size // 2 + 1):
            kinds[s1] = [pair for pair in reference_three_partitions(w, s1 - 1)
                         if len(pair) == 2 and len(pair[0]) == s1]
        counters = Counters()
        readers = []
        for kind in rng.choices(list(kinds), k=rng.randint(2, 3)):
            pairs = (separators._split_pairs(counters, size, kind) if isinstance(kind, int)
                     else candidate_splits(counters, size, kind))
            readers.append((kind, iter(pairs), []))
        live = list(readers)
        while live:
            reader = rng.choice(live)
            chunk = list(islice(reader[1], rng.randint(1, 12)))
            reader[2].extend(chunk)
            if not chunk:
                live.remove(reader)
        for kind, _, got in readers:
            assert got == kinds[kind], (size, kind)


def test_three_way_search_leaves_a_list_that_half45_extends():
    # On the path 0-...-7 with every vertex a target, alpha_sum_sep at k=3
    # takes its first collapsed pair, {0..3} against {4..7}: it leaves the
    # run's (8, 4) list one pair long, and a later half45 reader extends
    # that list in place instead of building one of its own.
    g = path_graph(8)
    counters = Counters()
    cut = alpha_sum_sep(FlowWorkspace(g, Part(g), range(8), counters), 3)
    assert len(cut.separator) == 1
    (entry,) = counters.splits.values()
    pairs = entry[0]
    assert list(counters.splits) == [(8, 4)] and pairs == [((0, 1, 2, 3), (4, 5, 6, 7))]
    assert list(candidate_splits(counters, 8, "half45")) == list(half_candidates(tuple(range(8))))
    assert list(counters.splits) == [(8, 4)] and counters.splits[8, 4] is entry
    assert entry[0] is pairs and len(pairs) == math.comb(8, 4)


def try_split_loop(ws, oracle, bound):
    """The two-way search as a loop of the reference ``try_split`` over the
    oracle order."""
    for first, second in oracle(ws.targets):
        cut = reference_try_split(ws, first, second, bound)
        if cut is not None:
            return cut
    return None


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("gnp", "grid", "tree", "star", "pkt")),
       n=st.integers(6, 30), seed=st.integers(0, 2**31))
def test_two_way_searches_match_a_try_split_loop(kind, n, seed):
    # Several searches of one run, on twin Counters: the same cuts, and the
    # same flows, augmentations and rulings, as try_split over the oracle
    # order, while the run's candidate lists are shared between searches.
    rng = random.Random(seed)
    g = property_graph(kind, n, rng)
    members = list(range(g.n))
    part = None
    if rng.random() < 0.5:
        members = [v for v in members if rng.random() < 0.8] or members
        part = Part(g, members)
    fast, slow = Counters(), Counters()
    for _ in range(4):
        targets = vset(rng.sample(members, min(len(members), rng.randint(2, 9))))
        k = rng.randint(1, 3)
        for search, oracle, bound in ((two_thirds_vtx_sep, two_thirds_candidates, k),
                                      (two_way_half_vtx_sep, half_candidates, (3 * k) // 2)):
            got = search(FlowWorkspace(g, part, targets, fast), k)
            want = try_split_loop(FlowWorkspace(g, part, targets, slow), oracle, bound)
            assert got == want
            assert ((fast.separator_calls, fast.augmentations, fast.certified)
                    == (slow.separator_calls, slow.augmentations, slow.certified))



def reference_adaptive_split(g, part, boundary, oracle, counters):
    """Adaptive mode's split as a loop of the reference ``try_split`` over
    the oracle order each round, the bound lowered below each cut found."""
    targets = list(boundary)
    best = None
    while True:
        ws = FlowWorkspace(g, part, targets, counters)
        bound = part.size
        for first, second in oracle(ws.targets):
            cut = reference_try_split(ws, first, second, bound)
            if cut is not None:
                best, bound = cut, len(cut.separator) - 1
                if bound < 0:
                    break
        if best is not None:
            return best
        more = part.smallest(1, targets)
        if not more:
            return Cut(part.members, (), 0, part, 0)
        targets += more


def reference_alpha_sum_sep(ws, k, alpha):
    """``alpha_sum_sep`` over the reference partitions, each collapsed pair
    of them through the reference ``try_split``."""
    w = set(ws.targets)
    cut_bound = math.floor(alpha * k)
    per_side_limit = (1 + alpha) * k
    for groups in reference_three_partitions(ws.targets, k):
        if len(groups) == 2:
            cut = reference_try_split(ws, *groups, k)
            if cut is None:
                continue
        else:
            if ws.isolating_union(groups).bit_count() > cut_bound:
                continue
            cut = approx_3way_vertex_cut(ws, *map(ws.targets_of, groups), cut_bound)
        sides = (*cut.listed, cut.rest)
        if (sum(map(bool, sides)) >= 2
                and max(len(w.intersection(side)) for side in sides) + len(cut.separator)
                <= per_side_limit):
            return cut
    return None


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("gnp", "grid", "tree", "star", "pkt")),
       n=st.integers(6, 20), seed=st.integers(0, 2**31))
def test_adaptive_rounds_and_collapsed_candidates_match_a_try_split_loop(kind, n, seed):
    # Adaptive splits of both flavours, then bg367 searches whose target
    # sets are large enough for first parts of more than k targets, on twin
    # Counters: the same cuts, and the same flows, augmentations and
    # rulings, as loops of the reference try_split.
    rng = random.Random(seed)
    g = property_graph(kind, n, rng)
    members = list(range(g.n))
    part = Part(g)
    if rng.random() < 0.5:
        members = [v for v in members if rng.random() < 0.8] or members
        part = Part(g, members)
    fast, slow = Counters(), Counters()
    for flavor, oracle in (("rs4", two_thirds_candidates), ("half45", half_candidates)):
        boundary = vset(rng.sample(members, min(len(members), rng.randint(1, 4))))
        got = triangulate._adaptive_split(flavor, fast)(g, part, boundary)
        want = reference_adaptive_split(g, part, boundary, oracle, slow)
        assert got == want
        assert ((fast.separator_calls, fast.augmentations, fast.certified)
                == (slow.separator_calls, slow.augmentations, slow.certified))
    for _ in range(3):
        k = rng.randint(1, 3)
        targets = vset(rng.sample(members, min(len(members), rng.randint(2 * k + 2, 9))))
        alpha = rng.choice((Fraction(1), Fraction(4, 3), Fraction(3, 2)))
        got = alpha_sum_sep(FlowWorkspace(g, part, targets, fast), k, alpha)
        want = reference_alpha_sum_sep(FlowWorkspace(g, part, targets, slow), k, alpha)
        assert got == want
        assert ((fast.separator_calls, fast.augmentations, fast.certified)
                == (slow.separator_calls, slow.augmentations, slow.certified))


def test_isolating_cuts_of_a_triple_never_exceed_the_bound(monkeypatch):
    # A group is itself a separator between it and the other targets, so an
    # isolating flow bounded by the group's size always ends with a Cut: in
    # bg367 runs, whose triples are rejected by the mask filter before any
    # call of approx_3way_vertex_cut, and in public calls whose bound is
    # below a group's size.  Every triple that reaches
    # approx_3way_vertex_cut in a run gets a cut.
    original_flow = flow.min_vertex_separator
    original_union = FlowWorkspace.isolating_union
    original_cut = separators.approx_3way_vertex_cut
    isolating = []
    unions = []
    cuts = []

    def flow_checked(ws, terminals, bound, *, separator_only=False):
        res = original_flow(ws, terminals, bound, separator_only=separator_only)
        if separator_only:
            assert bound == len(terminals[1])
            assert isinstance(res, Cut) and len(res.separator) <= bound
            isolating.append(res)
        return res

    def union_checked(ws, masks):
        unions.append(masks)
        return original_union(ws, masks)

    def cut_checked(ws, t1, t2, t3, bound):
        before = ws.counters.augmentations
        cut = original_cut(ws, t1, t2, t3, bound)
        assert cut.augmentations == ws.counters.augmentations - before
        assert not isinstance(cut, Exceeded)
        cuts.append(cut)
        return cut

    monkeypatch.setattr(flow, "min_vertex_separator", flow_checked)
    monkeypatch.setattr(FlowWorkspace, "isolating_union", union_checked)
    monkeypatch.setattr(separators, "approx_3way_vertex_cut", cut_checked)
    for g in (grid_graph(8, 8), gnp_connected(30, 0.1, random.Random(30)), path_graph(40)):
        for alpha in (Fraction(1), DEFAULT_ALPHA):
            decompose(g, "bg367", search=True, alpha=alpha)
    # Each accepted triple calls isolating_union twice: in the filter and in
    # approx_3way_vertex_cut; some triples stop in the filter.
    assert isolating and cuts and len(unions) > 2 * len(cuts)
    rng = random.Random(683)
    below = exceeded = 0
    for _ in range(20):
        g = gnp_connected(10, rng.uniform(0.3, 0.7), rng)
        targets = rng.sample(range(g.n), 7)
        groups = (tuple(targets[:3]), tuple(targets[3:5]), tuple(targets[5:]))
        for bound in range(3):
            ws = FlowWorkspace(g, None, targets)
            before = len(isolating)
            exceeded += isinstance(approx_3way_vertex_cut(ws, *groups, bound), Exceeded)
            below += len(isolating) - before
    assert below == 180 and exceeded > 0
