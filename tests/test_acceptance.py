"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings as they complete.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from twdecomp import (Counters, FlowWorkspace, TreewidthExceeded, TriangSuccess,
                      approx_3way_vertex_cut, check_tree_decomposition, decompose,
                      is_chordal, min_degree_triang, min_vertex_separator, NotChordal,
                      triang_2way_23, triang_2way_half, triang_3way)
from twdecomp.corpus import gnp_connected, partial_k_tree
from twdecomp.io import emit_decomposition, parse_decomposition

from oracles import brute_force_min_separator


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)")


def random_terminals(n, rng, groups=2):
    verts = list(range(n))
    rng.shuffle(verts)
    sizes = [rng.randint(1, max(1, n // (2 * groups))) for _ in range(groups)]
    out, at = [], 0
    for s in sizes:
        out.append(tuple(verts[at:at + s]))
        at += s
    return out


def test_criterion_1_separator_oracle_equivalence():
    with criterion(1, "separator oracle equivalence on 200 seeded graphs", 10.0):
        rng = random.Random(1001)
        for _ in range(200):
            n = rng.randint(4, 10)
            g = gnp_connected(n, rng.uniform(0.2, 0.6), rng)
            side_a, side_b = random_terminals(n, rng)
            terminals = (side_a, side_b)
            res = min_vertex_separator(FlowWorkspace(g, None, side_a + side_b), terminals, n)
            assert len(res.separator) == brute_force_min_separator(g, terminals)


def run_width_protocol(corpus, algo_fn, cap_fn):
    for g, twv in corpus:
        k = twv + 1
        out = algo_fn(g, k)
        assert isinstance(out, TriangSuccess), f"false rejection at k={k} (tw={twv})"
        cn = out.triangulation.clique_number
        assert cn <= cap_fn(k), f"clique number {cn} above bound {cap_fn(k)}"
        assert not isinstance(is_chordal(out.triangulation.chordal), NotChordal)
        assert check_tree_decomposition(g, out.decomposition) == []


def test_criterion_2_factor4_guarantee(small_corpus_tw):
    with criterion(2, "factor-4 width guarantee (clique number <= 4k+1)", 60.0):
        run_width_protocol(small_corpus_tw, triang_2way_23, lambda k: 4 * k + 1)


def test_criterion_3_factor45_guarantee(small_corpus_tw):
    with criterion(3, "factor-4.5 width guarantee (clique number <= floor(4.5k)+2)", 60.0):
        run_width_protocol(small_corpus_tw, triang_2way_half,
                           lambda k: (9 * k) // 2 + 2)


def test_criterion_4_factor_11_3_guarantee(small_corpus_tw):
    with criterion(4, "three-way width guarantee (clique number <= ceil(11k/3))", 120.0):
        run_width_protocol(small_corpus_tw, triang_3way,
                           lambda k: math.ceil(11 * k / 3))


def test_criterion_5_rejection_soundness(small_corpus_tw):
    with criterion(5, "rejection soundness and completeness at k = tw+1", 120.0):
        algos = (triang_2way_23, triang_2way_half, triang_3way)
        for g, twv in small_corpus_tw:
            for k in range(1, twv + 1):
                for fn in algos:
                    out = fn(g, k)
                    if isinstance(out, TreewidthExceeded):
                        assert twv > k - 1
            for fn in algos:
                assert isinstance(fn(g, twv + 1), TriangSuccess), \
                    f"false rejection: {fn.__name__} at k={twv + 1}"


def test_criterion_6_isolating_cut_factor():
    with criterion(6, "isolating-cut three-way factor <= ceil(4/3 * opt)", 30.0):
        rng = random.Random(6006)
        for _ in range(100):
            n = rng.randint(5, 10)
            g = gnp_connected(n, rng.uniform(0.2, 0.6), rng)
            groups = [(v,) for v in rng.sample(range(n), 3)]
            ws = FlowWorkspace(g, None, [v for grp in groups for v in grp])
            res = approx_3way_vertex_cut(ws, *groups, bound=n)
            opt = brute_force_min_separator(g, groups)
            assert len(res.separator) <= math.ceil(4 * opt / 3)


def test_criterion_7_flow_early_exit():
    with criterion(7, "augmentation counter stays within bound+1 on every call"):
        rng = random.Random(7007)
        for _ in range(150):
            n = rng.randint(4, 10)
            g = gnp_connected(n, rng.uniform(0.2, 0.7), rng)
            side_a, side_b = random_terminals(n, rng)
            bound = rng.randint(0, 4)
            ws = FlowWorkspace(g, None, side_a + side_b)
            res = min_vertex_separator(ws, (side_a, side_b), bound)
            assert res.augmentations <= bound + 1
        # driver runs above the base case check the per-run tallies end to end
        # triang_3way's bound is max(floor(alpha*k), k) = 4 at alpha = 4/3, and
        # its isolating cuts come from the per-search cache.
        for driver, bound in ((triang_2way_23, 3), (triang_2way_half, 4),
                              (triang_3way, 4)):
            counters = Counters()
            driver(gnp_connected(30, 0.15, rng), 3, counters=counters)
            assert counters.separator_calls > 0
            assert counters.augmentations <= counters.separator_calls * (bound + 1)


SCALE_CORPUS = (
    ("pkt100", 100, 5, 0.03),
    ("pkt180", 180, 4, 0.03),
    ("pkt320", 320, 5, 0.04),
    ("pkt450", 450, 4, 0.03),
    ("pkt600", 600, 4, 0.03),
)


@pytest.mark.slow
def test_criterion_8_scale_shape():
    with criterion(8, "scale shape: search completes at 100-600 vertices, "
                      "min-degree fastest, half45 faster than rs4"):
        rng = random.Random(8008)
        graphs = []
        for name, n, kk, drop in SCALE_CORPUS:
            g = partial_k_tree(n, kk, drop, rng)
            assert 100 <= g.n <= 600 and 400 <= g.m <= 4000
            graphs.append((name, g))

        totals = {"mindeg": 0.0, "half45": 0.0, "rs4": 0.0}
        widths = {}
        sample_emitted = None
        for name, g in graphs:
            for algo in ("mindeg", "half45", "rs4"):
                res = decompose(g, algo, search=(algo != "mindeg"), graph_name=name)
                assert isinstance(res.outcome, TriangSuccess)
                wall_s = res.report.wall_ms / 1000.0
                budget = 120.0 if algo == "mindeg" else 1800.0
                assert wall_s < budget, f"{name}/{algo} took {wall_s:.0f}s"
                totals[algo] += wall_s
                td = res.outcome.decomposition
                assert check_tree_decomposition(g, td) == []
                widths[(name, algo)] = td.width + 1
                if sample_emitted is None:
                    sample_emitted = (g, emit_decomposition(td, g.n))
            print(f"  {name}: n={g.n} m={g.m} width+1 "
                  f"mindeg={widths[(name, 'mindeg')]} "
                  f"half45={widths[(name, 'half45')]} rs4={widths[(name, 'rs4')]}")

        g, text = sample_emitted
        reparsed = parse_decomposition(text)
        assert check_tree_decomposition(g, reparsed.decomposition) == []
        print(f"  totals: mindeg={totals['mindeg']:.1f}s "
              f"half45={totals['half45']:.1f}s rs4={totals['rs4']:.1f}s")
        assert totals["mindeg"] < totals["half45"] < totals["rs4"]


def provably_broken_mutations(rng, pool):
    """Yield (graph, mutated td, predicate over violations).

    Every mutation is invalid by construction, independent of the checker:
    deleting a vertex's only bag occurrence uncovers it, deleting an interior
    occurrence disconnects its subtree, and rewiring a tree edge inside one
    side leaves the other side disconnected.
    """
    while True:
        g, td = pool[rng.randrange(len(pool))]
        bags = [list(b) for b in td.bags]
        edges = list(td.tree_edges)
        kind = rng.randrange(3)
        if kind in (0, 1):
            holders = {}
            for i, bag in enumerate(bags):
                for v in bag:
                    holders.setdefault(v, []).append(i)
            if kind == 0:
                singles = [v for v, hs in holders.items() if len(hs) == 1]
                if not singles:
                    continue
                v = singles[rng.randrange(len(singles))]
                bags[holders[v][0]].remove(v)
                pred = (lambda violations, v=v: any(
                    viol.subject == v
                    or (isinstance(viol.subject, tuple) and v in viol.subject)
                    for viol in violations))
            else:
                adjacency = {}
                for a, b in edges:
                    adjacency.setdefault(a, []).append(b)
                    adjacency.setdefault(b, []).append(a)
                choices = []
                for v, hs in holders.items():
                    hset = set(hs)
                    for b in hs:
                        if sum(1 for nb in adjacency.get(b, []) if nb in hset) >= 2:
                            choices.append((v, b))
                if not choices:
                    continue
                v, b = choices[rng.randrange(len(choices))]
                bags[b].remove(v)
                pred = (lambda violations, v=v: any(
                    viol.subject == v
                    or (isinstance(viol.subject, tuple) and v in viol.subject)
                    for viol in violations))
        else:
            if len(bags) < 3 or not edges:
                continue
            drop = rng.randrange(len(edges))
            a, b = edges.pop(drop)
            reach = {a}
            changed = True
            while changed:
                changed = False
                for x, y in edges:
                    if x in reach and y not in reach:
                        reach.add(y)
                        changed = True
                    elif y in reach and x not in reach:
                        reach.add(x)
                        changed = True
            side = sorted(reach - {a}) or None
            if side is None:
                other = sorted(set(range(len(bags))) - reach - {b})
                if not other:
                    continue
                edges.append((b, other[rng.randrange(len(other))]))
            else:
                edges.append((a, side[rng.randrange(len(side))]))
            pred = lambda violations: any(v.kind == "not-a-tree" for v in violations)
        from twdecomp import TreeDecomposition
        yield g, TreeDecomposition.from_bags(bags, edges), pred


def test_criterion_9_validator_self_test(small_corpus_tw):
    with criterion(9, "50 corrupted decompositions each rejected with an "
                      "attributed violation", 60.0):
        rng = random.Random(9009)
        pool = []
        for g, twv in small_corpus_tw[:20]:
            out = triang_2way_23(g, twv + 1)
            assert isinstance(out, TriangSuccess)
            pool.append((g, out.decomposition))
            tri, td = min_degree_triang(g)
            pool.append((g, td))
        gen = provably_broken_mutations(rng, pool)
        for _ in range(50):
            g, mutated, predicate = next(gen)
            violations = check_tree_decomposition(g, mutated)
            assert violations, "corrupted decomposition was accepted"
            assert predicate(violations), f"misattributed: {violations}"
