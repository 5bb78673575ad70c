"""Golden outputs: the emitted .td bytes and work counters of every driver.

``golden_decompose.json`` was recorded from the recursive drivers that the
explicit-stack loop replaced. The bg367 search counts were re-recorded once
isolating cuts were cached per separator search, because reused cuts run no
flow. The counts were re-recorded again once a separator search kept the
Menger certificate of every flow that ended Exceeded: a candidate that a
certificate rules out is rejected without a flow, so seven search runs count
fewer flows and augmentations, while every digest and k_used stayed the same.
The counts of the 32 ``*/adaptive`` entries were re-recorded once adaptive
mode bounded each flow by one less than the best separator found so far: a
candidate that cannot win ends Exceeded early, and its certificate rules out
later ones, while every digest and k_used stayed the same. The counts of 23
entries were re-recorded once a certificate grew each kept path into a
region with the free targets next to it, which rules out more candidates,
while every digest and k_used stayed the same.

None of those runs reaches bg367's two-way fallback, which needs k >= 3 (a
first group of more than k of the floor(7k/3)+1 targets), and every bg367 run
at k = 3 there is one base-case bag.  The ``pkt*/bg367/search`` and
``pkt*/bg367/k=4`` entries were added later from the same code, before the
separator result types were merged into ``flow.Cut``: on those small partial
3-trees every bg367 split node takes the fallback, with the listed side or
the rest as the largest child.  Regenerate the file only for a change that is
meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from twdecomp import Graph, decompose
from twdecomp.corpus import (complete_graph, cycle_graph, grid_graph, partial_k_tree,
                             path_graph, star_graph)
from twdecomp.io import emit_decomposition

GOLDEN = Path(__file__).with_name("golden_decompose.json")
RUNS = (("rs4", "search"), ("half45", "search"), ("bg367", "search"),
        ("rs4", "adaptive"), ("half45", "adaptive"))
FALLBACK_RUNS = (("bg367", "search"), ("bg367", "k=4"))


def disjoint_union(*parts):
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


def golden_graphs(small_corpus):
    graphs = {f"corpus{i}": g for i, g in enumerate(small_corpus[:15])}
    graphs["path60"] = path_graph(60)
    graphs["star40"] = star_graph(40)
    graphs["grid4x4"] = grid_graph(4, 4)
    graphs["disjoint"] = disjoint_union(path_graph(7), cycle_graph(5), Graph(1),
                                        complete_graph(4), star_graph(6))
    return graphs


def fallback_graphs():
    return {f"pkt{n}": partial_k_tree(n, 3, drop, random.Random(seed))
            for n, drop, seed in ((25, 0.1, 6), (30, 0.03, 4), (32, 0.05, 8))}


def observe(graphs, runs=RUNS):
    out = {}
    for name, g in graphs.items():
        for algo, mode in runs:
            kwargs = {"k": int(mode[2:])} if mode.startswith("k=") else {mode: True}
            res = decompose(g, algo, **kwargs)
            text = emit_decomposition(res.outcome.decomposition, g.n)
            out[f"{name}/{algo}/{mode}"] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "k_used": res.k_used,
                "separator_calls": res.report.separator_calls,
                "flow_augmentations": res.report.flow_augmentations,
            }
    return out


def test_outputs_match_golden(small_corpus):
    expected = json.loads(GOLDEN.read_text())
    observed = observe(golden_graphs(small_corpus))
    observed.update(observe(fallback_graphs(), FALLBACK_RUNS))
    assert observed.keys() == expected.keys()
    for key, want in expected.items():
        assert observed[key] == want, key


if __name__ == "__main__":
    from conftest import build_small_corpus

    golden = observe(golden_graphs(build_small_corpus()))
    golden.update(observe(fallback_graphs(), FALLBACK_RUNS))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
