"""Golden outputs: the emitted .td bytes and work counters of every driver.

``golden_decompose.json`` was recorded from the recursive drivers that the
explicit-stack loop replaced. The bg367 search counts were re-recorded once
isolating cuts were cached per separator search, because reused cuts run no
flow. The counts were re-recorded again once a separator search kept the
Menger certificate of every flow that ended Exceeded: a candidate that a
certificate rules out is rejected without a flow, so seven search runs count
fewer flows and augmentations, while every digest and k_used stayed the same.
Regenerate it only for a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

from twdecomp import Graph, decompose
from twdecomp.corpus import (complete_graph, cycle_graph, grid_graph, path_graph,
                             star_graph)
from twdecomp.io import emit_decomposition

GOLDEN = Path(__file__).with_name("golden_decompose.json")
RUNS = (("rs4", "search"), ("half45", "search"), ("bg367", "search"),
        ("rs4", "adaptive"), ("half45", "adaptive"))


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


def observe(graphs):
    out = {}
    for name, g in graphs.items():
        for algo, mode in RUNS:
            res = decompose(g, algo, **{mode: True})
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
    assert observed.keys() == expected.keys()
    for key, want in expected.items():
        assert observed[key] == want, key


if __name__ == "__main__":
    from conftest import build_small_corpus

    GOLDEN.write_text(json.dumps(observe(golden_graphs(build_small_corpus())),
                                 indent=1, sort_keys=True) + "\n")
