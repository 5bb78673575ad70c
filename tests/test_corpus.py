"""The synthetic graph generators: their parameter checks, the local
connectivity test behind ``partial_k_tree`` and README's corpus recipe."""

import csv
import math
import random
import re
import shlex
from pathlib import Path

import networkx as nx
import pytest

from twdecomp import cli
from twdecomp.corpus import _joined, gnp_connected, k_tree, partial_k_tree, random_tree

README = Path(__file__).resolve().parent.parent / "README.md"


class CountedRows(list):
    """Adjacency rows that count how many times a row is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_joined_agrees_with_networkx():
    # Random trees make every edge a bridge; sparse G(n, p) graphs mix
    # bridges with edges on cycles, and partial k-trees are mostly cycles.
    rng = random.Random(4711)
    outcomes = {True: 0, False: 0}
    for i in range(300):
        n = rng.randint(2, 60)
        if i % 3 == 0:
            g = random_tree(n, rng)
        elif i % 3 == 1:
            g = gnp_connected(n, rng.uniform(0.0, 0.15), rng)
        else:
            g = partial_k_tree(max(n, 6), rng.randint(1, 4), rng.uniform(0.0, 0.5), rng)
        u, v = rng.choice(g.edges())
        adj = [set(row) for row in g.adj]
        adj[u].discard(v)
        adj[v].discard(u)
        nxg = nx.Graph(g.edges())
        nxg.remove_edge(u, v)
        expected = nx.has_path(nxg, u, v)
        assert _joined(adj, u, v) == expected == _joined(adj, v, u), (i, u, v)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("at", [0, 1000, 1999])
def test_joined_reads_the_smaller_side_of_a_bridge(at):
    # A leaf hung on a 2,000-vertex path, with the bridge between them gone:
    # the leaf's search runs dry at once, so the path's is cut short.
    n = 2000
    adj = CountedRows([set() for _ in range(n + 1)])
    for v in range(n - 1):
        adj[v].add(v + 1)
        adj[v + 1].add(v)
    for u, v in ((n, at), (at, n)):
        adj.reads = 0
        assert not _joined(adj, u, v)
        assert adj.reads <= 3, (u, v, adj.reads)


@pytest.mark.parametrize("call", [
    lambda rng: k_tree(5, -1, rng),
    lambda rng: k_tree(0, -1, rng),
    lambda rng: partial_k_tree(5, -1, 0.1, rng),
])
def test_negative_k_is_refused_before_any_draw(call):
    rng = random.Random(12)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^k must be non-negative$"):
        call(rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("drop", [-0.5, 1.5, -1e-9, math.nan])
def test_drop_fraction_outside_unit_interval_is_refused_before_any_draw(drop):
    rng = random.Random(12)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"^drop_fraction must be between 0 and 1$"):
        partial_k_tree(20, 3, drop, rng)
    assert rng.getstate() == state


def test_drop_fraction_bounds_are_accepted():
    assert partial_k_tree(20, 3, 0, random.Random(3)) == k_tree(20, 3, random.Random(3))
    g = partial_k_tree(20, 3, 1, random.Random(3))
    assert g.m == 19 and nx.is_connected(nx.Graph(g.edges()))


def test_readme_corpus_recipe_runs_through_bench(tmp_path, monkeypatch):
    # The snippet under "A benchmark corpus of synthetic graphs", then the
    # documented bench command on the corpus it writes, both as README has them.
    text = README.read_text()
    section = text[text.index("A benchmark corpus of synthetic graphs"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    command = next(line for line in text.splitlines() if line.startswith("twdecomp bench "))
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert len(list(Path("corpus").glob("*.gr"))) == 4
    assert cli.main(shlex.split(command)[1:]) == 0
    with open("bench.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert header[0] == "graph" and len(rows) == 12
