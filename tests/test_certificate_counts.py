"""Flow counts of the search runs that grown Menger certificates serve.

A search tries every candidate up to its first success, and each candidate
is either ruled out by a kept certificate or flowed, so ``separator_calls +
certified`` is fixed by the candidate order and the first success alone.  A
certificate grows each of its paths into a region with the free targets next
to it; these caps hold the flows of the runs where that rules out the most,
and the fixed sums show that no candidate was skipped or tried twice.  The
rulings of adaptive mode and of bg367's two-way fallback pass through the
same loop as a search's; their runs are pinned exactly, with the mode that
reaches them.  Counts only: no timing.
"""

import random

import pytest

from twdecomp import decompose
from twdecomp.corpus import grid_graph, partial_k_tree

from test_acceptance import SCALE_CORPUS


def search_graphs():
    """The first two graphs of the criterion-8 scale corpus, generated in
    order from its seed, and two grids."""
    rng = random.Random(8008)
    graphs = {name: partial_k_tree(n, k, drop, rng) for name, n, k, drop in SCALE_CORPUS[:2]}
    graphs.update(grid8x8=grid_graph(8, 8), grid10x10=grid_graph(10, 10))
    return graphs


# (graph, algorithm, cap on separator_calls, separator_calls + certified)
RUNS = (
    ("pkt100", "rs4", 700, 10_277),
    ("pkt180", "rs4", 700, 8_485),
    ("grid8x8", "rs4", 850, 10_904),
    ("grid10x10", "half45", 1_500, 14_140),
)


@pytest.mark.parametrize("name, algo, cap, candidates", RUNS)
def test_grown_certificates_cap_the_flows_of_a_search(name, algo, cap, candidates):
    report = decompose(search_graphs()[name], algo, search=True).report
    assert report.separator_calls <= cap, report
    assert report.separator_calls + report.certified == candidates, report


# (graph, algorithm, mode, separator_calls, certified), exact
PINNED = (
    ("pkt180", "bg367", "search", 243, 144),
    ("grid8x8", "rs4", "adaptive", 2_345, 3_172),
    ("grid8x8", "half45", "adaptive", 1_717, 1_548),
)


@pytest.mark.parametrize("name, algo, mode, calls, certified", PINNED)
def test_fallback_and_adaptive_rulings_keep_their_counts(name, algo, mode, calls, certified):
    report = decompose(search_graphs()[name], algo, **{mode: True}).report
    assert (report.separator_calls, report.certified) == (calls, certified), report
