import random

import pytest
from hypothesis import settings

from twdecomp import exact_treewidth
from twdecomp.corpus import (cycle_graph, gnp_connected, grid_graph, k_tree,
                             path_graph, random_tree)

CORPUS_SEED = 90125

# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow moment on a loaded host cannot fail them.
settings.register_profile("twdecomp", derandomize=True, deadline=None)
settings.load_profile("twdecomp")


def build_small_corpus(count=100, max_n=12, seed=CORPUS_SEED):
    """Seeded mix of structured and random connected graphs with n <= max_n."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        style = i % 6
        if style == 0:
            g = path_graph(rng.randint(4, max_n))
        elif style == 1:
            g = cycle_graph(rng.randint(4, max_n))
        elif style == 2:
            g = random_tree(rng.randint(4, max_n), rng)
        elif style == 3:
            g = grid_graph(rng.randint(2, 3), rng.randint(2, max_n // 3))
        elif style == 4:
            g = k_tree(rng.randint(5, max_n), rng.randint(2, 3), rng)
        else:
            g = gnp_connected(rng.randint(4, max_n), rng.uniform(0.25, 0.6), rng)
        graphs.append(g)
    return graphs


@pytest.fixture(scope="session")
def small_corpus():
    return build_small_corpus()


@pytest.fixture(scope="session")
def small_corpus_tw(small_corpus):
    """The corpus graphs paired with their exact treewidth."""
    return [(g, exact_treewidth(g)) for g in small_corpus]
