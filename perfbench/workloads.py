"""The benchmark's three workloads: fixed job lists of (graph, algorithm, mode).

Each graph is generated from a pinned corpus seed, so every run of a workload
does the same work and the run-to-run spread measures noise, not instance
difficulty (on partial k-trees, rs4's separator calls vary 2.5x from one
generator seed to the next). The run seed given on the command line sets the
order in which each pass sends the jobs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# The acceptance suite's scale corpus (criterion 8): name, n, k, drop fraction,
# generated in this order from one random.Random(8008).
SCALE_CORPUS = (
    ("pkt100", 100, 5, 0.03),
    ("pkt180", 180, 4, 0.03),
    ("pkt320", 320, 5, 0.04),
    ("pkt450", 450, 4, 0.03),
    ("pkt600", 600, 4, 0.03),
)
PKT_SEED = 8008
SPARSE_SEED = 4000


@dataclass(frozen=True)
class Job:
    graph: str
    algo: str
    mode: str  # "search", "adaptive", "k=<int>" or "none" (mindeg)

    @property
    def id(self) -> str:
        return f"{self.graph}/{self.algo}/{self.mode}"

    def kwargs(self) -> dict:
        if self.mode == "search":
            return {"search": True}
        if self.mode == "adaptive":
            return {"adaptive": True}
        if self.mode.startswith("k="):
            return {"k": int(self.mode[2:])}
        return {}


def width_bound(algo: str, k: int) -> int | None:
    """Clique-number guarantee of an approximation at parameter k."""
    if k < 1:
        return None
    if algo == "rs4":
        return 4 * k + 1
    if algo == "half45":
        return (9 * k) // 2 + 2
    if algo == "bg367":
        return math.ceil(11 * k / 3)
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus_seed: int | None
    # corpus module -> {graph name: (graph, known upper bound on its treewidth)}
    build: Callable[[object], dict]
    jobs: tuple[Job, ...]


def _pkt_corpus(corpus) -> dict:
    rng = random.Random(PKT_SEED)
    return {name: (corpus.partial_k_tree(n, k, drop, rng), k)
            for name, n, k, drop in SCALE_CORPUS}


def _sparse_corpus(corpus) -> dict:
    rng = random.Random(SPARSE_SEED)
    return {
        "path1000": (corpus.path_graph(1000), 1),
        "star800": (corpus.star_graph(800), 1),
        "tree400a": (corpus.random_tree(400, rng), 1),
        "tree400b": (corpus.random_tree(400, rng), 1),
        "ktree3000": (corpus.k_tree(3000, 4, rng), 4),
    }


def _grid_corpus(corpus) -> dict:
    return {f"grid{r}x{c}": (corpus.grid_graph(r, c), min(r, c))
            for r, c in ((8, 8), (10, 10))}


def _pkt_jobs() -> tuple[Job, ...]:
    jobs = []
    for name, *_ in SCALE_CORPUS:
        jobs += [Job(name, "mindeg", "none"), Job(name, "half45", "search"),
                 Job(name, "bg367", "search")]
        # rs4 on pkt320 alone takes about 28 s, so it runs on the two smallest.
        if name in ("pkt100", "pkt180"):
            jobs.append(Job(name, "rs4", "search"))
    return tuple(jobs)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pkt_search",
            "Criterion-8 partial k-trees in search mode: flow-bound, every "
            "rejection is the edge budget and every separator search succeeds.",
            PKT_SEED, _pkt_corpus, _pkt_jobs()),
        Workload(
            "sparse_deep",
            "Paths, a star and trees recurse about n levels deep, so subgraph "
            "surgery and the recursion code dominate; a 3000-vertex 4-tree loads validation.",
            SPARSE_SEED, _sparse_corpus, (
                Job("path1000", "half45", "k=2"),
                Job("path1000", "bg367", "k=2"),
                Job("star800", "half45", "search"),
                Job("tree400a", "rs4", "adaptive"),
                Job("tree400b", "half45", "adaptive"),
                Job("ktree3000", "mindeg", "none"),
            )),
        Workload(
            "grid_reject",
            "Grids in search mode: the only workload whose rejections come from "
            "exhausting the separator search, so the flow runs on the rejection path.",
            None, _grid_corpus, (
                Job("grid8x8", "half45", "search"),
                Job("grid8x8", "bg367", "search"),
                Job("grid8x8", "rs4", "search"),
                Job("grid10x10", "half45", "search"),
            )),
    )
}
