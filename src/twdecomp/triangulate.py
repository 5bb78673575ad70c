"""Recursive triangulation drivers, the min-degree baseline, and tree
decomposition assembly.

Each driver recursively splits the graph along a balanced separator, makes a
clique of the inherited boundary plus the separator, and recurses on the
sides.  A failed separator search certifies that the treewidth exceeds k-1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from operator import lt
from typing import Union

from .flow import Counters, Cut, FlowWorkspace
from .graph import Graph, Part, connected_components, vset
from .separators import (DEFAULT_ALPHA, _first_cut, alpha_sum_sep, candidate_splits,
                         two_thirds_vtx_sep, two_way_half_vtx_sep)
from .validate import clique_number_chordal


@dataclass(frozen=True)
class Triangulation:
    """A chordal supergraph of ``base`` and a perfect elimination ordering
    of it, ``peo``: read off the decomposition's bags by the separator
    drivers (checked by ``clique_number_chordal``), the elimination order
    itself for ``mindeg``."""

    base: Graph
    fill_edges: tuple[tuple[int, int], ...]
    chordal: Graph
    peo: tuple[int, ...]
    clique_number: int


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]
    width: int

    @classmethod
    def from_bags(cls, bags, tree_edges) -> "TreeDecomposition":
        # A strictly ascending bag is already its vset; only the others are
        # sorted.
        canonical = []
        for bag in bags:
            bag = tuple(bag)
            canonical.append(bag if all(map(lt, bag, bag[1:])) else vset(bag))
        bags = tuple(canonical)
        width = max((len(b) for b in bags), default=0) - 1
        return cls(bags, tuple(tree_edges), width)


@dataclass(frozen=True)
class TriangSuccess:
    triangulation: Triangulation
    decomposition: TreeDecomposition


@dataclass(frozen=True)
class TreewidthExceeded:
    k: int

    @property
    def message(self) -> str:
        return f"the treewidth exceeds {self.k - 1}"


TriangOutcome = Union[TriangSuccess, TreewidthExceeded]


@dataclass(frozen=True)
class AlgoReport:
    """One benchmark row: input stats, achieved width, and work counters.

    Its fields, in order, are the columns of ``io.append_report``'s CSV."""

    graph: str
    n: int
    m: int
    algo: str
    mode: str
    k_used: int
    width_plus_one: int | None
    separator_calls: int
    flow_augmentations: int
    wall_ms: float
    certified: int


@dataclass(frozen=True)
class DecomposeResult:
    k_used: int
    outcome: TriangOutcome
    report: AlgoReport


def _pad_targets(part: Part, boundary: tuple[int, ...], size: int) -> tuple[int, ...]:
    # Fill up with the smallest member ids not already present; a boundary
    # that already holds ``size`` members gets none.
    return vset(boundary + part.smallest(min(part.size, size) - len(boundary), boundary))


def _missing_pairs(g: Graph, bag: tuple[int, ...], sets: list) -> set[tuple[int, int]]:
    # ``sets[v]`` is v's row as a set, built the first time a bag holds v.
    for u in bag:
        if sets[u] is None:
            sets[u] = set(g.adj[u])
    return {(u, v) for u, v in combinations(bag, 2) if v not in sets[u]}


def _triangulate(g: Graph, k: int, split, base_size: int,
                 clique_cap: int | None) -> TriangOutcome:
    """The recursion shared by every driver, on an explicit stack.

    A node is a vertex subset of ``g``, its inherited boundary, its parent's
    bag index and its ``Part``: either an ascending tuple of its ids and no
    part yet, or, for a node that inherited its parent's part, None and that
    part.  A node of at most ``base_size`` vertices is a leaf whose bag is
    the boundary plus its vertices.  Every other node asks
    ``split(g, part, boundary)`` for a ``Cut`` of its ``Part``; None rejects
    k.  The node's bag is the boundary plus the separator ``x``, made a
    clique, and every non-empty side of the cut plus ``x`` becomes a child.
    Bags are numbered in pre-order and the roots of separate components are
    chained into one tree.

    The child on the largest side (the first of equal sides) takes over the
    node's ``Part`` by ``Part.handover`` when it is above ``base_size``,
    handing over the vertices of the other sides; when that child is the
    rest, those are the listed sides only, so a split that cuts off a few
    vertices costs what it removes.  The rest is listed only when it is not
    handed over, and then it is no larger than a listed side or no larger
    than ``base_size``.  Every other node builds its part from ``g``.
    """
    stack = [(comp, (), -1, None) for comp in reversed(connected_components(g) or [()])]
    fills: set[tuple[int, int]] = set()
    row_sets: list[set[int] | None] = [None] * g.n
    bags: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    while stack:
        members, boundary, parent, part = stack.pop()
        idx = len(bags)
        if parent < 0:
            roots.append(idx)
        else:
            edges.append((parent, idx))
        cut = None
        if members is not None and len(members) <= base_size:
            x = members
        else:
            if part is None:
                part = Part(g, members)
            cut = split(g, part, boundary)
            if cut is None:
                return TreewidthExceeded(k)
            x = cut.separator
        bag = vset(boundary + x)
        bags.append(bag)
        fills.update(_missing_pairs(g, bag, row_sets))
        if cut is None:
            continue
        sizes = cut.sizes()
        last = cut.rest_at
        heir = sizes.index(max(sizes))
        if sizes[heir] + len(x) <= base_size:
            heir = -1
        sides = list(cut.listed)
        sides.insert(last, () if not sizes[last] or heir == last else cut.rest)
        # Each boundary vertex outside x goes to the side that holds it.
        shares: list[list[int]] = [[] for _ in sizes]
        owner = cut.owner
        for v in boundary:
            i = owner.get(v, last)
            if i >= 0:
                shares[i].append(v)
        for i in reversed(range(len(sizes))):
            if not sizes[i]:
                continue
            child_boundary = vset(shares[i] + list(x))
            if i == heir:
                removed = [v for j, side in enumerate(sides) if j != i for v in side]
                stack.append((None, child_boundary, idx, part.handover(removed)))
            else:
                stack.append((vset(sides[i] + x), child_boundary, idx, None))
    edges += zip(roots, roots[1:])
    return _finish(g, k, fills, TreeDecomposition.from_bags(bags, edges), clique_cap)


def _fixed_k_split(find, k: int, pad_size: int, counters: Counters | None):
    """Split closure of the fixed-k drivers: edge budget, then the search.

    Each split node of the call gets a flow workspace over its padded
    targets, all on one ``Counters``; ``find(ws)`` returns a ``Cut`` or None.
    """
    counters = Counters() if counters is None else counters

    def split(g: Graph, part: Part, boundary: tuple[int, ...]) -> Cut | None:
        # A graph of treewidth at most k-1 has at most n*k edges.
        if part.m > part.size * k:
            return None
        return find(FlowWorkspace(g, part, _pad_targets(part, boundary, pad_size), counters))
    return split


def _check_three_way_contract(cut: Cut, bound: int) -> None:
    # alpha_sum_sep never returns a separator above floor(alpha*k); treating
    # one as not found would be an unsound rejection, so it is an error.  The
    # cut itself checked that it splits its part when it was built.
    x = cut.separator
    if len(x) > bound:
        raise RuntimeError(f"separator of {len(x)} vertices exceeds the bound {bound}")
    sizes = cut.sizes()
    if len(cut.listed) + (sizes[cut.rest_at] > 0) > 3:
        raise RuntimeError("three-way split has more than three sides")
    if sum(map(bool, sizes)) < 2:
        raise RuntimeError("three-way split has fewer than two non-empty sides")


def _finish(g: Graph, k: int, fills: set, td: TreeDecomposition,
            clique_cap: int | None) -> TriangSuccess:
    """The triangulation of ``g`` by ``fills``, checked, with ``td``.

    Each vertex is listed at its first bag in pre-order, the root of its
    subtree, and the list is reversed: a later neighbour shares a bag with
    the vertex, so it lies in the vertex's first bag, a clique.  The test
    of ``clique_number_chordal`` checks the order; a failure is an invariant
    violation.
    """
    fill_edges = tuple(sorted(fills))
    chordal = Graph(g.n, chain(g.edges(), fill_edges)) if fills else g
    order = tuple(dict.fromkeys(chain.from_iterable(td.bags)))[::-1]
    try:
        cn = clique_number_chordal(chordal, order)
    except ValueError:
        raise RuntimeError("triangulated output is not chordal") from None
    if clique_cap is not None and cn > clique_cap:
        raise RuntimeError(
            f"clique number {cn} breaks the guarantee {clique_cap} for k={k}")
    if td.width > cn - 1:
        raise RuntimeError("decomposition width exceeds clique number - 1")
    tri = Triangulation(g, fill_edges, chordal, order, cn)
    return TriangSuccess(tri, td)


def _triang_2way(g: Graph, k: int, search, clique_cap: int,
                 counters: Counters | None) -> TriangOutcome:
    if k < 1:
        raise ValueError("k must be at least 1")
    split = _fixed_k_split(lambda ws: search(ws, k), k, 3 * k + 2, counters)
    return _triangulate(g, k, split, 4 * k, clique_cap)


def triang_2way_23(g: Graph, k: int, *, counters: Counters | None = None) -> TriangOutcome:
    """Two-way driver with two-thirds-balanced separators; width <= 4k+1."""
    return _triang_2way(g, k, two_thirds_vtx_sep, 4 * k + 1, counters)


def triang_2way_half(g: Graph, k: int, *, counters: Counters | None = None) -> TriangOutcome:
    """Two-way driver with half-balanced separators; width <= floor(4.5k)+2."""
    return _triang_2way(g, k, two_way_half_vtx_sep, (9 * k) // 2 + 2, counters)


def triang_3way(g: Graph, k: int, *, alpha: Fraction = DEFAULT_ALPHA,
                counters: Counters | None = None) -> TriangOutcome:
    """Three-way driver with alpha-sum separators; width <= ceil((2a+1)k).

    The recursion is sized by alpha: floor((1+a)k)+1 targets, a base case of
    floor((2a+1)k) vertices and separators of at most floor(a*k).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    bound = math.floor(alpha * k)

    def find(ws: FlowWorkspace) -> Cut | None:
        cut = alpha_sum_sep(ws, k, alpha)
        if cut is not None:
            _check_three_way_contract(cut, bound)
        return cut

    split = _fixed_k_split(find, k, math.floor((1 + alpha) * k) + 1, counters)
    return _triangulate(g, k, split, math.floor((2 * alpha + 1) * k),
                        math.ceil((2 * alpha + 1) * k))


def min_degree_triang(g: Graph) -> tuple[Triangulation, TreeDecomposition]:
    """Min-degree elimination heuristic; always succeeds, no width guarantee.

    Repeatedly removes a vertex of smallest current degree (ties to the
    smallest id) after making a clique of its neighborhood.  The choice comes
    from a lazy heap of (degree, vertex): each neighbor of the removed vertex
    is pushed again with its new degree and outdated entries are skipped.
    """
    n = g.n
    adj = [set(g.adj[v]) for v in range(n)]
    heap = [(len(adj[v]), v) for v in range(n)]
    heapify(heap)
    order: list[int] = []
    bags: list[tuple[int, ...]] = []
    fills: set[tuple[int, int]] = set()
    pos: dict[int, int] = {}
    for step in range(n):
        while True:
            d, v = heappop(heap)
            if v not in pos and d == len(adj[v]):
                break
        nbrs = sorted(adj[v])
        bags.append(vset([v] + nbrs))
        pos[v] = step
        order.append(v)
        for a, b in combinations(nbrs, 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fills.add((a, b))
        for u in nbrs:
            adj[u].discard(v)
            heappush(heap, (len(adj[u]), u))
        adj[v] = set()

    edges = []
    roots = []
    for i, bag in enumerate(bags):
        later = [u for u in bag if pos[u] > i]
        if later:
            parent = min(later, key=lambda u: pos[u])
            edges.append((i, pos[parent]))
        else:
            roots.append(i)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    if not bags:
        bags.append(())

    fill_edges = tuple(sorted(fills))
    chordal = Graph(n, chain(g.edges(), fill_edges)) if fills else g
    cn = max((len(b) for b in bags), default=0)
    tri = Triangulation(g, fill_edges, chordal, tuple(order), cn)
    return tri, TreeDecomposition.from_bags(bags, edges)


def _adaptive_split(flavor: str, counters: Counters):
    """Split closure of adaptive mode: grow the target set until a cut exists.

    Every candidate of the current target set is tried and the smallest
    separator wins, the first of equal ones; with no vertex left to add, the
    node becomes a leaf: a cut whose separator is the whole part.  Once a
    cut is found, each later flow is bounded by one less than its size, so a
    candidate that cannot win ends ``Exceeded`` after that many
    augmentations instead of running to its maximum; a separator of size 0
    ends the round.
    """
    def split(g: Graph, part: Part, boundary: tuple[int, ...]) -> Cut:
        targets = list(boundary)
        best: Cut | None = None
        while True:
            # The target set grows between rounds, so each round has its own
            # flow workspace.
            ws = FlowWorkspace(g, part, targets, counters)
            splits = candidate_splits(counters, len(ws.targets), flavor)
            bound = part.size
            while bound >= 0 and (cut := _first_cut(ws, splits, bound)) is not None:
                best, bound = cut, len(cut.separator) - 1
            if best is not None:
                return best
            # The next target is the smallest member not yet one.
            more = part.smallest(1, targets)
            if not more:
                return Cut(part.members, (), 0, part, 0)
            targets += more
    return split


ALGORITHMS = ("rs4", "half45", "bg367", "mindeg")


def _fixed_k_run(g, algo, k, alpha, counters):
    if algo == "rs4":
        return triang_2way_23(g, k, counters=counters)
    if algo == "half45":
        return triang_2way_half(g, k, counters=counters)
    if algo == "bg367":
        return triang_3way(g, k, alpha=alpha, counters=counters)
    raise ValueError(f"unknown algorithm: {algo}")


def decompose(g: Graph, algo: str, *, k: int | None = None, search: bool = False,
              adaptive: bool = False, alpha: Fraction = DEFAULT_ALPHA,
              graph_name: str = "graph") -> DecomposeResult:
    """Run one algorithm in fixed-k, search, or adaptive mode.

    Search scans k = 1, 2, ... and reports the least k whose run succeeds;
    every failed trial is a sound rejection, so the first success stands.
    Adaptive mode (two-way algorithms only) grows the split set one vertex
    at a time until a minimum cut leaves both sides non-empty, and never
    rejects.  The other algorithms take exactly one of the three modes; the
    min-degree baseline ignores the mode entirely.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algo}")
    if algo != "mindeg" and (k is not None) + bool(search) + bool(adaptive) != 1:
        raise ValueError("exactly one of k=, search=, adaptive= is required")
    alpha = Fraction(alpha)
    counters = Counters()
    start = time.perf_counter()

    if algo == "mindeg":
        tri, td = min_degree_triang(g)
        outcome: TriangOutcome = TriangSuccess(tri, td)
        k_used, mode = 0, "none"
    elif adaptive:
        if algo not in ("rs4", "half45"):
            raise ValueError("adaptive mode supports only the two-way algorithms")
        outcome = _triangulate(g, 0, _adaptive_split(algo, counters), 2, None)
        k_used, mode = 0, "adaptive"
    elif search:
        k_used, mode = 0, "search"
        outcome = TreewidthExceeded(0)
        trial = 1
        while True:
            outcome = _fixed_k_run(g, algo, trial, alpha, counters)
            if isinstance(outcome, TriangSuccess):
                k_used = trial
                break
            trial += 1
    else:
        outcome = _fixed_k_run(g, algo, k, alpha, counters)
        k_used, mode = k, "fixed-k"

    wall_ms = (time.perf_counter() - start) * 1000.0
    width_plus_one = None
    if isinstance(outcome, TriangSuccess):
        width_plus_one = outcome.decomposition.width + 1
    report = AlgoReport(graph_name, g.n, g.m, algo, mode, k_used, width_plus_one,
                        counters.separator_calls, counters.augmentations,
                        round(wall_ms, 3), counters.certified)
    return DecomposeResult(k_used, outcome, report)
