"""Independent correctness machinery: chordality, the clique number of a
chordal graph, decomposition checking and exact treewidth of small graphs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import Iterable

from .graph import Graph

# The most vertices exact_treewidth accepts; its table has 2**n entries.
EXACT_MAX_VERTICES = 14


@dataclass(frozen=True)
class NotChordal:
    """Witness of non-chordality: a chordless cycle of length >= 4."""

    cycle: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: object
    message: str


def _mcs_order(g: Graph) -> list[int]:
    # Maximum cardinality search; ties broken by smallest id.  A lazy heap of
    # (-weight, v), O((n + m) log n): every weight increase pushes a fresh
    # entry, and since weights only grow, a vertex's outdated entries pop
    # after its current one and are skipped as already picked.
    n = g.n
    weight = [0] * n
    picked = [False] * n
    heap = [(0, v) for v in range(n)]
    order = []
    while heap:
        _, best = heappop(heap)
        if picked[best]:
            continue
        picked[best] = True
        order.append(best)
        for w in g.adj[best]:
            if not picked[w]:
                weight[w] += 1
                heappush(heap, (-weight[w], w))
    order.reverse()
    return order


def _peo_failure(g: Graph, order: list[int]):
    # Tarjan-Yannakakis test: for each vertex, its later neighbors minus the
    # earliest must all be adjacent to that earliest neighbor.  Returns the
    # failing triple or None, and the clique number if ``order`` passes.
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    sets: list[set[int] | None] = [None] * g.n  # rows read as sets, once each
    clique = 0
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        clique = max(clique, 1 + len(later))
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        nbrs = sets[u]
        if nbrs is None:
            sets[u] = nbrs = set(g.adj[u])
        for w in later:
            if w != u and w not in nbrs:
                return (v, u, w), clique
    return None, clique


def _chordless_cycle(g: Graph, v: int, u: int, w: int) -> tuple[int, ...]:
    # u and w are non-adjacent neighbours of v.  A shortest u-w path in
    # G - v - (N(v) - {u, w}) is induced and meets N[v] only at its ends, so
    # v followed by it is a chordless cycle of length >= 4.  One BFS, O(n + m).
    blocked = bytearray(g.n)
    for x in g.adj[v]:
        blocked[x] = 1
    blocked[v] = 1
    blocked[w] = 0
    parent = {u: u}
    queue = [u]
    for cur in queue:
        for nxt in g.adj[cur]:
            if blocked[nxt] or nxt in parent:
                continue
            parent[nxt] = cur
            if nxt == w:
                path = [w]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                path.reverse()
                return tuple([v] + path)
            queue.append(nxt)
    raise RuntimeError("no chordless cycle found in a non-chordal graph")


def is_chordal(g: Graph) -> tuple[int, ...] | NotChordal:
    """A perfect elimination ordering, or a chordless-cycle witness."""
    order = _mcs_order(g)
    failure, _ = _peo_failure(g, order)
    if failure is None:
        return tuple(order)
    return NotChordal(_chordless_cycle(g, *failure))


def clique_number_chordal(g: Graph, peo: Iterable[int]) -> int:
    """Clique number of a chordal graph from its elimination ordering."""
    order = list(peo)
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    failure, clique = _peo_failure(g, order)
    if failure is not None:
        raise ValueError("ordering is not a perfect elimination ordering")
    return clique


def check_tree_decomposition(g: Graph, td) -> list[Violation]:
    """All violations of the three decomposition conditions plus tree-ness.

    An index from each vertex to the bags that hold it makes the check
    near-linear: edge coverage scans, for each edge, the shorter of its two
    endpoints' holder lists.  When the tree edges form a tree, a vertex's
    bags are connected exactly when as many tree edges join two of them as
    there are bags less one (a subgraph of a tree is connected if and only
    if it has one edge fewer than nodes), so one set intersection per tree
    edge decides every subtree condition.  Edge sets that are not a tree get
    a search per vertex instead.
    """
    bags = [set(b) for b in td.bags]
    nbags = len(bags)
    out: list[Violation] = []

    holders: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(bags):
        for v in bag:
            if 0 <= v < g.n:
                holders[v].append(i)
            else:
                out.append(Violation("bag-vertex-range", v,
                                     f"bag {i} holds unknown vertex {v}"))

    edges = []
    for a, b in td.tree_edges:
        if not (0 <= a < nbags and 0 <= b < nbags) or a == b:
            out.append(Violation("not-a-tree", (a, b),
                                 f"bad tree edge ({a}, {b})"))
        else:
            edges.append((a, b))
    tree_adj = [[] for _ in range(nbags)]
    for a, b in edges:
        tree_adj[a].append(b)
        tree_adj[b].append(a)
    is_tree = True
    if nbags:
        seen = [False] * nbags
        stack = [0]
        seen[0] = True
        while stack:
            cur = stack.pop()
            for nxt in tree_adj[cur]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        if not all(seen) or len(edges) != nbags - 1:
            is_tree = False
            out.append(Violation("not-a-tree", None,
                                 f"{nbags} bags with {len(edges)} edges do not form a tree"))

    for v in range(g.n):
        if not holders[v]:
            out.append(Violation("uncovered-vertex", v,
                                 f"vertex {v} appears in no bag"))

    for u, v in g.edges():
        hu, hv = holders[u], holders[v]
        scan, other = (hu, v) if len(hu) <= len(hv) else (hv, u)
        for i in scan:
            if other in bags[i]:
                break
        else:
            out.append(Violation("uncovered-edge", (u, v),
                                 f"edge ({u}, {v}) is inside no bag"))

    if is_tree:
        shared = Counter(chain.from_iterable(bags[a] & bags[b] for a, b in edges))
        broken = [v for v in range(g.n) if len(holders[v]) > 1
                  and shared[v] != len(holders[v]) - 1]
    else:
        broken = _broken_subtrees(g.n, bags, edges, holders)
    for v in broken:
        out.append(Violation("broken-subtree", v,
                             f"bags containing vertex {v} are not connected"))
    return out


def _broken_subtrees(n: int, bags: list[set], edges, holders) -> list[int]:
    # The vertices whose bags the tree edges leave unconnected, by a search
    # per vertex over the tree edges whose two bags share it, found by
    # scanning the smaller bag of each edge.
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in edges:
        small, large = sorted((bags[a], bags[b]), key=len)
        for v in small:
            if v in large and 0 <= v < n:
                links[v].append((a, b))
    broken = []
    for v in range(n):
        if len(holders[v]) <= 1:
            continue
        nbrs: dict[int, list[int]] = {}
        for a, b in links[v]:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        seen_h = {holders[v][0]}
        stack = [holders[v][0]]
        while stack:
            for nxt in nbrs.get(stack.pop(), ()):
                if nxt not in seen_h:
                    seen_h.add(nxt)
                    stack.append(nxt)
        if len(seen_h) != len(holders[v]):
            broken.append(v)
    return broken


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth by dynamic programming over elimination prefixes.

    Guarded to n <= EXACT_MAX_VERTICES; the state space is every subset of
    vertices.
    """
    n = g.n
    if n > EXACT_MAX_VERTICES:
        raise ValueError(
            f"exact treewidth oracle is limited to {EXACT_MAX_VERTICES} vertices")
    if n == 0:
        return -1
    nbr = [0] * n
    for v in range(n):
        mask = 0
        for w in g.adj[v]:
            mask |= 1 << w
        nbr[v] = mask

    def bag_size(t: int, v: int) -> int:
        # Vertices outside t reachable from v through eliminated vertices t.
        comp = 1 << v
        reach = nbr[v]
        frontier = reach & t
        while frontier:
            comp |= frontier
            m = frontier
            while m:
                low = m & -m
                reach |= nbr[low.bit_length() - 1]
                m ^= low
            frontier = reach & t & ~comp
        return (reach & ~t & ~(1 << v)).bit_count()

    full = (1 << n) - 1
    width = [0] * (full + 1)
    width[0] = -1
    for s in range(1, full + 1):
        best = n
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rest = s ^ low
            cost = width[rest]
            q = bag_size(rest, v)
            if q > cost:
                cost = q
            if cost < best:
                best = cost
        width[s] = best
    return width[full]
