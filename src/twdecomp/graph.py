"""Immutable adjacency-set graphs, induced subgraphs and connected components."""

from __future__ import annotations

from typing import Iterable


def vset(vertices: Iterable[int]) -> tuple[int, ...]:
    """Canonical vertex set: ascending tuple, no duplicates."""
    return tuple(sorted(set(vertices)))


class Graph:
    """Simple undirected graph over dense vertex ids 0..n-1.

    Instances are immutable after construction and safe to share between
    concurrent tasks; every operation in this module returns a new value.
    Neighbor iteration order is ascending, which keeps every algorithm
    built on top of this class deterministic.
    """

    __slots__ = ("n", "adj", "adj_sorted", "m", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self._init_from_sets(n, sets)

    def _init_from_sets(self, n: int, sets: list[set[int]]) -> None:
        self.n = n
        self.adj = tuple(frozenset(s) for s in sets)
        self.adj_sorted = tuple(tuple(sorted(s)) for s in sets)
        self.m = sum(len(s) for s in sets) // 2
        self._edges = None

    @classmethod
    def _from_parts(cls, n, adj, adj_sorted, m) -> "Graph":
        g = cls.__new__(cls)
        g.n = n
        g.adj = adj
        g.adj_sorted = adj_sorted
        g.m = m
        g._edges = None
        return g

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u in range(self.n) for v in self.adj_sorted[u] if u < v
            )
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class SubgraphView:
    """An induced subgraph together with the local/parent id mapping.

    ``kept[i]`` is the parent id of local vertex ``i``; the mapping is a
    bijection on the kept vertices and both directions round-trip.
    """

    __slots__ = ("kept", "graph", "_to_local")

    def __init__(self, kept: tuple[int, ...], graph: Graph, to_local: dict[int, int]):
        self.kept = kept
        self.graph = graph
        self._to_local = to_local

    def local(self, parent_vertex: int) -> int:
        return self._to_local[parent_vertex]

    def parent_id(self, local_vertex: int) -> int:
        return self.kept[local_vertex]


def induced_subgraph(g: Graph, keep: Iterable[int]) -> SubgraphView:
    """View of the subgraph induced by ``keep``, with dense local ids."""
    kept = vset(keep)
    for v in kept:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id out of range: {v}")
    to_local = {p: i for i, p in enumerate(kept)}
    adj_sorted = []
    m2 = 0
    for p in kept:
        row = tuple(to_local[q] for q in g.adj_sorted[p] if q in to_local)
        m2 += len(row)
        adj_sorted.append(row)
    local = Graph._from_parts(
        len(kept),
        tuple(frozenset(row) for row in adj_sorted),
        tuple(adj_sorted),
        m2 // 2,
    )
    return SubgraphView(kept, local, to_local)


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Components of ``g`` with ``removed`` deleted, ordered by smallest member."""
    gone = set(vset(removed))
    for v in gone:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id out of range: {v}")
    seen = bytearray(g.n)
    for v in gone:
        seen[v] = 1
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adj_sorted[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def within_edge_budget(g: Graph, k: int) -> bool:
    """Edge-count sanity bound: a graph of treewidth at most k-1 has m <= n*k."""
    return g.m <= g.n * k
