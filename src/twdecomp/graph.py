"""Immutable adjacency-set graphs, induced parts in root ids and connected
components."""

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
        self.n = n
        self.adj = tuple(frozenset(s) for s in sets)
        self.adj_sorted = tuple(tuple(sorted(s)) for s in sets)
        self.m = sum(len(s) for s in sets) // 2
        self._edges = None

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


class Part:
    """The subgraph of ``g`` induced by ``members``, kept in g's vertex ids.

    ``adj[v]`` holds member ``v``'s neighbours inside the part in ascending
    order, and ``()`` for every vertex outside it; ``inside[v]`` is 1 for a
    member and 0 otherwise; ``m`` is the part's edge count.  Without
    ``members`` the part is the whole graph and shares its rows.
    """

    __slots__ = ("members", "inside", "adj", "m")

    def __init__(self, g: Graph, members: Iterable[int] | None = None):
        if members is None:
            self.members = range(g.n)
            self.inside = b"\x01" * g.n
            self.adj = g.adj_sorted
            self.m = g.m
            return
        self.members = vset(members)
        self.inside = inside = bytearray(g.n)
        for v in self.members:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex id out of range: {v}")
            inside[v] = 1
        adj = [()] * g.n
        twice_m = 0
        for v in self.members:
            row = tuple(w for w in g.adj_sorted[v] if inside[w])
            adj[v] = row
            twice_m += len(row)
        self.adj = adj
        self.m = twice_m // 2


def connected_components(g: Graph, removed: Iterable[int] = (),
                         part: Part | None = None) -> list[tuple[int, ...]]:
    """Components of ``part`` (default: all of ``g``) with ``removed`` deleted,
    ordered by smallest member."""
    if part is None:
        part = Part(g)
    adj = part.adj
    gone = set(vset(removed))
    for v in gone:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id out of range: {v}")
    seen = bytearray(g.n)
    for v in gone:
        seen[v] = 1
    comps = []
    for start in part.members:
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps

