"""Immutable adjacency-set graphs, induced parts in root ids and connected
components."""

from __future__ import annotations

from itertools import compress
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
        rows = g.adj_sorted
        inside_at = inside.__getitem__
        twice_m = 0
        for v in self.members:
            row = rows[v]
            adj[v] = row = tuple(compress(row, map(inside_at, row)))
            twice_m += len(row)
        self.adj = adj
        self.m = twice_m // 2

    def handover(self, members: Iterable[int]) -> "Part":
        """The part on ``members``, a subset of this part's members, built in
        this part's own arrays.

        Each removed member's row is cleared and only the rows of its
        surviving neighbours are filtered again, so the cost follows the
        removed vertices and their neighbourhood rather than the sub-part.
        This part is spent: its fields are dropped, and any later use raises
        AttributeError.  A whole-graph part shares its graph's rows, so it
        refuses, as does a ``members`` with a vertex outside the part.
        """
        if isinstance(self.members, range):
            raise ValueError("a whole-graph part shares its graph's rows")
        members = vset(members)
        inside = self.inside
        gone = set(self.members).difference(members)
        if len(self.members) - len(gone) != len(members):
            stray = next(v for v in members if not (0 <= v < len(inside) and inside[v]))
            raise ValueError(f"vertex {stray} is not a member of the part")
        adj = self.adj
        touched = set()
        removed_ends = 0
        for v in gone:
            inside[v] = 0
            row = adj[v]
            removed_ends += len(row)
            touched.update(row)
            adj[v] = ()
        touched.difference_update(gone)
        inside_at = inside.__getitem__
        cut_ends = 0
        for w in touched:
            row = adj[w]
            adj[w] = kept = tuple(compress(row, map(inside_at, row)))
            cut_ends += len(row) - len(kept)
        # An edge inside the removed set is listed twice in the removed rows,
        # an edge to a survivor once there and once in the survivor's row.
        m = self.m - (removed_ends + cut_ends) // 2
        del self.members, self.inside, self.adj, self.m
        sub = Part.__new__(Part)
        sub.members, sub.inside, sub.adj, sub.m = members, inside, adj, m
        return sub


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

