"""Immutable graphs with sorted adjacency rows, induced parts in root ids and
connected components."""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import Iterable


# Part.handover cuts a surviving row at the removed vertices instead of
# filtering it when the row is longer than this many times the removed set.
_CUT_FACTOR = 16


def vset(vertices: Iterable[int]) -> tuple[int, ...]:
    """Canonical vertex set: ascending tuple, no duplicates."""
    return tuple(sorted(set(vertices)))


class Graph:
    """Simple undirected graph over dense vertex ids 0..n-1.

    Instances are immutable after construction and safe to share between
    concurrent tasks; every operation in this module returns a new value.
    ``adj[v]`` lists v's neighbours as an ascending tuple, which keeps every
    algorithm built on top of this class deterministic.
    """

    __slots__ = ("n", "adj", "m", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u].append(v)
            rows[v].append(u)
        self.n = n
        # Each row sorted, then deduplicated in order by dict keys; every
        # empty row becomes the one shared ().
        self.adj = tuple(map(tuple, map(dict.fromkeys, map(sorted, rows))))
        self.m = sum(map(len, self.adj)) // 2
        self._edges = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u in range(self.n) for v in self.adj[u] if u < v
            )
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Part:
    """The subgraph of ``g`` induced by its members, kept in g's vertex ids.

    ``inside[v]`` is 1 for a member and 0 otherwise, ``size`` counts the
    members, ``adj[v]`` holds member ``v``'s neighbours inside the part in
    ascending order, as a tuple or, once ``handover`` has cut it in place, a
    list (``()`` for every vertex outside the part) and ``m`` is the
    part's edge count.  Without ``members`` every vertex of ``g`` is one.

    No member list is kept: ``members`` builds the ascending tuple from
    ``inside`` on each use, and ``remainder`` the members outside some listed
    vertex sets.
    """

    __slots__ = ("inside", "adj", "m", "size")

    def __init__(self, g: Graph, members: Iterable[int] | None = None):
        members = range(g.n) if members is None else vset(members)
        self.inside = inside = bytearray(g.n)
        for v in members:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex id out of range: {v}")
            inside[v] = 1
        adj = [()] * g.n
        rows = g.adj
        inside_at = inside.__getitem__
        twice_m = 0
        for v in members:
            row = rows[v]
            adj[v] = row = tuple(compress(row, map(inside_at, row)))
            twice_m += len(row)
        self.adj = adj
        self.m = twice_m // 2
        self.size = len(members)

    @property
    def members(self) -> tuple[int, ...]:
        """The members, ascending, read off ``inside``."""
        return self.remainder()

    def remainder(self, *taken: Iterable[int]) -> tuple[int, ...]:
        """The members that are in none of ``taken``, ascending.

        The mark is a copy of ``inside`` between the smallest and the largest
        member, found and read at C speed, so the cost is the listed vertices
        plus one pass over the ids that span the part.
        """
        inside = self.inside
        low = inside.find(1)
        if low < 0:
            return ()
        high = inside.rfind(1) + 1
        keep = bytearray(inside[low:high])
        for piece in taken:
            for v in piece:
                keep[v - low] = 0
        return tuple(compress(range(low, high), keep))

    def smallest(self, count: int, skip: Iterable[int] = ()) -> tuple[int, ...]:
        """The ``count`` smallest members outside ``skip``, ascending (fewer
        when the part runs out)."""
        find = self.inside.find
        skip = set(skip)
        out = []
        v = find(1)
        while v >= 0 and len(out) < count:
            if v not in skip:
                out.append(v)
            v = find(1, v + 1)
        return tuple(out)

    def handover(self, removed: Iterable[int]) -> "Part":
        """The part without the members in ``removed``, built in this part's
        own arrays.

        Each removed member's row is cleared and only the rows of its
        surviving neighbours are changed, so the cost follows the removed
        vertices and their neighbourhood, not the part that remains.  A row
        longer than ``_CUT_FACTOR`` times the removed set (a hub's, losing a
        few leaves) becomes a list, once, and loses the removed vertices in
        place, found by bisection: a memmove per run of them, with no copy of
        the row; any other row is filtered through ``inside`` into a new
        tuple, at most ``_CUT_FACTOR`` lookups per removed vertex.

        This part is spent: its fields are dropped, and any later use raises
        AttributeError.  A ``removed`` with a vertex outside the part is
        refused, and the part is left as it was.
        """
        inside = self.inside
        gone = set(removed)
        for v in gone:
            if not (0 <= v < len(inside) and inside[v]):
                raise ValueError(f"vertex {v} is not a member of the part")
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
        order = sorted(gone)
        long_row = _CUT_FACTOR * len(gone)
        cut_ends = 0
        for w in touched:
            row = adj[w]
            if len(row) > long_row:
                if type(row) is tuple:
                    adj[w] = row = list(row)
                hits = []
                for v in order:
                    i = bisect_left(row, v)
                    if i < len(row) and row[i] == v:
                        hits.append(i)
                cut_ends += len(hits)
                # Delete each run of consecutive positions, the last run first
                # so that the earlier positions stay put: a memmove per run.
                end = len(hits)
                while end:
                    start = end - 1
                    while start and hits[start - 1] == hits[start] - 1:
                        start -= 1
                    del row[hits[start]:hits[end - 1] + 1]
                    end = start
            else:
                adj[w] = kept = tuple(compress(row, map(inside_at, row)))
                cut_ends += len(row) - len(kept)
        # An edge inside the removed set is listed twice in the removed rows,
        # an edge to a survivor once there and once in the survivor's row.
        sub = Part.__new__(Part)
        sub.inside, sub.adj = inside, adj
        sub.m = self.m - (removed_ends + cut_ends) // 2
        sub.size = self.size - len(gone)
        del self.inside, self.adj, self.m, self.size
        return sub


def connected_components(g: Graph, removed: Iterable[int] = (),
                         part: Part | None = None) -> list[tuple[int, ...]]:
    """Components of ``part`` (default: all of ``g``) with ``removed`` deleted,
    ordered by smallest member."""
    if part is None:
        adj, starts = g.adj, range(g.n)
    else:
        adj, starts = part.adj, compress(range(g.n), part.inside)
    gone = set(vset(removed))
    for v in gone:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id out of range: {v}")
    seen = bytearray(g.n)
    for v in gone:
        seen[v] = 1
    comps = []
    for start in starts:
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

