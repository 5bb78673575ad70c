"""Synthetic graph families for tests and benchmarks."""

from __future__ import annotations

import random

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    def at(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                edges.append((at(r, c), at(r + 1, c)))
    return Graph(rows * cols, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def gnp_connected(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi graph patched up to connectivity with random tree edges."""
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in edges:
        comp[find(u)] = find(v)
    for v in range(1, n):
        if find(v) != find(0):
            u = rng.randrange(v)
            edges.add((u, v))
            comp[find(u)] = find(v)
    return Graph(n, sorted(edges))


def k_tree(n: int, k: int, rng: random.Random) -> Graph:
    """Random k-tree: each new vertex is attached to an existing k-clique."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if n < k + 1:
        raise ValueError("a k-tree needs at least k+1 vertices")
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [tuple(c for c in range(k + 1) if c != out) for out in range(k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        for u in base:
            edges.append((u, v))
        # Every clique is ascending and v exceeds its members, so dropping
        # one member and appending v keeps the new clique ascending.
        for i in range(len(base)):
            cliques.append(base[:i] + base[i + 1:] + (v,))
    return Graph(n, edges)


def partial_k_tree(n: int, k: int, drop_fraction: float, rng: random.Random) -> Graph:
    """Connected subgraph of a random k-tree with a fraction of edges removed.

    Edges are tried in a shuffled order and an edge is dropped unless an end
    has degree 1 or dropping it disconnects the graph, until
    ``int(drop_fraction * m)`` are gone. Each try costs about twice the
    smaller side of the cut it would make (see ``_joined``), not a search
    of the whole graph."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0 <= drop_fraction <= 1:
        raise ValueError("drop_fraction must be between 0 and 1")
    g = k_tree(n, k, rng)
    candidates = list(set(g.edges()))
    rng.shuffle(candidates)
    to_drop = int(g.m * drop_fraction)
    adj = [set(row) for row in g.adj]
    dropped = 0
    for u, v in candidates:
        if dropped >= to_drop:
            break
        if len(adj[u]) <= 1 or len(adj[v]) <= 1:
            continue
        adj[u].discard(v)
        adj[v].discard(u)
        if _joined(adj, u, v):
            dropped += 1
        else:
            adj[u].add(v)
            adj[v].add(u)
    return Graph(n, ((u, w) for u in range(n) for w in adj[u] if u < w))


def _joined(adj, u: int, v: int) -> bool:
    """Whether a path joins ``u`` and ``v`` in the graph of rows ``adj``.

    Two searches, one from each end, take turns at reading one row each.
    They meet exactly when a path joins the ends; otherwise the one on the
    smaller side runs dry first, so about twice that side's rows are read at
    most (Even and Shiloach's on-line edge deletion). The first turn of each
    reads its end's row, and a shared neighbour, the usual case in a partial
    k-tree, is found there by one set test."""
    near_u, near_v = adj[u], adj[v]
    if not near_u.isdisjoint(near_v):
        return True
    side = dict.fromkeys(near_u, 0) | dict.fromkeys(near_v, 1) | {u: 0, v: 1}
    stacks = (list(near_u), list(near_v))
    while True:
        for s, stack in enumerate(stacks):
            if not stack:
                return False
            for w in adj[stack.pop()]:
                t = side.get(w)
                if t is None:
                    side[w] = s
                    stack.append(w)
                elif t != s:
                    return True
