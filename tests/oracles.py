"""Brute-force oracles for small graphs, independent of the library's flows
and dynamic programs.  Each is exhaustive and guarded to the sizes where that
stays fast: separators to n <= 10 and elimination orders to n <= 9.  The
full-scan three-way split is the reference for the library's searches that
skip the largest side, and the two candidate generators, over target tuples,
the reference order of the two-way searches."""

from itertools import combinations

from twdecomp import connected_components, vset


def two_thirds_candidates(w: tuple[int, ...]):
    """Every ceil(|w|/2)-subset of ``w`` against every ceil(|w|/3)-subset of
    the rest, in ascending combinadic order: the rs4 search's candidates."""
    size = len(w)
    if size < 2:
        return
    for first in combinations(w, -(-size // 2)):
        chosen = set(first)
        rest = tuple(v for v in w if v not in chosen)
        for second in combinations(rest, -(-size // 3)):
            yield first, second


def half_candidates(w: tuple[int, ...]):
    """Every ceil(|w|/2)-subset of ``w`` against its complement, in ascending
    combinadic order: the half45 search's candidates."""
    size = len(w)
    if size < 2:
        return
    for first in combinations(w, -(-size // 2)):
        chosen = set(first)
        yield first, tuple(v for v in w if v not in chosen)


def permutation_treewidth(g) -> int:
    """Treewidth by backtracking over explicit elimination orders (n <= 9).

    Simulates fill-in directly on adjacency sets, independent of the subset
    dynamic program, so it serves as its ground anchor.
    """
    n = g.n
    if n > 9:
        raise ValueError("permutation oracle is limited to 9 vertices")
    if n == 0:
        return -1

    def feasible(adj: dict[int, set[int]], limit: int) -> bool:
        if not adj:
            return True
        for v in sorted(adj):
            if len(adj[v]) > limit:
                continue
            nxt = {u: set(s) for u, s in adj.items() if u != v}
            for a in adj[v]:
                for b in adj[v]:
                    if a != b:
                        nxt[a].add(b)
            for u in adj[v]:
                nxt[u].discard(v)
            if feasible(nxt, limit):
                return True
        return False

    base = {v: set(g.adj[v]) for v in range(n)}
    for limit in range(n):
        if feasible(base, limit):
            return limit
    return n - 1


def _groups_disconnected(g, cut: set[int], groups) -> bool:
    live = [set(grp) - cut for grp in groups]
    seen = set(cut)
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in g.adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    stack.append(nxt)
        if sum(1 for grp in live if comp & grp) > 1:
            return False
    return True


def brute_force_min_separator(g, groups) -> int | float:
    """Fewest vertices whose removal leaves no path between two of ``groups``.

    ``groups`` holds two or three vertex sets; a removed vertex leaves its
    group.  Exhaustive over every vertex subset, smallest first; guarded to
    n <= 10.
    """
    if g.n > 10:
        raise ValueError("brute-force separator oracle is limited to 10 vertices")
    gsets = [set(grp) for grp in groups]
    for size in range(g.n + 1):
        for cut in combinations(range(g.n), size):
            if _groups_disconnected(g, set(cut), gsets):
                return size
    return float("inf")


def max_disjoint_paths(g, side_a, side_b) -> int:
    """Largest set of fully vertex-disjoint paths between the two sets.

    Backtracking path packing; intended for graphs of at most ~10 vertices.
    """
    a = sorted(set(side_a))
    b = set(side_b)

    def extend(used: set[int], start_index: int, count: int) -> int:
        best = count
        for i in range(start_index, len(a)):
            src = a[i]
            if src in used:
                continue
            stack = [(src, [src])]
            seen_paths = []
            while stack:
                cur, path = stack.pop()
                if cur in b:
                    seen_paths.append(path)
                    continue
                for nxt in g.adj[cur]:
                    if nxt in used or nxt in path:
                        continue
                    stack.append((nxt, path + [nxt]))
            for path in seen_paths:
                best = max(best, extend(used | set(path), i + 1, count + 1))
        return best

    return extend(set(), 0, 0)


def split_three_ways_by_components(g, part, separator, groups):
    """The three sides of ``part`` minus ``separator`` from all of its
    components: each goes to the group whose survivors it holds, to side 1
    when it holds none; RuntimeError when one holds survivors of two groups."""
    sep = set(separator)
    survivors = [set(grp) - sep for grp in groups]
    sides = [[], [], []]
    for comp in connected_components(g, separator, part):
        comp_set = set(comp)
        owners = [i for i in range(3) if comp_set & survivors[i]]
        if len(owners) > 1:
            raise RuntimeError("flow invariant violated: terminal groups share a component")
        sides[owners[0] if owners else 1].extend(comp)
    return tuple(vset(side) for side in sides)
