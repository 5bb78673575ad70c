"""Brute-force oracles for small graphs, independent of the library's flows
and dynamic programs.  Each is exhaustive and guarded to the sizes where that
stays fast: separators to n <= 10 and elimination orders to n <= 9.  The
full-scan three-way split is the reference for the library's searches that
skip the largest side, and the two candidate generators, over target tuples,
the reference order of the two-way searches.  The certificate ruling and the
one-candidate split, as a workspace method and a loop of its own, and the
partitions of the three-way search with its collapsed pairs among them, are
the references for the library's one ruling loop.  The three-way cut of
bounded isolating flows, each kept per (group, bound) and left out when it
exceeds the bound, is the reference for the exact cuts kept per group."""

from itertools import combinations

from twdecomp import Cut, Exceeded, connected_components, min_vertex_separator, vset
from twdecomp.flow import _split_three_ways


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


def _check_side_masks(side_a, side_b, sources: int, sinks: int) -> None:
    """ValueError unless the sides, of target masks ``sources`` and
    ``sinks``, are disjoint and free of repeats."""
    if sources & sinks:
        raise ValueError("terminal attachment sets must be disjoint")
    if sources.bit_count() != len(side_a) or sinks.bit_count() != len(side_b):
        raise ValueError("terminal attachment sets must not repeat a vertex")


def reference_certified(ws, side_a, side_b, bound: int) -> bool:
    """True when a kept certificate shows that every separator between
    the sides has more than ``bound`` vertices: every region of some
    certificate of that bound holds a target of each side.

    A ruling stands only for sides that a flow accepts: they are checked
    as a flow checks them (``ValueError``) before True is returned.  Sides
    that no certificate rules out, and sides that hold a vertex that is
    not a target, are left to the flow, which checks them itself, so
    every pair of sides is checked once.  A ruling reads each vertex of
    the sides once: its target position, then one lookup and one OR give
    both its region bits and its target bit, which the checks read.  Then
    five big-int operations test every kept certificate of the bound at once.
    """
    certs = ws.certs.get(bound)
    if certs is None:
        return False
    on = certs.on
    position = {t: i for i, t in enumerate(ws.targets)}
    a = b = 0
    try:
        for v in side_a:
            a |= on[position[v]]
        for v in side_b:
            b |= on[position[v]]
    except KeyError:
        return False
    both = a & b
    # A field is all ones exactly when adding its lowest bit to its lower
    # bits carries into its top bit and that top bit is set; the target
    # bits below the fields are outside ``low`` and ``high``.
    if not ((both & certs.low) + certs.one) & both & certs.high:
        return False
    # A ruled-out side holds a target, so it is not empty.
    targets = (1 << certs.width) - 1
    _check_side_masks(side_a, side_b, a & targets, b & targets)
    return True


def reference_try_split(ws, group_a: tuple[int, ...], group_b: tuple[int, ...],
                        bound: int):
    """One candidate split: minimum cut between the two groups' super-terminals,
    where the groups are disjoint tuples of the workspace's targets.

    Each super-terminal attaches to every vertex of its group, so edges inside
    a group cannot change the cut.  Returns None when the minimum cut exceeds
    the bound or leaves one side empty; both are normal outcomes.  A
    candidate that a kept certificate already rules out returns None without
    a flow, once its groups have passed the checks the flow makes.
    """
    if reference_certified(ws, group_a, group_b, bound):
        ws.counters.certified += 1
        return None
    cut = min_vertex_separator(ws, (group_a, group_b), bound)
    if isinstance(cut, Exceeded) or not all(cut.sizes()):
        return None
    return cut


def reference_three_partitions(w: tuple[int, ...], k: int):
    """Ordered 3-partitions of the targets ``w`` with floor(|w|/2) >= |p1| >=
    |p2| >= |p3|.

    Yields (first, complement) as target tuples once per first part when
    |p1| > k, otherwise (first, second, third) as target masks (bit ``i`` is
    ``w[i]``); sizes descend, subsets ascend in combinadic order.
    """
    size = len(w)
    bits = [1 << i for i in range(size)]
    full = (1 << size) - 1
    for s1 in range(size // 2, -(-size // 3) - 1, -1):
        if s1 <= 0:
            continue
        if s1 > k:
            for first in combinations(w, s1):
                chosen = set(first)
                yield first, tuple(v for v in w if v not in chosen)
            continue
        rest_size = size - s1
        hi = min(s1, rest_size)
        lo = -(-rest_size // 2)
        for s2 in range(hi, lo - 1, -1):
            for first in combinations(bits, s1):
                mask = sum(first)
                rest = full ^ mask
                for second in combinations([b for b in bits if b & rest], s2):
                    second_mask = sum(second)
                    yield mask, second_mask, rest ^ second_mask


def reference_isolating_union(ws, masks, bound: int):
    """The union, as a mask over ``ws.sep_ids``, of the two cheapest
    isolating cuts of three groups of targets, given by their masks, or None
    when two of the cuts exceed ``bound``.

    Each cut is a flow from the other targets to the group, bounded by
    ``bound``, kept in ``ws.cuts`` under (group mask, bound) as (separator,
    separator mask), or None when it exceeds the bound.  The cheapest cuts
    are the two smallest kept ones, the earlier group first among equal
    sizes; an empty group needs no cut and costs nothing.
    """
    full = (1 << len(ws.targets)) - 1
    kept = []
    for mask in masks:
        if mask == 0 or mask == full:
            kept.append(((), 0))
            continue
        key = (mask, bound)
        if key not in ws.cuts:
            group = ws.targets_of(mask)
            others = ws.targets_of(full ^ mask)
            res = min_vertex_separator(ws, (others, group), bound, separator_only=True)
            cut = None
            if not isinstance(res, Exceeded):
                sep_mask = 0
                for v in res.separator:
                    if v not in ws.sep_bit:
                        ws.sep_bit[v] = 1 << len(ws.sep_ids)
                        ws.sep_ids.append(v)
                    sep_mask |= ws.sep_bit[v]
                cut = res.separator, sep_mask
            ws.cuts[key] = cut
        if ws.cuts[key] is not None:
            kept.append(ws.cuts[key])
    if len(kept) < 2:
        return None
    # Drop the costliest of three: the largest, the later one of equals.
    kept = sorted(enumerate(kept), key=lambda item: (len(item[1][0]), item[0]))[:2]
    return kept[0][1][1] | kept[1][1][1]


def reference_approx_3way_vertex_cut(ws, t1, t2, t3, bound: int):
    """The three-way cut of ``reference_isolating_union``: Exceeded when the
    union is None or exceeds ``bound``, else the union as separator, with
    the sides that ``flow._split_three_ways`` lists.  ``ws`` must hold no
    cut of the library's own kind."""
    groups = (t1, t2, t3)
    union = reference_isolating_union(ws, [ws.mask(grp) for grp in groups], bound)
    if union is None or union.bit_count() > bound:
        return Exceeded(bound, 0)
    separator = vset(v for i, v in enumerate(ws.sep_ids) if union >> i & 1)
    listed, rest_at = _split_three_ways(ws.part, separator, groups)
    return Cut(separator, listed, 0, ws.part, rest_at)
