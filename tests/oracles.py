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
exceeds the bound, is the reference for the exact cuts kept per group.  The
flow that builds each augmenting path forward before applying it, and whose
search filters a dead flow's rows itself, is the reference for the flow that
applies each path while walking it back."""

from itertools import combinations

from twdecomp import (Cut, Exceeded, FlowWorkspace, connected_components,
                      min_vertex_separator, vset)
from twdecomp.flow import (_FROM_SOURCE, _NO_FLOW, _ROOT, _SINK, _SOURCE, _UNSEEN,
                           _keep_certificate, _split_three_ways, _verify_cut,
                           _verify_separator)


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


def reference_augmenting_search(adj, role, sat, in_flow, prev, queue: list[int], dead) -> int:
    """The augmenting search as it ran while it tested every source exit for
    a dead flow itself, kept verbatim as the reference for
    ``flow._augmenting_search``.

    One breadth-first search over the residual states from the roots in
    ``queue``, which lists every state reached, each with its ``prev``:
    the exit state (2v+1; 2v is v's entry) of the first free sink it
    reaches, or -1.  No flow path continues past a sink, so a free sink's
    exit is reached from its own entry only: the search ends when it pushes
    that entry, and pushes the exit after it, which a FIFO search that went
    on would pop first, with the same ``prev`` chain.  A source's entry is a
    root, so a pushed target entry is a sink's.  A free vertex carries no
    flow, so its entry leads only to its exit, which nothing else reaches.

    ``dead`` holds the targets when the flow is dead (see
    ``reference_min_vertex_separator``), else it is None.  A dead flow's non-targets
    carry no flow and touch sources and non-targets only, so their states
    lead back to source entry states alone, which are roots: the search
    expands only the target neighbours of a source's exit, which changes
    neither the order in which the other states are found nor their
    ``prev`` entries.
    """
    push = queue.append
    for s in queue:
        v = s >> 1
        if s & 1:
            row = adj[v]
            if dead and role[v]:
                row = [w for w in row if w in dead]
            for w in row:
                t = 2 * w
                if prev[t] == _UNSEEN:
                    prev[t] = s
                    push(t)
                    if role[w] and not sat[w]:
                        prev[t + 1] = t
                        push(t + 1)
                        return t + 1
            if sat[v]:
                t = 2 * v
                if prev[t] == _UNSEEN:
                    prev[t] = s
                    push(t)
        elif not sat[v]:
            prev[s + 1] = s
            push(s + 1)
        else:
            u = in_flow[v]
            if u >= 0:
                t = 2 * u + 1
                if prev[t] == _UNSEEN:
                    prev[t] = s
                    push(t)
    return -1


def reference_min_vertex_separator(ws: FlowWorkspace, terminals, bound: int, *,
                                   separator_only: bool = False) -> Cut | Exceeded:
    """``flow.min_vertex_separator`` as it ran while each flow built its
    augmenting path forward, reversed it and then applied it, and its
    search filtered a dead flow's rows itself: kept verbatim but for the
    search's name, as the reference for the flow that applies each path
    while walking it back.

    Minimum vertex cut between the two super-terminals, or Exceeded.

    ``terminals`` is a pair of sides, each a non-empty sequence of distinct
    targets of ``ws``, and the cut is taken inside ``ws.part``.  Returns a
    minimum-cardinality separator of size <= bound if one exists, with its
    one listed side the residual-reachable members, listed from the last
    breadth-first search, and the remainder left as the cut's rest.  Exceeded is
    reported after bound+1 successful unit augmentations, which certifies
    that every separator is larger than the bound.  The result does not
    depend on the order of a side; ascending sides make the warm start pack
    the smallest ids first.

    With ``separator_only`` (an isolating cut, whose sides no caller reads)
    the cut lists no side: only its separator and ``augmentations`` carry
    meaning.  Such a flow is dead when its sources hold every bit of
    ``ws.attached``, the targets next to a non-target member: every
    non-target member then touches sources and other non-targets only,
    carries no flow and lies on the reached side, so the searches leave all
    of them out (see ``reference_augmenting_search``).  The augmenting
    paths, the certificates, the counts and the cut stay exactly those of a search
    that enters them.  The flow's conditions are checked on its search
    state by ``_verify_separator``, which counts a dead flow's non-targets
    and scans the smaller side, not a listed one.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    side_a, side_b = terminals
    sources, free = ws.side_masks(side_a, side_b)

    part = ws.part
    adj = part.adj
    targets = ws.targets
    rows = ws.rows
    near = ws.near
    arrays = ws.arrays
    role = arrays.role
    sat = arrays.sat
    in_flow = arrays.in_flow
    prev = arrays.prev
    counters = ws.counters
    # Vertices other than the terminals whose ``sat`` or ``in_flow`` entry
    # this flow may set, and the states whose ``prev`` entry is set.
    touched: list[int] = []
    queue: list[int] = []
    # The targets, by ``bit_of``, when the flow is dead, else None.
    dead = None
    if separator_only:
        attached = ws.attached
        if attached is None:
            # A target is attached when its row holds more than its targets.
            attached = 0
            for t, bit in ws.bit_of.items():
                if len(adj[t]) > near[t].bit_count():
                    attached |= bit
            ws.attached = attached
        if not attached & ~sources:
            dead = ws.bit_of
    flow = 0
    counters.separator_calls += 1

    try:
        for v in side_a:
            role[v] = _SOURCE
        for v in side_b:
            role[v] = _SINK

        # Warm start: greedily pack vertex-disjoint source-to-sink paths of
        # one or two edges, each recorded exactly as a BFS augmentation would
        # record it.  ``free`` masks the unsaturated sinks, and its lowest bit
        # is the smallest id, as an ascending scan of the rows would find it.
        # Any maximum flow leaves the same residual-reachable set, so the cut
        # below does not depend on where the flow started; the BFS loop
        # reroutes packed paths through its residual back-steps where needed.
        for a in side_a:
            if flow > bound or not free:
                break
            hit = near[a] & free
            if hit:
                low = hit & -hit
                w = targets[low.bit_length() - 1]
                in_flow[w] = a
            else:
                row = rows.get(a)
                if row is None:
                    row = ws.two_hop(a)
                for v, mask in row:
                    # An unsaturated sink here would have been taken above; a
                    # source may still start its own path.
                    hit = mask & free
                    if hit and not sat[v] and role[v] != _SOURCE:
                        break
                else:
                    continue
                low = hit & -hit
                w = targets[low.bit_length() - 1]
                in_flow[v] = a
                sat[v] = 1
                in_flow[w] = v
                touched.append(v)
            in_flow[a] = _FROM_SOURCE
            sat[a] = 1
            sat[w] = 1
            free ^= low
            flow += 1

        while flow <= bound:
            # One breadth-first search; the queue, never popped, lists every
            # state whose ``prev`` entry it set.
            queue = [2 * a for a in side_a]
            for s in queue:
                prev[s] = _ROOT
            goal = reference_augmenting_search(adj, role, sat, in_flow, prev, queue, dead)
            if goal < 0:
                break

            path = []
            s = goal
            while s != _ROOT:
                path.append(s)
                s = prev[s]
            path.reverse()
            in_flow[path[0] >> 1] = _FROM_SOURCE
            for i in range(len(path) - 1):
                s, t = path[i], path[i + 1]
                v, w = s >> 1, t >> 1
                touched.append(w)
                if v == w:
                    sat[v] = 0 if s & 1 else 1
                elif (s & 1) and not (t & 1):
                    in_flow[w] = v
                elif not (s & 1) and (t & 1) and in_flow[v] == w:
                    in_flow[v] = _NO_FLOW
            for s in queue:
                prev[s] = _UNSEEN
            queue = []
            flow += 1

        counters.augmentations += flow
        if flow > bound + 1:
            raise RuntimeError("augmentation count exceeded bound + 1")
        if flow > bound:
            _keep_certificate(ws, side_b, flow, bound)
            return Exceeded(bound, flow)

        # The last search reached no sink, and its queue lists every state it
        # reached: a vertex whose exit side was reached is residual-reachable,
        # one reached at its entry side only is cut.  A cut vertex carries
        # flow (an unsaturated one's entry leads to its exit), so it is a
        # terminal or a vertex the flow touched.  The rest of the part is the
        # cut's rest, which the flow never lists.
        separator = sorted({v for side in (side_a, side_b, touched) for v in side
                            if prev[2 * v] != _UNSEEN and prev[2 * v + 1] == _UNSEEN})
        if separator_only:
            _verify_separator(part, prev, queue, separator, side_a, side_b, flow, dead)
        else:
            side1 = sorted([s >> 1 for s in queue if s & 1])
    finally:
        # Hand the scratch arrays back clean.
        for s in queue:
            prev[s] = _UNSEEN
        for side in (side_a, side_b, touched):
            for v in side:
                role[v] = 0
                sat[v] = 0
                in_flow[v] = _NO_FLOW
    if separator_only:
        return Cut(tuple(separator), (), flow, part, 0)
    result = Cut(tuple(separator), (tuple(side1),), flow, part, 1)
    _verify_cut(side_a, side_b, result, flow)
    return result
