"""Minimum vertex separators between attachment sets, by unit-capacity flow.

Every graph vertex is splittable (capacity one); the two super-terminals are
virtual and uncapacitated.  A separator may therefore contain attachment
vertices: cutting one detaches it from its super-terminal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph, Part, connected_components, vset

_UNSEEN = -1
_ROOT = -2
_FROM_SOURCE = -2
_NO_FLOW = -1
# Translation table taking the side codes 1, 2 and 3 of _verify_cut to 1, so
# its marks compare directly with a part's membership mask.
_LISTED = bytes([0, 1, 1, 1]) + bytes(252)


@dataclass
class Counters:
    """Per-run tallies threaded through the drivers for reporting.

    Both count the flows that actually ran: an isolating cut that bg367
    reuses within one separator search adds nothing.
    """

    separator_calls: int = 0
    augmentations: int = 0


@dataclass(frozen=True)
class TerminalSpec:
    """Attachment sets of the two super-terminals."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "side_a", vset(self.side_a))
        object.__setattr__(self, "side_b", vset(self.side_b))
        if not self.side_a or not self.side_b:
            raise ValueError("terminal attachment sets must be non-empty")
        if set(self.side_a) & set(self.side_b):
            raise ValueError("terminal attachment sets must be disjoint")


@dataclass(frozen=True)
class CutResult:
    separator: tuple[int, ...]
    side1: tuple[int, ...]
    side2: tuple[int, ...]
    augmentations: int


@dataclass(frozen=True)
class Exceeded:
    """The minimum separator is larger than the requested bound."""

    bound: int
    augmentations: int


@dataclass(frozen=True)
class ThreeWayCut:
    separator: tuple[int, ...]
    sides: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    augmentations: int


def _invariant(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"flow invariant violated: {message}")


def min_vertex_separator(g: Graph, terminals: TerminalSpec, bound: int,
                         counters: Counters | None = None,
                         part: Part | None = None) -> CutResult | Exceeded:
    """Minimum vertex cut between the two super-terminals, or Exceeded.

    The cut is taken inside ``part`` (default: all of ``g``).  Returns a
    minimum-cardinality separator of size <= bound if one exists, with side1
    the residual-reachable members and side2 the remainder.  Exceeded is
    reported after bound+1 successful unit augmentations, which certifies
    that every separator is larger than the bound.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if part is None:
        part = Part(g)
    n = g.n
    inside = part.inside
    for v in terminals.side_a + terminals.side_b:
        if not (0 <= v < n and inside[v]):
            raise ValueError(f"terminal vertex out of range: {v}")
    side_a = terminals.side_a
    source_set = frozenset(side_a)
    sink_set = frozenset(terminals.side_b)
    adj = part.adj

    sat = bytearray(n)
    in_flow = [_NO_FLOW] * n
    flow = 0
    augs = 0
    if counters is not None:
        counters.separator_calls += 1

    # Warm start: greedily pack vertex-disjoint source-to-sink paths of one
    # or two edges, each recorded exactly as a BFS augmentation would record
    # it.  Any maximum flow leaves the same residual-reachable set, so the
    # cut below does not depend on where the flow started; the BFS loop
    # reroutes packed paths through its residual back-steps where needed.
    for a in side_a:
        if flow > bound:
            break
        path = None
        for w in adj[a]:
            if w in sink_set and not sat[w]:
                path = (a, w)
                break
        else:
            for v in adj[a]:
                # An unsaturated sink here would have been taken above; a
                # source may still start its own path.
                if sat[v] or v in source_set:
                    continue
                for w in adj[v]:
                    if w in sink_set and not sat[w]:
                        path = (a, v, w)
                        break
                if path:
                    break
        if path:
            for u, v in zip((_FROM_SOURCE,) + path, path):
                in_flow[v] = u
                sat[v] = 1
            flow += 1
            augs += 1

    while flow <= bound:
        # Breadth-first search over residual states; 2v is the entry side of
        # vertex v, 2v+1 its exit side.
        prev = [_UNSEEN] * (2 * n)
        queue = deque()
        for a in side_a:
            s = 2 * a
            if prev[s] == _UNSEEN:
                prev[s] = _ROOT
                queue.append(s)
        goal = -1
        while queue:
            s = queue.popleft()
            v = s >> 1
            if s & 1:
                if v in sink_set:
                    goal = s
                    break
                for w in adj[v]:
                    t = 2 * w
                    if prev[t] == _UNSEEN:
                        prev[t] = s
                        queue.append(t)
                if sat[v]:
                    t = 2 * v
                    if prev[t] == _UNSEEN:
                        prev[t] = s
                        queue.append(t)
            else:
                if not sat[v]:
                    t = 2 * v + 1
                    if prev[t] == _UNSEEN:
                        prev[t] = s
                        queue.append(t)
                u = in_flow[v]
                if u >= 0:
                    t = 2 * u + 1
                    if prev[t] == _UNSEEN:
                        prev[t] = s
                        queue.append(t)
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
            if v == w:
                sat[v] = 0 if s & 1 else 1
            elif (s & 1) and not (t & 1):
                in_flow[w] = v
            elif not (s & 1) and (t & 1) and in_flow[v] == w:
                in_flow[v] = _NO_FLOW
        flow += 1
        augs += 1

    if counters is not None:
        counters.augmentations += augs
    if augs > bound + 1:
        raise RuntimeError("augmentation count exceeded bound + 1")

    if flow > bound:
        return Exceeded(bound, augs)

    separator = []
    side1 = []
    side2 = []
    for v in part.members:
        seen_in = prev[2 * v] != _UNSEEN
        seen_out = prev[2 * v + 1] != _UNSEEN
        if seen_in and not seen_out:
            separator.append(v)
        elif seen_in or seen_out:
            side1.append(v)
        else:
            side2.append(v)
    result = CutResult(tuple(separator), tuple(side1), tuple(side2), augs)
    _verify_cut(g, terminals, result, flow, part)
    return result


def _verify_cut(g: Graph, terminals: TerminalSpec, cut: CutResult, flow: int,
                part: Part) -> None:
    _invariant(len(cut.separator) == flow, "cut size differs from flow value")
    side_of = bytearray(g.n)
    for side, code in ((cut.side1, 1), (cut.side2, 2), (cut.separator, 3)):
        for v in side:
            side_of[v] = code
    # The lists mark exactly the members and hold as many entries as there
    # are members, so they list each member once and nothing else.
    _invariant(
        len(cut.separator) + len(cut.side1) + len(cut.side2) == len(part.members)
        and side_of.translate(_LISTED) == part.inside,
        "separator and sides do not partition the vertices",
    )
    adj = part.adj
    for u in cut.side1:
        for v in adj[u]:
            if side_of[v] == 2:
                _invariant(False, f"edge ({min(u, v)}, {max(u, v)}) crosses the cut")
    _invariant(all(side_of[v] in (1, 3) for v in terminals.side_a),
               "uncut source attachment outside side1")
    _invariant(all(side_of[v] in (2, 3) for v in terminals.side_b),
               "uncut sink attachment outside side2")


def approx_3way_vertex_cut(g: Graph, t1, t2, t3, bound: int,
                           counters: Counters | None = None,
                           part: Part | None = None, *,
                           cuts: dict | None = None) -> ThreeWayCut | Exceeded:
    """Three-way separator by isolating cuts: union of the two cheapest.

    The cut is taken inside ``part`` (default: all of ``g``).  For each group
    the minimum cut isolating it from the union of the other two is computed;
    the union of the two cheapest such cuts separates all three groups
    pairwise.  For single-vertex groups the result is within
    ceil(4/3 * opt) of the optimum.

    ``cuts`` holds isolating cuts already found for groups whose three-way
    union is the same target set, filled in place.  It is keyed by the group
    alone, so one dict serves one target set, bound and part.
    """
    groups = (vset(t1), vset(t2), vset(t3))
    if len(set(groups[0]).union(groups[1], groups[2])) != sum(map(len, groups)):
        raise ValueError("terminal groups must be pairwise disjoint")

    total_augs = 0
    isolating: list[tuple[int, int, tuple[int, ...]]] = []
    exceeded = 0
    for i, grp in enumerate(groups):
        res = cuts.get(grp) if cuts is not None else None
        if res is None:
            # The groups are disjoint, so the other two need no deduplication.
            others = tuple(sorted(groups[i - 1] + groups[i - 2]))
            if not grp or not others:
                isolating.append((0, i, ()))
                continue
            res = min_vertex_separator(g, TerminalSpec(others, grp), bound, counters, part)
            if cuts is not None:
                cuts[grp] = res
        total_augs += res.augmentations
        if isinstance(res, Exceeded):
            exceeded += 1
            continue
        isolating.append((len(res.separator), i, res.separator))
    if exceeded >= 2:
        return Exceeded(bound, total_augs)

    isolating.sort(key=lambda item: (item[0], item[1]))
    union: set[int] = set()
    for size, _, sep in isolating[:2]:
        union |= set(sep)
    if len(union) > bound:
        return Exceeded(bound, total_augs)

    separator = vset(union)
    sides = _split_three_ways(g, separator, groups, part)
    return ThreeWayCut(separator, sides, total_augs)


def _split_three_ways(g, separator, groups, part):
    sep = set(separator)
    survivors = [set(grp) - sep for grp in groups]
    sides: list[list[int]] = [[], [], []]
    for comp in connected_components(g, separator, part):
        comp_set = set(comp)
        owners = [i for i in range(3) if comp_set & survivors[i]]
        _invariant(len(owners) <= 1, "terminal groups share a component")
        target = owners[0] if owners else 1
        sides[target].extend(comp)
    return tuple(vset(side) for side in sides)
