"""Minimum vertex separators between attachment sets, by unit-capacity flow.

Every graph vertex is splittable (capacity one); the two super-terminals are
virtual and uncapacitated.  A separator may therefore contain attachment
vertices: cutting one detaches it from its super-terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, Part, connected_components, vset

_UNSEEN = -1
_ROOT = -2
_FROM_SOURCE = -2
_NO_FLOW = -1
# Marks of FlowWorkspace.role.
_SOURCE = 1
_SINK = 2
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

    def __iter__(self):
        return iter((self.side_a, self.side_b))


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


class FlowWorkspace:
    """Scratch state shared by every flow between subsets of one target set.

    A separator search asks for a minimum cut between many pairs of disjoint
    subsets of the same targets inside the same part.  The workspace checks
    the targets against the part once, numbers them (target ``i`` of the
    ascending targets is bit ``1 << i``) and records in ``near[v]`` the mask
    of targets next to each vertex ``v``.  The warm start then packs one- and
    two-edge paths by mask: a source's direct path is ``near[a] & free``,
    where ``free`` holds the unsaturated sinks, and its two-hop paths scan
    the row ``[(v, near[v]), ...]`` of its neighbours that touch a target,
    built the first time the source needs it and kept for later flows.

    The flow arrays ``sat``, ``in_flow`` and ``prev`` and the ``role`` marks
    of the current sources and sinks are allocated once, sized to ``g``, and
    every flow hands them back clean: it resets exactly the vertices it
    touched and the states its breadth-first searches queued.  A workspace
    is therefore used by one flow at a time.
    """

    __slots__ = ("g", "part", "targets", "bit_of", "near", "rows", "role",
                 "sat", "in_flow", "prev")

    def __init__(self, g: Graph, part: Part | None, targets: Iterable[int]):
        if part is None:
            part = Part(g)
        n = g.n
        inside = part.inside
        adj = part.adj
        self.g = g
        self.part = part
        self.targets = w = vset(targets)
        self.bit_of = bit_of = {}
        self.near = near = [0] * n
        bit = 1
        for t in w:
            if not (0 <= t < n and inside[t]):
                raise ValueError(f"terminal vertex out of range: {t}")
            bit_of[t] = bit
            for v in adj[t]:
                near[v] |= bit
            bit <<= 1
        self.rows = {}
        self.role = bytearray(n)
        self.sat = bytearray(n)
        self.in_flow = [_NO_FLOW] * n
        self.prev = [_UNSEEN] * (2 * n)


def min_vertex_separator(g: Graph, terminals, bound: int,
                         counters: Counters | None = None,
                         part: Part | None = None, *,
                         workspace: FlowWorkspace | None = None) -> CutResult | Exceeded:
    """Minimum vertex cut between the two super-terminals, or Exceeded.

    The cut is taken inside ``part`` (default: all of ``g``).  Returns a
    minimum-cardinality separator of size <= bound if one exists, with side1
    the residual-reachable members and side2 the remainder.  Exceeded is
    reported after bound+1 successful unit augmentations, which certifies
    that every separator is larger than the bound.

    ``terminals`` is a ``TerminalSpec`` or a pair of vertex sequences.
    ``workspace`` serves flows whose sides are subsets of its targets inside
    its part; each side must then list distinct targets, in ascending order
    for the warm start to pack the smallest ids first.  Without one, a
    workspace over the terminals alone is built for this call.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if workspace is None:
        if not isinstance(terminals, TerminalSpec):
            terminals = TerminalSpec(*terminals)
        side_a, side_b = terminals
        workspace = FlowWorkspace(g, part, side_a + side_b)
    else:
        side_a, side_b = terminals
        if workspace.g is not g or (part is not None and part is not workspace.part):
            raise ValueError("the workspace belongs to another graph or part")
    if not side_a or not side_b:
        raise ValueError("terminal attachment sets must be non-empty")
    bit_of = workspace.bit_of
    sources = free = 0
    try:
        for v in side_a:
            sources |= bit_of[v]
        for v in side_b:
            free |= bit_of[v]
    except KeyError as err:
        raise ValueError(f"terminal vertex {err.args[0]} is not a target") from None
    if sources & free:
        raise ValueError("terminal attachment sets must be disjoint")
    if sources.bit_count() != len(side_a) or free.bit_count() != len(side_b):
        raise ValueError("terminal attachment sets must not repeat a vertex")

    part = workspace.part
    adj = part.adj
    targets = workspace.targets
    near = workspace.near
    rows = workspace.rows
    role = workspace.role
    sat = workspace.sat
    in_flow = workspace.in_flow
    prev = workspace.prev
    # Vertices other than the terminals whose ``sat`` or ``in_flow`` entry
    # this flow may set, and the states whose ``prev`` entry is set.
    touched: list[int] = []
    queue: list[int] = []
    flow = 0
    if counters is not None:
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
                    row = rows[a] = [(v, near[v]) for v in adj[a] if near[v]]
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
            # Breadth-first search over residual states; 2v is the entry side
            # of vertex v, 2v+1 its exit side.  The queue is never popped, so
            # it also lists every state whose ``prev`` entry is set.
            queue = [2 * a for a in side_a]
            for s in queue:
                prev[s] = _ROOT
            push = queue.append
            goal = -1
            for s in queue:
                v = s >> 1
                if s & 1:
                    if role[v] == _SINK:
                        goal = s
                        break
                    for w in adj[v]:
                        t = 2 * w
                        if prev[t] == _UNSEEN:
                            prev[t] = s
                            push(t)
                    if sat[v]:
                        t = 2 * v
                        if prev[t] == _UNSEEN:
                            prev[t] = s
                            push(t)
                else:
                    if not sat[v]:
                        t = 2 * v + 1
                        if prev[t] == _UNSEEN:
                            prev[t] = s
                            push(t)
                    u = in_flow[v]
                    if u >= 0:
                        t = 2 * u + 1
                        if prev[t] == _UNSEEN:
                            prev[t] = s
                            push(t)
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

        if counters is not None:
            counters.augmentations += flow
        if flow > bound + 1:
            raise RuntimeError("augmentation count exceeded bound + 1")
        if flow > bound:
            return Exceeded(bound, flow)

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
    finally:
        # Hand the scratch arrays back clean.
        for s in queue:
            prev[s] = _UNSEEN
        for side in (side_a, side_b, touched):
            for v in side:
                role[v] = 0
                sat[v] = 0
                in_flow[v] = _NO_FLOW
    result = CutResult(tuple(separator), tuple(side1), tuple(side2), flow)
    _verify_cut(g, side_a, side_b, result, flow, part)
    return result


def _verify_cut(g: Graph, side_a, side_b, cut: CutResult, flow: int,
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
    _invariant(all(side_of[v] in (1, 3) for v in side_a),
               "uncut source attachment outside side1")
    _invariant(all(side_of[v] in (2, 3) for v in side_b),
               "uncut sink attachment outside side2")


def approx_3way_vertex_cut(g: Graph, t1, t2, t3, bound: int,
                           counters: Counters | None = None,
                           part: Part | None = None, *,
                           cuts: dict | None = None,
                           workspace: FlowWorkspace | None = None) -> ThreeWayCut | Exceeded:
    """Three-way separator by isolating cuts: union of the two cheapest.

    The cut is taken inside ``part`` (default: all of ``g``).  For each group
    the minimum cut isolating it from the union of the other two is computed;
    the union of the two cheapest such cuts separates all three groups
    pairwise.  For single-vertex groups the result is within
    ceil(4/3 * opt) of the optimum.

    ``cuts`` holds isolating cuts already found for groups whose three-way
    union is the same target set, filled in place.  It is keyed by the group
    alone, so one dict serves one target set, bound and part.  ``workspace``
    runs the isolating flows; its targets must include every group.
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
            res = min_vertex_separator(g, (others, grp), bound, counters, part,
                                       workspace=workspace)
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
