"""Minimum vertex separators between attachment sets, by unit-capacity flow.

Every graph vertex is splittable (capacity one); the two super-terminals are
virtual and uncapacitated.  A separator may therefore contain attachment
vertices: cutting one detaches it from its super-terminal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, Part, vset

_UNSEEN = -1
_ROOT = -2
_FROM_SOURCE = -2
_NO_FLOW = -1
# Marks of FlowWorkspace.role.
_SOURCE = 1
_SINK = 2


class _FlowArrays:
    """The scratch arrays of the flows of one run, sized to the root graph.

    ``role`` marks the current sources and sinks, and ``sat``, ``in_flow``
    and ``prev`` hold the flow and its breadth-first searches; every flow
    hands them back clean.  So the workspaces of a run share one set of
    arrays, and a split node allocates nothing sized to the graph.
    """

    __slots__ = ("role", "sat", "in_flow", "prev")

    def __init__(self, n: int):
        self.role = bytearray(n)
        self.sat = bytearray(n)
        self.in_flow = [_NO_FLOW] * n
        self.prev = [_UNSEEN] * (2 * n)


@dataclass
class Counters:
    """Per-run flow tallies, and the flow scratch arrays of the run.

    Every ``FlowWorkspace`` adds each flow it runs to its counters; a driver
    hands one ``Counters`` to all the workspaces of a run, which is one call
    of a public driver or of ``decompose``.  The first two fields count the
    flows that actually ran: an isolating cut that a workspace already holds
    adds nothing, and neither does a candidate that a kept certificate rules
    out; ``certified`` counts those candidates.

    ``arrays`` holds the root-sized flow arrays, allocated by the first
    workspace of the run and borrowed by every later one over a graph of the
    same size; each flow hands them back clean, so no state crosses from one
    workspace to another.  ``splits`` holds the run's two-way candidates,
    (first group, complement) pairs of target positions per (target count,
    first-group size), with the iterator that grows them; every reader keeps
    its own position (``separators._split_pairs``).
    """

    separator_calls: int = 0
    augmentations: int = 0
    certified: int = 0
    arrays: _FlowArrays | None = field(default=None, compare=False, repr=False)
    splits: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class Cut:
    """A separator inside ``part`` and the sides it leaves, checked when built.

    ``listed`` holds the sides the search listed, each ascending, and one
    more side, the rest, is never listed: it is built from ``part`` on use,
    while the part is not yet handed over, and ``sizes()`` counts it.  The
    rest sits at position ``rest_at`` among the sides, after the listed ones
    by default.  A flow lists its residual-reachable side (an isolating
    flow, run with ``separator_only``, lists none) and leaves the rest last;
    a three-way cut lists two sides and leaves the side of its last
    unfinished search in its place.  ``owner`` maps each vertex of the
    separator to -1 and each listed vertex to the position of its side; a
    member it does not hold is in the rest.  Two cuts are equal when their
    separators, listed sides and rest positions are.

    Building a cut checks that it splits its part: the separator and the
    listed sides hold members only, none twice, so that with the rest they
    partition the part; and no edge joins two sides.  Every such edge has an
    end on a listed side, so the rows of the listed sides are scanned: all
    but the largest one's when the rest is empty.
    """

    separator: tuple[int, ...]
    listed: tuple[tuple[int, ...], ...]
    augmentations: int = field(compare=False)
    part: Part = field(compare=False, repr=False)
    rest_at: int | None = None
    owner: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        part = self.part
        inside = part.inside
        n = len(inside)
        listed = self.listed
        rest_at = self.rest_at
        if rest_at is None:
            rest_at = len(listed)
            object.__setattr__(self, "rest_at", rest_at)
        if not 0 <= rest_at <= len(listed):
            _invariant(False, "the rest is not among the sides")
        owner = dict.fromkeys(self.separator, -1)
        total = len(self.separator)
        for i, side in enumerate(listed):
            at = i + (i >= rest_at)
            for v in side:
                owner[v] = at
            total += len(side)
        # Listed once each (no key lost to a repeat) and members only.
        partition = len(owner) == total
        for v in owner:
            if not (0 <= v < n and inside[v]):
                partition = False
                break
        _invariant(partition, "separator and sides do not partition the vertices")
        skip = -1
        if total == part.size and listed:
            sizes = [len(side) for side in listed]
            skip = sizes.index(max(sizes))
        adj = part.adj
        get = owner.get
        for i, side in enumerate(listed):
            if i != skip:
                ends = (i + (i >= rest_at), -1)
                for u in side:
                    for v in adj[u]:
                        if get(v) not in ends:
                            _invariant(False, f"edge ({min(u, v)}, {max(u, v)}) crosses the cut")
        object.__setattr__(self, "owner", owner)

    @property
    def rest(self) -> tuple[int, ...]:
        return self.part.remainder(self.separator, *self.listed)

    def sizes(self) -> list[int]:
        """The sizes of the sides in order, the rest's at ``rest_at``."""
        sizes = [len(side) for side in self.listed]
        sizes.insert(self.rest_at, self.part.size - len(self.separator) - sum(sizes))
        return sizes


@dataclass(frozen=True)
class Exceeded:
    """The minimum separator is larger than the requested bound."""

    bound: int
    augmentations: int


def _invariant(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"flow invariant violated: {message}")


class _Certificates:
    """The Menger certificates of one bound, kept by target position.

    A certificate is ``paths`` (bound+1) regions: pairwise disjoint,
    connected sets of vertices of the part, each a kept path of a flow that
    ended Exceeded together with free targets next to that path (see
    ``_keep_certificate``).  ``on[i]`` holds the i-th of the ``width``
    ascending targets' own bit, ``1 << i``, and above those the bits of the
    regions that hold that target: region ``j`` of certificate ``c`` is bit
    ``width + c * paths + j``.  Each certificate thus owns a field of
    ``paths`` bits; ``low``, ``one`` and ``high`` hold the lower bits, the
    lowest bit and the top bit of every field.  ``add`` updates ``on`` in place.
    """

    __slots__ = ("width", "paths", "count", "on", "low", "one", "high")

    def __init__(self, width: int, paths: int):
        self.width = width
        self.paths = paths
        self.count = 0
        self.on = [1 << i for i in range(width)]
        self.low = self.one = self.high = 0

    def add(self, regions: list[list[int]]) -> None:
        """Keep one certificate: the target positions of each of its regions."""
        on = self.on
        first = self.width + self.count * self.paths
        for j, region in enumerate(regions):
            bit = 1 << (first + j)
            for i in region:
                on[i] |= bit
        self.low |= ((1 << (self.paths - 1)) - 1) << first
        self.one |= 1 << first
        self.high |= 1 << (first + self.paths - 1)
        self.count += 1


class _Near(dict):
    """The mask of the targets next to each vertex of a part, computed on
    the vertex's first read and kept.

    ``bit_of`` maps each target to its bit.  The mask comes from the cheaper
    side: a row no longer than the target count is scanned against
    ``bit_of``, and into a longer one (a hub's) each target is bisected.
    The rows are read through ``part``, so a read after ``Part.handover``
    raises like any other use of a spent part.
    """

    __slots__ = ("part", "bit_of")

    def __init__(self, part: Part, bit_of: dict[int, int]):
        self.part = part
        self.bit_of = bit_of

    def __missing__(self, v: int) -> int:
        row = self.part.adj[v]
        bit_of = self.bit_of
        mask = 0
        if len(row) <= len(bit_of):
            get = bit_of.get
            for u in row:
                bit = get(u)
                if bit:
                    mask |= bit
        else:
            # The targets ascend, so each search starts where the last ended.
            i = 0
            for t, bit in bit_of.items():
                i = bisect_left(row, t, i)
                if i < len(row) and row[i] == t:
                    mask |= bit
        self[v] = mask
        return mask


def _dovetail(adj, label: dict[int, int], seeds):
    """Searches over the vertices that ``label`` does not hold, one per
    seed, that take one step each in turn until at most one is unfinished.

    ``label`` maps each blocked vertex to -1; every vertex a search claims
    is added, mapped to a search.  ``seeds`` lists (vertex, tag) pairs: a
    free vertex starts a search with that tag, a claimed one adds the tag to
    its search's, a blocked one is passed over.  A step pops a vertex and
    claims its free neighbours; a neighbour claimed by another search merges
    the two (the larger takes the smaller's lists, and the tags are joined).
    A search that runs out of steps therefore holds a whole component of the
    free vertices, with every search that started in it, and once at most
    one search is unfinished so does every component a search started in
    but that one's, which is never walked further.

    Returns (tag, found, todo) for each search that was not merged into
    another, in the order the searches started; ``todo`` is empty exactly
    when the search finished.
    """
    up: list[int] = []            # union-find over the searches
    tags: list[int] = []
    found: list[list[int]] = []
    todo: list[list[int]] = []
    for v, tag in seeds:
        i = label.get(v)
        if i is None:
            label[v] = i = len(up)
            up.append(i)
            tags.append(tag)
            found.append([v])
            todo.append([v])
        elif i >= 0:
            tags[i] |= tag

    def root(i: int) -> int:
        while up[i] != i:
            up[i] = i = up[up[i]]
        return i

    live = list(range(len(up)))
    while len(live) > 1:
        for i in live:
            if up[i] != i or not todo[i]:
                continue
            stack = todo[i]
            for w in adj[stack.pop()]:
                j = label.get(w)
                if j is None:
                    label[w] = i
                    found[i].append(w)
                    stack.append(w)
                elif j >= 0 and (j := root(j)) != i:
                    if len(found[j]) > len(found[i]):
                        i, j = j, i
                    up[j] = i
                    tags[i] |= tags[j]
                    found[i] += found[j]
                    todo[i] += todo[j]
                    found[j], todo[j] = [], []
                    stack = todo[i]
        live = [i for i in live if up[i] == i and todo[i]]
    return [(tags[i], found[i], todo[i]) for i in range(len(up)) if up[i] == i]


class FlowWorkspace:
    """The context of one separator search: every flow between subsets of
    one target set inside one part, the counters they add to, and the
    isolating cuts already found.

    A separator search asks for a minimum cut between many pairs of disjoint
    subsets of the same targets inside the same part (default: all of
    ``g``).  The workspace checks the targets against the part once and
    numbers them (target ``i`` of the ascending targets is bit ``1 << i``).
    ``near[v]``, a ``_Near`` of its own, is the mask of the targets next to
    member ``v``, computed on its first read from the cheaper of ``v``'s row
    and the targets, and kept.  The warm start packs one- and two-edge paths
    by mask: a source's direct path is ``near[a] & free``, where ``free``
    holds the unsaturated sinks, and its two-hop paths scan ``two_hop(a)``,
    the row ``[(v, near[v]), ...]`` of all its neighbours, built the first
    time the source needs it and kept for later flows.
    Every read is exact, so a workspace costs what its reads cost, however
    many long rows (hubs) its targets or their neighbours have.

    The flow arrays ``sat``, ``in_flow`` and ``prev`` and the ``role`` marks
    of the current sources and sinks are sized to ``g`` and read through
    ``arrays``, the run's ``_FlowArrays`` borrowed from ``counters`` and
    shared by every workspace of the run.  Every flow hands them back clean:
    it resets exactly the vertices it touched and the states its
    breadth-first searches queued.  Flows therefore run one at a time, and
    the workspaces of a run may run theirs in any order.

    Every flow is added to ``counters`` (a private ``Counters`` when none is
    given).  ``cuts`` maps a group mask to the exact minimum isolating cut
    of that group against the other targets; ``isolating_union`` fills it,
    running each cut's flow once with ``separator_only``, so no side of it
    is ever listed, and bounded by the group's size, which the group itself
    meets.  A cut is kept as the bits of its vertices in the workspace's own
    numbering of separator vertices, ``sep_ids`` (bit ``i`` is vertex
    ``sep_ids[i]``), which grows as flows find new ones.  The numbering
    holds only vertices some isolating cut used, so a mask stays a few words
    long however large the graph is, and the union of two cuts is one OR.

    ``attached`` holds the bits of the targets next to a non-target member,
    those whose row is longer than their ``near`` mask's bit count, found
    on the first flow run with ``separator_only``.  Such a flow whose
    sources hold every bit of ``attached`` is dead: every non-target member
    touches sources and non-targets only, so its searches leave all of them
    out, and an isolating cut costs what its targets reach, not the tail of
    a path beyond its sources.

    ``certs`` keeps, per bound, the certificate of every flow that ended
    ``Exceeded``: its bound+1 vertex-disjoint paths, each grown into a
    region, a connected set that holds the path's targets and free targets
    next to it, kept as that region's target positions.  By Menger's theorem
    a later pair of sides that puts a target of each side in every one of
    those disjoint regions has no separator of at most bound vertices
    either: each region holds a path from one side to the other, and a
    separator must cut all bound+1 of them, so the flow of that pair would
    end ``Exceeded`` too: a ruling is exactly as sound as the flow it
    replaces.  ``certificates`` hands a bound's store, held by target
    position, to ``separators._first_cut``, the one loop that rules two-way
    candidates, which reads it in place: it tests all kept certificates of a
    bound at once, with one OR per target of the two sides and five big-int
    operations, before any flow.  Only flows that run are counted in
    ``separator_calls``, and rulings in ``certified``.
    """

    __slots__ = ("part", "targets", "counters", "cuts", "sep_ids", "sep_bit",
                 "certs", "bit_of", "near", "rows", "attached", "arrays")

    def __init__(self, g: Graph, part: Part | None, targets: Iterable[int],
                 counters: Counters | None = None):
        if part is None:
            part = Part(g)
        n = g.n
        inside = part.inside
        self.part = part
        self.targets = w = vset(targets)
        self.counters = counters = Counters() if counters is None else counters
        self.cuts = {}
        self.sep_ids = []
        self.sep_bit = {}
        self.certs = {}
        self.bit_of = bit_of = {}
        for i, t in enumerate(w):
            if not (0 <= t < n and inside[t]):
                raise ValueError(f"terminal vertex out of range: {t}")
            bit_of[t] = 1 << i
        self.near = _Near(part, bit_of)
        self.rows = {}
        self.attached = None
        arrays = counters.arrays
        if arrays is None or len(arrays.sat) != n:
            arrays = counters.arrays = _FlowArrays(n)
        self.arrays = arrays

    def two_hop(self, a: int) -> list[tuple[int, int]]:
        """The row ``[(v, near[v]), ...]`` of target ``a``'s neighbours,
        built on the first call and kept; the masks are read from ``near``,
        which computes each on its first read.  Every mask holds ``a``'s
        bit, so none is empty."""
        row = self.rows.get(a)
        if row is None:
            near = self.near
            row = self.rows[a] = [(v, near[v]) for v in self.part.adj[a]]
        return row

    def mask(self, vertices: Iterable[int]) -> int:
        """The bits of ``vertices``; ValueError names one that is not a target."""
        bit_of = self.bit_of
        mask = 0
        try:
            for v in vertices:
                mask |= bit_of[v]
        except KeyError as err:
            raise ValueError(f"terminal vertex {err.args[0]} is not a target") from None
        return mask

    def side_masks(self, side_a, side_b) -> tuple[int, int]:
        """The masks of a pair of sides; ValueError unless both are non-empty,
        disjoint and free of repeats, and hold targets only."""
        if not side_a or not side_b:
            raise ValueError("terminal attachment sets must be non-empty")
        sources = self.mask(side_a)
        sinks = self.mask(side_b)
        if sources & sinks:
            raise ValueError("terminal attachment sets must be disjoint")
        if sources.bit_count() != len(side_a) or sinks.bit_count() != len(side_b):
            raise ValueError("terminal attachment sets must not repeat a vertex")
        return sources, sinks

    def certificates(self, bound: int) -> _Certificates:
        """The certificates kept at ``bound``, an empty store on first use."""
        certs = self.certs.get(bound)
        if certs is None:
            certs = self.certs[bound] = _Certificates(len(self.targets), bound + 1)
        return certs

    def targets_of(self, mask: int) -> tuple[int, ...]:
        """The targets whose bits are in ``mask``, ascending."""
        return tuple(t for i, t in enumerate(self.targets) if mask >> i & 1)

    def isolating_union(self, masks) -> int:
        """The union, as a mask over ``sep_ids``, of the two cheapest isolating
        cuts of three groups of targets, given by their masks.

        The cheapest cuts are the two smallest, the earlier group first among
        equal sizes.  A cut not yet in ``cuts`` is computed first, group by
        group, each by a flow from the other targets to the group; an empty
        group needs no cut and costs nothing.
        """
        cuts = self.cuts
        full = (1 << len(self.targets)) - 1
        for mask in masks:
            if mask not in cuts and 0 < mask < full:
                cuts[mask] = self._isolating_cut(mask)
        # Drop the costliest of three, which a stable sort leaves last: the
        # largest, the later one of equals.
        a, b, _ = sorted([cuts.get(mask, 0) for mask in masks], key=int.bit_count)
        return a | b

    def _isolating_cut(self, mask: int) -> int:
        """The separator mask of the isolating cut of group ``mask``,
        numbering the separator's new vertices.  The group itself separates
        it from the other targets, so a flow bounded by the group's size
        always ends with the exact minimum cut."""
        group = self.targets_of(mask)
        others = self.targets_of(((1 << len(self.targets)) - 1) ^ mask)
        res = min_vertex_separator(self, (others, group), len(group), separator_only=True)
        _invariant(isinstance(res, Cut) and len(res.separator) <= len(group),
                   "an isolating cut exceeds its group")
        ids, bit_of = self.sep_ids, self.sep_bit
        sep_mask = 0
        for v in res.separator:
            bit = bit_of.get(v)
            if bit is None:
                bit = bit_of[v] = 1 << len(ids)
                ids.append(v)
            sep_mask |= bit
        return sep_mask


def _augmenting_search(rows, role, sat, in_flow, prev, queue: list[int]) -> int:
    """One breadth-first search over the residual states from the roots in
    ``queue``, which lists every state reached, each with its ``prev``:
    the exit state (2v+1; 2v is v's entry) of the first free sink it
    reaches, or -1.  No flow path continues past a sink, so a free sink's
    exit is reached from its own entry only: the search ends when it pushes
    that entry, and pushes the exit after it, which a FIFO search that went
    on would pop first, with the same ``prev`` chain.  A source's entry is a
    root, so a pushed target entry is a sink's.  A free vertex carries no
    flow, so its entry leads only to its exit, which nothing else reaches.

    ``rows[v]`` is the row the search expands from v's exit: ``part.adj``'s,
    or in a dead flow (see ``min_vertex_separator``) a ``_TargetRows`` view
    that filters it to the targets.  The loop itself never tests whether a
    flow is dead.
    """
    push = queue.append
    for s in queue:
        v = s >> 1
        if s & 1:
            for w in rows[v]:
                t = w + w
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
                    if role[w] and not sat[w]:
                        prev[t + 1] = t
                        push(t + 1)
                        return t + 1
            if sat[v]:
                t = s - 1
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
        elif not sat[v]:
            prev[s + 1] = s
            push(s + 1)
        else:
            u = in_flow[v]
            if u >= 0:
                t = u + u + 1
                if prev[t] == -1:
                    prev[t] = s
                    push(t)
    return -1


class _TargetRows(dict):
    """The rows a dead flow's searches expand: each vertex's row filtered to
    the targets, built on the vertex's first read in the flow and kept.

    A dead flow's non-targets carry no flow and touch sources and
    non-targets only, so their states lead back to source entry states
    alone, which are roots.  Only targets' exits are expanded, and of those
    only a source's row holds non-targets: leaving them out changes neither
    the order in which the other states are found nor their ``prev``
    entries.
    """

    __slots__ = ("adj", "targets")

    def __init__(self, adj, targets):
        self.adj = adj
        self.targets = targets

    def __missing__(self, v: int) -> list[int]:
        targets = self.targets
        row = self[v] = [w for w in self.adj[v] if w in targets]
        return row


def min_vertex_separator(ws: FlowWorkspace, terminals, bound: int, *,
                         separator_only: bool = False) -> Cut | Exceeded:
    """Minimum vertex cut between the two super-terminals, or Exceeded.

    ``terminals`` is a pair of sides, each a non-empty sequence of distinct
    targets of ``ws``, and the cut is taken inside ``ws.part``.  Returns a
    minimum-cardinality separator of size <= bound if one exists, with its
    one listed side the residual-reachable members, listed from the last
    breadth-first search, and the remainder left as the cut's rest.  Exceeded is
    reported after bound+1 successful unit augmentations, which certifies
    that every separator is larger than the bound.  The result does not
    depend on the order of a side; ascending sides make the warm start pack
    the smallest ids first.  Each augmenting path is applied while it is
    walked back from its sink along ``prev``, one step at a time, and a
    vertex joins ``touched`` when a step enters it from another vertex.

    With ``separator_only`` (an isolating cut, whose sides no caller reads)
    the cut lists no side: only its separator and ``augmentations`` carry
    meaning.  Such a flow is dead when its sources hold every bit of
    ``ws.attached``, the targets next to a non-target member: every
    non-target member then touches sources and other non-targets only,
    carries no flow and lies on the reached side, so the searches leave all
    of them out: the flow hands its search a ``_TargetRows`` view that
    filters each row to the targets, where any other flow hands it
    ``part.adj`` itself.  The augmenting paths, the
    certificates, the counts and the cut stay exactly those of a search
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

        search_rows = _TargetRows(adj, dead) if dead else adj
        while flow <= bound:
            # One breadth-first search; the queue, never popped, lists every
            # state whose ``prev`` entry it set.
            queue = [a + a for a in side_a]
            for s in queue:
                prev[s] = _ROOT
            t = _augmenting_search(search_rows, role, sat, in_flow, prev, queue)
            if t < 0:
                break

            # Apply the path while walking it back from the goal.  A state
            # appears once on a path, so a vertex's entries change only in
            # the steps next to its states, and their order does not matter:
            # a step from v's entry back to the exit its flow came from is
            # applied before the step into v's entry that replaces that flow.
            # Only a forward step enters a vertex that may carry no flow yet;
            # every other vertex a step changes is a terminal or already
            # carries flow, so it is in ``touched`` already.
            s = prev[t]
            while s >= 0:
                if s & 1:
                    if t == s - 1:
                        sat[t >> 1] = 0
                    else:
                        w = t >> 1
                        in_flow[w] = s >> 1
                        touched.append(w)
                elif t == s + 1:
                    sat[s >> 1] = 1
                else:
                    in_flow[s >> 1] = _NO_FLOW
                t = s
                s = prev[t]
            in_flow[t >> 1] = _FROM_SOURCE
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


def _keep_certificate(ws: FlowWorkspace, side_b, flow: int, bound: int) -> None:
    """Keep the paths of a flow that ended Exceeded in the store of its
    bound, each grown into a region and kept as its target positions.

    Each saturated sink's ``in_flow`` chain leads back to the source its path
    starts from; the walk collects the targets on the path and, from
    ``near``, the targets next to it.  Each free target, one on no path, a
    hub included, then joins one region next to it, in ascending order: the
    one that holds the fewest targets so far, the earliest among equals.  A
    region is connected (a path and targets next to it), and the
    regions are disjoint (the paths are, and a free target joins one), so
    sides that hold a target of every region are joined by bound+1
    vertex-disjoint paths, one inside each region.
    """
    bit_of = ws.bit_of
    near = ws.near
    sat = ws.arrays.sat
    in_flow = ws.arrays.in_flow
    regions = []
    nexts = []
    seen = 0
    for b in side_b:
        if not sat[b]:
            continue
        region = []
        mask = nbrs = 0
        v = b
        while v >= 0:
            nbrs |= near[v]
            bit = bit_of.get(v)
            if bit:
                mask |= bit
                region.append(bit.bit_length() - 1)
            v = in_flow[v]
        # Each chain ends at its source, and the paths share no target.
        _invariant(v == _FROM_SOURCE and not mask & seen, "certificate paths are broken")
        seen |= mask
        regions.append(region)
        nexts.append(nbrs)
    _invariant(len(regions) == flow, "certificate paths differ from the flow value")
    free = ((1 << len(ws.targets)) - 1) ^ seen
    while free:
        low = free & -free
        free ^= low
        best = None
        for nbrs, region in zip(nexts, regions):
            if nbrs & low and (best is None or len(region) < len(best)):
                best = region
        if best is not None:
            best.append(low.bit_length() - 1)
    ws.certificates(bound).add(regions)


def _verify_cut(side_a, side_b, cut: Cut, flow: int) -> None:
    """Check a flow's own conditions on its cut, which was checked as a cut
    when built: its size is the flow value, an uncut source is in side1 (the
    one listed side) and a sink is not."""
    _invariant(len(cut.separator) == flow, "cut size differs from flow value")
    owner = cut.owner
    _invariant(all(map(owner.__contains__, side_a)), "uncut source attachment outside side1")
    _invariant(0 not in map(owner.get, side_b), "uncut sink attachment outside the rest")


def _verify_separator(part: Part, prev: list[int], queue: list[int], separator: list[int],
                      side_a, side_b, flow: int, dead) -> None:
    """Check a flow's cut on the state of its last breadth-first search,
    before its scratch arrays are reset, without listing a side.

    A member is on the reached side R when its exit state was reached or,
    in a dead flow (``dead`` holds the targets, else it is None), when it is
    a non-target; it is in the separator when only its entry state was
    reached, and in the rest otherwise.  The checks are ``_verify_cut``'s
    and the ``Cut``'s: the separator's size is the flow value (that it holds
    members only, none twice, the ``Cut`` built from it checks); every
    source is on R or cut, and no sink is on R; and no edge joins R and the
    rest, checked from the smaller of the two.  The rest is searched from
    the uncut sinks and passes only when the search visits all of it; when
    some of it holds no sink, R's rows are scanned: the walked part's, read
    from the queue, and in a dead flow the non-targets', listed by
    ``part.remainder``.

    The sizes come from counts.  Every reached exit state's entry state is
    reached too (a saturated vertex's exit leads back to its entry, and an
    unsaturated one's exit is reached from its entry only), so the queue
    holds 2|walked| + |separator| states, and a dead flow adds its
    non-targets.  Before the counts are trusted, no queued state may be a
    non-target of a dead flow, so no vertex is counted twice.  Were a count
    ever wrong otherwise, the rest's would come out too large, so the
    search could only fall short of it and R would be scanned: no count can
    make a check pass.
    """
    _invariant(len(separator) == flow, "cut size differs from flow value")
    cut = set(separator)
    for a in side_a:
        _invariant(prev[2 * a + 1] != _UNSEEN or a in cut, "uncut source attachment outside side1")
    for b in side_b:
        _invariant(prev[2 * b + 1] == _UNSEEN, "uncut sink attachment outside the rest")
    adj = part.adj
    reached = (len(queue) - len(separator)) // 2
    if dead:
        reached += part.size - len(dead)
    rest = part.size - len(separator) - reached
    if rest < reached:
        if dead:
            for s in queue:
                if s >> 1 not in dead:
                    _invariant(False, "a skipped dead end was searched")
        seen = {b for b in side_b if prev[2 * b] == _UNSEEN}
        stack = list(seen)
        while stack:
            for w in adj[stack.pop()]:
                _invariant(prev[2 * w + 1] == _UNSEEN and (not dead or w in dead),
                           "an edge joins the reached side and the rest")
                if prev[2 * w] == _UNSEEN and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == rest:
            return
    for s in queue:
        if s & 1:
            for w in adj[s >> 1]:
                if (prev[2 * w] == _UNSEEN and prev[2 * w + 1] == _UNSEEN
                        and (not dead or w in dead)):
                    _invariant(False, "an edge joins the reached side and the rest")
    if dead:
        for u in part.remainder(dead):
            for w in adj[u]:
                if prev[2 * w] == _UNSEEN and prev[2 * w + 1] == _UNSEEN and w in dead:
                    _invariant(False, "an edge joins the reached side and the rest")


def approx_3way_vertex_cut(ws: FlowWorkspace, t1, t2, t3, bound: int) -> Cut | Exceeded:
    """Three-way separator by isolating cuts: union of the two cheapest.

    The three groups partition ``ws.targets`` and the cut is taken inside
    ``ws.part``.  For each group the minimum cut isolating it from the union
    of the other two is computed; the union of the two cheapest such cuts
    separates all three groups pairwise.  For single-vertex groups the result
    is within ceil(4/3 * opt) of the optimum.  Two sides are listed; the
    third, the side of the last unfinished search, is the cut's rest, at its
    place in the side order.

    Since every split partitions the same targets, a group's isolating cut
    depends on the group alone: ``ws.isolating_union`` keeps it in
    ``ws.cuts`` and computes it once per workspace, whatever the bound, by
    a flow that lists no side.  A cut above the bound is either the one
    dropped or makes the union exceed it.  The result's ``augmentations``
    counts the flows this call ran, so a call that reuses all its isolating
    cuts reports 0.

    The sides are found by ``_split_three_ways``, which lists every
    component of the part minus the separator but the last one its searches
    reach.  That is exact when every such component holds a target or has a
    neighbour in the separator; every part the drivers build meets this.
    Otherwise a component with neither is not searched and joins the rest:
    the side of the last unfinished search, or side 1 when every search
    finished.  The cut is checked when built either way, so it still splits
    its part.
    """
    groups = (t1, t2, t3)
    masks = [ws.mask(grp) for grp in groups]
    full = (1 << len(ws.targets)) - 1
    # As many entries as targets, and every target covered: no overlap and no
    # repeat either.
    if sum(map(len, groups)) != len(ws.targets) or masks[0] | masks[1] | masks[2] != full:
        raise ValueError("terminal groups must partition the targets")
    if bound < 0:
        raise ValueError("bound must be non-negative")

    counters = ws.counters
    before = counters.augmentations
    union = ws.isolating_union(masks)
    if union.bit_count() > bound:
        return Exceeded(bound, counters.augmentations - before)
    separator = vset(v for i, v in enumerate(ws.sep_ids) if union >> i & 1)
    listed, rest_at = _split_three_ways(ws.part, separator, groups)
    return Cut(separator, listed, counters.augmentations - before, ws.part, rest_at)


def _split_three_ways(part: Part, separator, groups) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Two of the three sides of ``part`` minus ``separator``, and the
    position of the third, which is left unlisted: each component goes to
    the group whose survivors (members outside the separator) it holds, to
    side 1 when it holds none; a component that holds survivors of two
    groups breaks the invariant.

    ``_dovetail`` searches from every survivor and every neighbour of the
    separator until at most one search is unfinished; every component a
    search started in is then found but that one's, whose side is the one
    left unlisted (side 1 when every search finished), so the largest side
    costs no search.
    """
    adj = part.adj
    seeds = [(v, 1 << i) for i, grp in enumerate(groups) for v in grp]
    seeds += [(v, 0) for x in separator for v in adj[x]]
    sides: list = [[], [], []]
    last = 1
    for tag, found, todo in _dovetail(adj, dict.fromkeys(separator, -1), seeds):
        # The searches of one component have all merged by now, so a
        # component with survivors of two groups has a tag of two bits.
        if tag & (tag - 1):
            _invariant(False, "terminal groups share a component")
        side = tag.bit_length() - 1 if tag else 1
        if todo:
            last = side
        else:
            sides[side] += found
    return tuple(vset(side) for j, side in enumerate(sides) if j != last), last
