"""Balanced separator search by exhaustive canonical enumeration.

Each procedure walks the candidate splits of a target vertex set in a fixed
combinatorial order and asks the flow engine for a minimum cut between the
groups.  Edges inside a group never matter: a super-terminal attaches to every
vertex of its group.  Returning None is a sound certificate that no qualifying
separator exists.  A search takes one ``flow.FlowWorkspace``, built by its
caller over the target set inside the part being split (a recursion node), and
runs every flow through it; the workspace counts the flows and keeps the
isolating cuts.

Most candidates of a search that ends in a rejection fail, and each failed
flow leaves a certificate: bound+1 vertex-disjoint paths between its groups,
each grown into a region with the free targets next to it.  By Menger's
theorem a later candidate whose groups each hold a target of every one of
those disjoint, connected regions has bound+1 vertex-disjoint paths between
its groups too, so its flow would also exceed the bound: a ruling is exactly
as sound as the flow it replaces.  The two-way searches test candidates read by
target position from one list per run (``candidate_splits``) inline;
``try_split`` asks ``certified``, which also checks the groups as a flow does.
``separator_calls`` counts the flows that ran, and ``certified`` the rulings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .flow import (Counters, Cut, Exceeded, FlowWorkspace, approx_3way_vertex_cut,
                   min_vertex_separator)

DEFAULT_ALPHA = Fraction(4, 3)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"separator invariant violated: {message}")


def try_split(ws: FlowWorkspace, group_a: tuple[int, ...], group_b: tuple[int, ...],
              bound: int) -> Cut | None:
    """One candidate split: minimum cut between the two groups' super-terminals,
    where the groups are disjoint tuples of the workspace's targets.

    Each super-terminal attaches to every vertex of its group, so edges inside
    a group cannot change the cut.  Returns None when the minimum cut exceeds
    the bound or leaves one side empty; both are normal outcomes.  A
    candidate that a kept certificate already rules out returns None without
    a flow, once its groups have passed the checks the flow makes.
    """
    if ws.certified(group_a, group_b, bound):
        ws.counters.certified += 1
        return None
    cut = min_vertex_separator(ws, (group_a, group_b), bound)
    if isinstance(cut, Exceeded) or not all(cut.sizes()):
        return None
    return cut


def candidate_splits(counters: Counters, size: int, flavor: str):
    """Each ceil(size/2)-subset ``first`` of ``size`` target positions, in
    ascending combinadic order, with the second groups tried against it:
    each ceil(size/3)-subset of ``rest``, the other positions, for rs4, and
    ``rest`` alone for half45.  The ``(first, rest)`` pairs are kept in
    ``counters.splits[size]``, extended only as far as a search of the run
    has gone; searches run one at a time, so one reads what another left."""
    if size < 2:
        return
    grown = counters.splits.get(size)
    if grown is None:
        grown = counters.splits[size] = ([], combinations(range(size), _ceil_div(size, 2)))
    pairs, firsts = grown
    second = _ceil_div(size, 3) if flavor == "rs4" else size // 2
    for first, rest in pairs:
        yield first, combinations(rest, second)
    for first in firsts:
        rest = tuple(i for i in range(size) if i not in first)
        pairs.append((first, rest))
        yield first, combinations(rest, second)


def _target_counts(targets: tuple[int, ...], cut: Cut) -> list[int]:
    """The targets on each side of ``cut``, in side order: the rest's are
    the targets that ``cut.owner`` does not hold."""
    rest = cut.rest_at
    # The separator's side, -1, is the last entry: counted, then dropped.
    counts = [0] * (len(cut.listed) + 2)
    get = cut.owner.get
    for t in targets:
        counts[get(t, rest)] += 1
    counts.pop()
    return counts


def _first_split(ws: FlowWorkspace, flavor: str, bound: int, share: int) -> Cut | None:
    """First of the ``candidate_splits`` of ``ws.targets`` with a cut of at
    most ``bound``; neither side may hold more than ``share`` of the targets.

    A candidate is first put to the test of ``FlowWorkspace.certified`` on
    ``ws.ruling(bound)``: a first group's bits are ORed once, then each
    second group's, one OR per target; they are re-read only after a flow
    ends ``Exceeded``.  The groups are distinct target positions, so they
    need none of the checks that ``certified`` makes on a caller's groups.
    """
    pick = ws.targets.__getitem__
    counters = ws.counters
    bits, low, one, high = ws.ruling(bound)
    for first, seconds in candidate_splits(counters, len(ws.targets), flavor):
        a = 0
        for i in first:
            a |= bits[i]
        group_a = None
        for second in seconds:
            b = 0
            for i in second:
                b |= bits[i]
            both = a & b
            if ((both & low) + one) & both & high:
                counters.certified += 1
                continue
            if group_a is None:
                group_a = tuple(map(pick, first))
            cut = min_vertex_separator(ws, (group_a, tuple(map(pick, second))), bound)
            if isinstance(cut, Exceeded):
                bits, low, one, high = ws.ruling(bound)
                a = 0
                for i in first:
                    a |= bits[i]
            elif all(cut.sizes()):
                _require(len(cut.separator) <= bound, "separator above bound")
                _require(max(_target_counts(ws.targets, cut)) <= share,
                         "side holds more than its share of the targets")
                return cut
    return None


def two_thirds_vtx_sep(ws: FlowWorkspace, k: int) -> Cut | None:
    """Two-thirds-balanced separator of ``ws.targets``, of size at most k.

    Enumerates every choice of ceil(|T|/2) targets against ceil(|T|/3) of
    the rest, in ascending combinadic order, returning the first success.
    None certifies that no such separator exists.
    """
    return _first_split(ws, "rs4", k, 2 * len(ws.targets) // 3)


def two_way_half_vtx_sep(ws: FlowWorkspace, k: int) -> Cut | None:
    """Half-balanced two-way separator of ``ws.targets`` of size at most
    floor(1.5 k).

    Only the ceil(|T|/2)-subsets are enumerated; the complement is the other
    part, so far fewer candidates are tried than in the two-thirds search.
    """
    return _first_split(ws, "half45", (3 * k) // 2, _ceil_div(len(ws.targets), 2))


def _three_partitions(w: tuple[int, ...], k: int):
    """Ordered 3-partitions of the targets ``w`` with floor(|w|/2) >= |p1| >=
    |p2| >= |p3|.

    Yields (first, complement) as target tuples once per first part when
    |p1| > k, otherwise (first, second, third) as target masks (bit ``i`` is
    ``w[i]``); sizes descend, subsets ascend in combinadic order.
    """
    size = len(w)
    bits = [1 << i for i in range(size)]
    full = (1 << size) - 1
    for s1 in range(size // 2, _ceil_div(size, 3) - 1, -1):
        if s1 <= 0:
            continue
        if s1 > k:
            for first in combinations(w, s1):
                chosen = set(first)
                yield first, tuple(v for v in w if v not in chosen)
            continue
        rest_size = size - s1
        hi = min(s1, rest_size)
        lo = _ceil_div(rest_size, 2)
        for s2 in range(hi, lo - 1, -1):
            for first in combinations(bits, s1):
                mask = sum(first)
                rest = full ^ mask
                for second in combinations([b for b in bits if b & rest], s2):
                    second_mask = sum(second)
                    yield mask, second_mask, rest ^ second_mask


def alpha_sum_sep(ws: FlowWorkspace, k: int,
                  alpha: Fraction = DEFAULT_ALPHA) -> Cut | None:
    """Three-way separator whose sides each satisfy |(S_i & T) + X| <= (1+a)k,
    where T is ``ws.targets``.

    Partitions of the target set are tried largest-part-first.  A first part
    larger than k collapses the other two and reuses the two-way machinery
    with bound k, so the cut lists one side and leaves the other as its
    rest; otherwise the isolating cut approximation runs on the three parts
    with bound floor(a*k), lists two sides and leaves the third as its rest.  Success additionally
    requires at least two non-empty sides.

    A triple is rejected by mask first: ``ws.isolating_union`` runs the
    isolating flows the triple needs, in the order ``approx_3way_vertex_cut``
    would, and only a triple whose two cheapest cuts fit floor(a*k) together
    reaches ``approx_3way_vertex_cut``, which would reject every other one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    w = ws.targets
    cut_bound = math.floor(alpha * k)
    per_side_limit = (1 + alpha) * k
    targets_of = ws.targets_of
    isolating_union = ws.isolating_union

    for groups in _three_partitions(w, k):
        if len(groups) == 2:
            cut = try_split(ws, *groups, k)
            if cut is None:
                continue
        else:
            union = isolating_union(groups, cut_bound)
            if union is None or union.bit_count() > cut_bound:
                continue
            cut = approx_3way_vertex_cut(ws, *map(targets_of, groups), cut_bound)
        # A side and the separator are disjoint, so |(S_i & T) + X| is a sum.
        if (sum(map(bool, cut.sizes())) >= 2
                and max(_target_counts(w, cut)) + len(cut.separator) <= per_side_limit):
            return cut
    return None
