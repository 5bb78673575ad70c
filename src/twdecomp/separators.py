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
its groups too, so its flow would also exceed the bound.  ``try_split`` asks the
workspace's kept certificates and returns None without a flow when one rules
the candidate out, after checking the groups as the flow does; the ruling is
exactly as sound as the flow it replaces.  ``separator_calls`` counts the
flows that ran, and ``certified`` the candidates ruled out without one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .flow import Cut, Exceeded, FlowWorkspace, approx_3way_vertex_cut, min_vertex_separator

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


def two_thirds_candidates(w: tuple[int, ...]):
    """Every ceil(|w|/2)-subset of ``w`` against every ceil(|w|/3)-subset of
    the rest, in ascending combinadic order."""
    size = len(w)
    if size < 2:
        return
    for first in combinations(w, _ceil_div(size, 2)):
        chosen = set(first)
        rest = tuple(v for v in w if v not in chosen)
        for second in combinations(rest, _ceil_div(size, 3)):
            yield first, second


def half_candidates(w: tuple[int, ...]):
    """Every ceil(|w|/2)-subset of ``w`` against its complement, in ascending
    combinadic order."""
    size = len(w)
    if size < 2:
        return
    for first in combinations(w, _ceil_div(size, 2)):
        chosen = set(first)
        yield first, tuple(v for v in w if v not in chosen)


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


def _first_split(ws: FlowWorkspace, candidates, bound: int, share: int) -> Cut | None:
    """First split of ``candidates(ws.targets)`` with a cut of at most ``bound``.

    Neither side may hold more than ``share`` of the targets.
    """
    for first, second in candidates(ws.targets):
        cut = try_split(ws, first, second, bound)
        if cut is None:
            continue
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
    return _first_split(ws, two_thirds_candidates, k, 2 * len(ws.targets) // 3)


def two_way_half_vtx_sep(ws: FlowWorkspace, k: int) -> Cut | None:
    """Half-balanced two-way separator of ``ws.targets`` of size at most
    floor(1.5 k).

    Only the ceil(|T|/2)-subsets are enumerated; the complement is the other
    part, so far fewer candidates are tried than in the two-thirds search.
    """
    return _first_split(ws, half_candidates, (3 * k) // 2, _ceil_div(len(ws.targets), 2))


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
