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
as sound as the flow it replaces.  Every two-way candidate, of the two-way
searches, of adaptive mode, of ``alpha_sum_sep``'s collapsed partitions and
of ``try_split``, is ruled and flowed by one loop, ``_first_cut``, which
reads the certificates of its bound in place; all but ``try_split``'s come,
by target position, from one list per run (``_split_pairs``).
``separator_calls`` counts the flows that ran, and ``certified`` the rulings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, islice

from .flow import (Counters, Cut, Exceeded, FlowWorkspace, approx_3way_vertex_cut,
                   min_vertex_separator)

DEFAULT_ALPHA = Fraction(4, 3)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"separator invariant violated: {message}")


def _first_cut(ws: FlowWorkspace, pairs, bound: int) -> Cut | None:
    """The cut of the first of ``pairs`` whose minimum cut has at most
    ``bound`` vertices and no empty side, leaving ``pairs`` just past it;
    None once they run out.

    ``pairs`` yields ``(first, second)`` groups of target positions; every
    two-way candidate of the library passes through here.  Each is ruled on
    the kept certificates of ``bound`` first (see ``FlowWorkspace``): the
    store's ``on`` gives each target position's bits, a group's bits are
    ORed, a first group's once for a run of candidates that share it, and
    five big-int operations test every certificate at once.  The store is
    fetched once and read in place; after a flow ends ``Exceeded``, which
    kept one more, only ``low``, ``one`` and ``high`` are re-read.
    """
    pick = ws.targets.__getitem__
    counters = ws.counters
    certs = ws.certificates(bound)
    bits = certs.on
    low, one, high = certs.low, certs.one, certs.high
    last = None
    for first, second in pairs:
        if first is not last:
            last = first
            a = 0
            for i in first:
                a |= bits[i]
        b = 0
        for i in second:
            b |= bits[i]
        both = a & b
        # A field is all ones exactly when adding its lowest bit to its lower
        # bits carries into its top bit and that top bit is set; the target
        # bits below the fields are outside ``low`` and ``high``.
        if ((both & low) + one) & both & high:
            counters.certified += 1
            continue
        cut = min_vertex_separator(ws, (tuple(map(pick, first)), tuple(map(pick, second))),
                                   bound)
        if isinstance(cut, Exceeded):
            low, one, high = certs.low, certs.one, certs.high
            last = None
        elif all(cut.sizes()):
            return cut
    return None


def try_split(ws: FlowWorkspace, group_a: tuple[int, ...], group_b: tuple[int, ...],
              bound: int) -> Cut | None:
    """One candidate split: minimum cut between the two groups' super-terminals,
    where the groups are disjoint tuples of the workspace's targets.

    Each super-terminal attaches to every vertex of its group, so edges inside
    a group cannot change the cut.  Returns None when the minimum cut exceeds
    the bound or leaves one side empty; both are normal outcomes.  The groups
    are checked as a flow checks them (``ValueError``), then ruled and flowed
    by ``_first_cut``: a candidate that a kept certificate already rules out
    returns None without a flow.
    """
    ws.side_masks(group_a, group_b)
    pair = tuple(tuple(map(ws.targets.index, group)) for group in (group_a, group_b))
    return _first_cut(ws, (pair,), bound)


def _split_pairs(counters: Counters, size: int, first_size: int):
    """Each ``first_size``-subset of ``size`` target positions, in ascending
    combinadic order, paired with the other positions: the run's list
    ``counters.splits[size, first_size]``, grown by one pair when a reader
    reaches its end.  Each reader keeps its own place, so readers may interleave."""
    grown = counters.splits.get((size, first_size))
    if grown is None:
        grown = counters.splits[size, first_size] = ([], combinations(range(size), first_size))
    pairs, firsts = grown
    done = 0
    while True:
        yield from islice(pairs, done, None)
        done = len(pairs)
        first = next(firsts, None)
        if first is None:
            return
        pairs.append((first, tuple(i for i in range(size) if i not in first)))


def candidate_splits(counters: Counters, size: int, flavor: str):
    """Each ceil(size/2)-subset ``first`` of ``size`` target positions, in
    ascending combinadic order, paired with each second group tried against
    it: each ceil(size/3)-subset of ``rest``, the other positions, for rs4,
    and ``rest`` alone for half45; the ``(first, rest)`` pairs are read from
    the run's list (``_split_pairs``)."""
    pairs = _split_pairs(counters, size, _ceil_div(size, 2)) if size >= 2 else ()
    if flavor != "rs4":
        return pairs
    second = _ceil_div(size, 3)
    return ((first, group) for first, rest in pairs for group in combinations(rest, second))


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
    most ``bound``; neither side may hold more than ``share`` of the targets."""
    cut = _first_cut(ws, candidate_splits(ws.counters, len(ws.targets), flavor), bound)
    if cut is not None:
        _require(len(cut.separator) <= bound, "separator above bound")
        _require(max(_target_counts(ws.targets, cut)) <= share,
                 "side holds more than its share of the targets")
    return cut


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
    """Ordered 3-partitions of the targets ``w``, as target masks (bit ``i``
    is ``w[i]``), with min(floor(|w|/2), k) >= |p1| >= |p2| >= |p3|; sizes
    descend, subsets ascend in combinadic order."""
    size = len(w)
    bits = [1 << i for i in range(size)]
    full = (1 << size) - 1
    for s1 in range(min(size // 2, k), max(_ceil_div(size, 3), 1) - 1, -1):
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
    larger than k collapses the other two: it and its complement, read from
    the run's list (``_split_pairs``), are a two-way candidate of
    ``_first_cut`` with bound k, whose cut lists one side and leaves the
    other as its rest.  Otherwise the isolating cut approximation runs on
    the three parts with bound floor(a*k), lists two sides and leaves the
    third as its rest.  Success additionally requires two non-empty sides.

    A triple is rejected by mask first: ``ws.isolating_union`` runs the
    isolating flows the triple needs, in the order ``approx_3way_vertex_cut``
    would, and returns the union of its two cheapest cuts; only a triple
    whose union fits floor(a*k) reaches ``approx_3way_vertex_cut``, which
    would reject every other one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    w = ws.targets
    cut_bound = math.floor(alpha * k)
    per_side_limit = (1 + alpha) * k

    def fits(cut: Cut) -> bool:
        # A side and the separator are disjoint, so |(S_i & T) + X| is a sum.
        return (sum(map(bool, cut.sizes())) >= 2
                and max(_target_counts(w, cut)) + len(cut.separator) <= per_side_limit)

    size = len(w)
    collapsed = chain.from_iterable(
        _split_pairs(ws.counters, size, s1)
        for s1 in range(size // 2, max(k, _ceil_div(size, 3) - 1), -1))
    # With no first part above k there is nothing to rule: skip the call.
    while size // 2 > k and (cut := _first_cut(ws, collapsed, k)) is not None:
        if fits(cut):
            return cut
    targets_of = ws.targets_of
    isolating_union = ws.isolating_union
    for groups in _three_partitions(w, k):
        if isolating_union(groups).bit_count() > cut_bound:
            continue
        cut = approx_3way_vertex_cut(ws, *map(targets_of, groups), cut_bound)
        if fits(cut):
            return cut
    return None
