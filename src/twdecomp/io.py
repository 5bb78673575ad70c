"""PACE-style graph and decomposition formats, plus benchmark report rows.

Graphs travel as ``.gr`` text (header ``p tw <n> <m>``, one 1-based edge per
line), decompositions as ``.td`` text (header ``s td <bags> <max bag> <n>``,
``b <id> <vertices>`` lines, then tree edges).  Emission is byte-stable.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields
from itertools import count, islice

from .graph import Graph
from .triangulate import AlgoReport, TreeDecomposition

# The most vertices a ``.gr`` header may declare.  A decompose of n isolated
# vertices peaks at about 670 bytes of memory per vertex, so a header at the
# limit costs at most about 0.7 GB, and a larger one is refused before
# anything is built.
MAX_VERTICES = 10**6


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ParsedGraph:
    graph: Graph
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class ParsedDecomposition:
    decomposition: TreeDecomposition
    declared_vertices: int
    declared_max_bag: int


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no underscore.  ``int`` then reads
    each of its fields only as the formats write an integer, ASCII digits
    with an optional sign, so no field needs a look of its own."""
    return text.isascii() and "_" not in text


def _check_digits(fields: list[str]) -> None:
    """Raise ValueError at a field that ``int`` would read although the
    formats do not allow it: one with an underscore or a non-ASCII digit."""
    for x in fields:
        if not _plain(x):
            raise ValueError(x)


def _ints(lineno: int, fields: list[str], what: str, line: str, plain: bool) -> list[int]:
    try:
        if not plain:
            _check_digits(fields)
        return list(map(int, fields))
    except ValueError:
        raise ParseError(lineno, f"non-integer {what}: {line.strip()!r}")


def parse_graph(text: str, max_vertices: int = MAX_VERTICES) -> ParsedGraph:
    """Parse ``.gr`` text; duplicates and self-loops are dropped with a warning.

    A header that declares more than ``max_vertices`` vertices is an error.
    """
    plain = _plain(text)
    n = None
    declared_m = 0
    header_line = 0
    edge_lines = 0
    edges: set[tuple[int, int]] = set()
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header line")
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(lineno, f"malformed header: {line!r}")
            n, declared_m = _ints(lineno, parts[2:], "header fields", line, plain)
            if n < 0 or declared_m < 0:
                raise ParseError(lineno, "negative counts in header")
            if n > max_vertices:
                raise ParseError(lineno, f"header declares {n} vertices, "
                                         f"more than the limit of {max_vertices}")
            header_line = lineno
            continue
        if n is None:
            raise ParseError(lineno, "edge line before header")
        if len(parts) != 2:
            raise ParseError(lineno, f"malformed edge line: {line!r}")
        u, v = _ints(lineno, parts, "edge line", line, plain)
        edge_lines += 1
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"vertex id out of range: {line!r}")
        if u == v:
            warnings.append(f"line {lineno}: dropped self-loop at {u}")
            continue
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in edges:
            warnings.append(f"line {lineno}: dropped duplicate edge {u} {v}")
            continue
        edges.add(key)
    if n is None:
        raise ParseError(0, "missing header line")
    if edge_lines != declared_m:
        raise ParseError(header_line,
                         f"header declares {declared_m} edges but found {edge_lines}")
    return ParsedGraph(Graph(n, sorted(edges)), tuple(warnings))


def emit_graph(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"c {comment}")
    lines.append(f"p tw {g.n} {g.m}")
    for u, v in g.edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def emit_decomposition(td: TreeDecomposition, n: int) -> str:
    """Serialize a decomposition; identical inputs yield identical bytes."""
    max_bag = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        row = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i} {row}".rstrip())
    for a, b in sorted((min(e), max(e)) for e in td.tree_edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> ParsedDecomposition:
    # Each line is split once; it is stripped only to quote it in an error.
    # A text that is plain throughout needs no look at its fields.
    plain = _plain(text)
    header = None
    bags: dict[int, list[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "s":
            if header is not None:
                raise ParseError(lineno, "duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(lineno, f"malformed solution line: {raw.strip()!r}")
            header = _ints(lineno, parts[2:], "solution fields", raw, plain)
            if min(header) < 0:
                raise ParseError(lineno, "negative counts in solution line")
            continue
        if header is None:
            raise ParseError(lineno, "content before solution line")
        if parts[0] == "b":
            try:
                idx = int(parts[1])
                verts = [int(x) - 1 for x in parts[2:]]
                if not plain:
                    _check_digits(parts)
            except (ValueError, IndexError):
                raise ParseError(lineno, f"malformed bag line: {raw.strip()!r}")
            if not (1 <= idx <= header[0]):
                raise ParseError(lineno, f"bag index out of range: {idx}")
            if idx in bags:
                raise ParseError(lineno, f"duplicate bag {idx}")
            bags[idx] = verts
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"malformed tree edge line: {raw.strip()!r}")
        try:
            if not plain:
                _check_digits(parts)
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer tree edge line: {raw.strip()!r}")
        if not (1 <= a <= header[0] and 1 <= b <= header[0]):
            raise ParseError(lineno, f"tree edge index out of range: {raw.strip()!r}")
        edges.append((a - 1, b - 1))
    if header is None:
        raise ParseError(0, "missing solution line")
    n_bags, max_bag, n_vertices = header
    # Every bag id read lies in 1..n_bags and none repeats, so a short count
    # means bags are missing; the declared count may dwarf the file, so only
    # the first few missing ids are named.
    if len(bags) != n_bags:
        absent = n_bags - len(bags)
        first = list(islice((i for i in count(1) if i not in bags), min(absent, 5)))
        more = f" and {absent - len(first)} more" if absent > len(first) else ""
        raise ParseError(0, f"missing bag lines: {first}{more}")
    ordered = tuple(bags[i] for i in range(1, n_bags + 1))
    td = TreeDecomposition.from_bags(ordered, edges)
    return ParsedDecomposition(td, n_vertices, max_bag)


REPORT_COLUMNS = tuple(f.name for f in fields(AlgoReport))


def append_report(path: str, report: AlgoReport) -> None:
    """Append one CSV row, writing the header when the file is new."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as handle:
        writer = csv.writer(handle)
        if fresh:
            writer.writerow(REPORT_COLUMNS)
        values = (getattr(report, name) for name in REPORT_COLUMNS)
        writer.writerow(["" if value is None else value for value in values])
