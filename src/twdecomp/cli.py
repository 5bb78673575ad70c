"""Command-line surface: decompose, validate, exact, bench.

Exit codes: 0 success, 1 validation failure, 2 parse or input errors,
3 rejection in fixed-k mode.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .io import (MAX_VERTICES, ParseError, append_report, emit_decomposition,
                 parse_decomposition, parse_graph)
from .separators import DEFAULT_ALPHA
from .triangulate import ALGORITHMS, TriangSuccess, decompose
from .validate import EXACT_MAX_VERTICES, check_tree_decomposition, exact_treewidth


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twdecomp",
                                     description="Tree decompositions with width guarantees")
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="triangulate a graph and emit a decomposition")
    dec.add_argument("--algo", required=True, choices=ALGORITHMS)
    dec.add_argument("--k", type=int)
    dec.add_argument("--search", action="store_true")
    dec.add_argument("--adaptive", action="store_true")
    dec.add_argument("--alpha", help="bg367 only (default 4/3)")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", dest="outfile")
    dec.add_argument("--report", dest="report")

    val = sub.add_parser("validate", help="check a decomposition against its graph")
    val.add_argument("--graph", required=True)
    val.add_argument("--td", required=True)

    exa = sub.add_parser("exact", help="exact treewidth of a small graph (n <= 14)")
    exa.add_argument("--in", dest="infile", required=True)

    ben = sub.add_parser("bench", help="run algorithms over a directory of graphs")
    ben.add_argument("--dir", required=True)
    ben.add_argument("--algos", default="mindeg,half45,rs4")
    ben.add_argument("--report", required=True)
    return parser


def _load_graph(path: str, max_vertices: int = MAX_VERTICES):
    try:
        parsed = parse_graph(Path(path).read_text(encoding="utf-8"), max_vertices)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except (UnicodeDecodeError, ParseError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    for note in parsed.warnings:
        print(f"warning: {path}: {note}", file=sys.stderr)
    return parsed


def _write(path: str, write) -> bool:
    """Call ``write(path)``; on an OS error print an error line, return False."""
    try:
        write(path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_decompose(args) -> int:
    parsed = _load_graph(args.infile)
    if parsed is None:
        return 2
    modes = sum(1 for flag in (args.k is not None, args.search, args.adaptive) if flag)
    if args.algo == "mindeg" and modes:
        print("error: --k, --search and --adaptive do not apply to --algo mindeg",
              file=sys.stderr)
        return 2
    if args.algo != "mindeg" and modes != 1:
        print("error: choose exactly one of --k, --search, --adaptive", file=sys.stderr)
        return 2
    if args.alpha is not None and args.algo != "bg367":
        print("error: --alpha applies to --algo bg367 only", file=sys.stderr)
        return 2
    try:
        alpha = Fraction(DEFAULT_ALPHA if args.alpha is None else args.alpha)
    except (ValueError, ZeroDivisionError):
        print(f"error: bad --alpha value {args.alpha!r}", file=sys.stderr)
        return 2
    try:
        result = decompose(parsed.graph, args.algo, k=args.k, search=args.search,
                           adaptive=args.adaptive, alpha=alpha,
                           graph_name=Path(args.infile).stem)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(result.outcome, TriangSuccess):
        print(result.outcome.message)
        return 3
    text = emit_decomposition(result.outcome.decomposition, parsed.graph.n)
    if args.outfile:
        if not _write(args.outfile, lambda path: Path(path).write_text(text)):
            return 2
    else:
        sys.stdout.write(text)
    if args.report and not _write(args.report,
                                  lambda path: append_report(path, result.report)):
        return 2
    return 0


def _cmd_validate(args) -> int:
    parsed = _load_graph(args.graph)
    if parsed is None:
        return 2
    try:
        td_parsed = parse_decomposition(Path(args.td).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"error: {args.td}: {exc}", file=sys.stderr)
        return 2
    td = td_parsed.decomposition
    violations = check_tree_decomposition(parsed.graph, td)
    mismatches = []
    if td_parsed.declared_vertices != parsed.graph.n:
        mismatches.append(f"vertex count mismatch: graph has {parsed.graph.n}, "
                          f"decomposition declares {td_parsed.declared_vertices}")
    if td_parsed.declared_max_bag != td.width + 1:
        mismatches.append(f"max bag size mismatch: bags hold at most {td.width + 1}, "
                          f"decomposition declares {td_parsed.declared_max_bag}")
    if violations or mismatches:
        for line in mismatches:
            print(line)
        for v in violations:
            print(v.message)
        print(f"invalid: {len(violations) + len(mismatches)} violation(s)")
        return 1
    print(f"valid: width {td.width}")
    return 0


def _cmd_exact(args) -> int:
    # The header is checked against the oracle's limit before a graph is built.
    parsed = _load_graph(args.infile, EXACT_MAX_VERTICES)
    if parsed is None:
        return 2
    try:
        width = exact_treewidth(parsed.graph)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(width)
    return 0


def _cmd_bench(args) -> int:
    root = Path(args.dir)
    files = sorted(root.glob("*.gr"))
    if not files:
        print(f"error: no .gr files under {root}", file=sys.stderr)
        return 2
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        print("error: no algorithms given", file=sys.stderr)
        return 2
    for algo in algos:
        if algo not in ALGORITHMS:
            print(f"error: unknown algorithm {algo!r}", file=sys.stderr)
            return 2
    for path in files:
        parsed = _load_graph(str(path))
        if parsed is None:
            return 2
        for algo in algos:
            if algo == "mindeg":
                result = decompose(parsed.graph, algo, graph_name=path.stem)
            else:
                result = decompose(parsed.graph, algo, search=True, graph_name=path.stem)
            if not _write(args.report, lambda path: append_report(path, result.report)):
                return 2
            width = result.report.width_plus_one
            print(f"{path.stem} {algo}: width+1={width} "
                  f"k={result.k_used} {result.report.wall_ms:.0f}ms")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "decompose":
        return _cmd_decompose(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "exact":
        return _cmd_exact(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
