import csv
import random
import time

import pytest

from twdecomp import check_tree_decomposition, decompose
from twdecomp.cli import main
from twdecomp.corpus import (complete_graph, cycle_graph, grid_graph, k_tree, path_graph,
                             star_graph)
from twdecomp.io import (MAX_VERTICES, ParseError, append_report, emit_decomposition,
                         emit_graph, parse_decomposition, parse_graph)


def test_parse_small_path():
    parsed = parse_graph("p tw 3 2\n1 2\n2 3\n")
    assert parsed.graph.edges() == ((0, 1), (1, 2))
    assert parsed.warnings == ()


def test_parse_drops_self_loop_with_warning():
    parsed = parse_graph("p tw 3 3\n1 2\n3 3\n2 3\n")
    assert parsed.graph.edges() == ((0, 1), (1, 2))
    assert len(parsed.warnings) == 1 and "self-loop" in parsed.warnings[0]


def test_parse_drops_duplicate_with_warning():
    parsed = parse_graph("p tw 3 3\n1 2\n2 1\n2 3\n")
    assert parsed.graph.m == 2
    assert any("duplicate" in w for w in parsed.warnings)


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_graph("p tw 4 5\n1 2\n2 3\n3 4\n1 4\n")
    assert "declares 5" in str(err.value) and "found 4" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_graph("p tw 3 2\n1 2\nbogus line here\n")
    assert err.value.line == 3


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(ParseError):
        parse_graph("p tw 3 1\n1 4\n")


def test_parse_requires_header_first():
    with pytest.raises(ParseError):
        parse_graph("1 2\np tw 2 1\n")


def test_parse_refuses_a_header_above_the_vertex_limit():
    for n in (MAX_VERTICES + 1, 10**8):
        with pytest.raises(ParseError, match=f"declares {n} vertices") as err:
            parse_graph(f"c big\np tw {n} 0\n")
        assert err.value.line == 2
    with pytest.raises(ParseError, match="limit of 5"):
        parse_graph("p tw 6 1\n1 2\n", 5)
    assert parse_graph("p tw 5 1\n1 2\n", 5).graph.n == 5


def test_graph_round_trip():
    g = grid_graph(3, 3)
    again = parse_graph(emit_graph(g)).graph
    assert again == g


def test_emit_single_bag_triangle():
    from twdecomp import TreeDecomposition

    td = TreeDecomposition.from_bags([(0, 1, 2)], [])
    assert emit_decomposition(td, 3) == "s td 1 3 3\nb 1 1 2 3\n"


def test_emit_two_bag_path():
    from twdecomp import TreeDecomposition

    td = TreeDecomposition.from_bags([(0, 1), (1, 2)], [(0, 1)])
    text = emit_decomposition(td, 3)
    assert text == "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    parsed = parse_decomposition(text)
    assert check_tree_decomposition(path_graph(3), parsed.decomposition) == []


def test_decomposition_round_trip_validates():
    g = cycle_graph(9)
    res = decompose(g, "rs4", search=True)
    td = res.outcome.decomposition
    text = emit_decomposition(td, g.n)
    parsed = parse_decomposition(text)
    assert parsed.declared_vertices == g.n
    assert check_tree_decomposition(g, parsed.decomposition) == []
    assert parsed.decomposition.width == td.width


def test_emission_is_byte_stable():
    g = grid_graph(2, 5)
    first = decompose(g, "half45", search=True)
    second = decompose(g, "half45", search=True)
    a = emit_decomposition(first.outcome.decomposition, g.n)
    b = emit_decomposition(second.outcome.decomposition, g.n)
    assert a == b


def test_parse_decomposition_canonicalises_unsorted_bags():
    # Bag lines may list their vertices in any order and repeat one: each bag
    # comes out as its vset, and an ascending bag line as itself.
    parsed = parse_decomposition("s td 3 3 4\nb 1 3 1 2 1\nb 2 2 3\nb 3 4 4 3\n1 2\n2 3\n")
    assert parsed.decomposition.bags == ((0, 1, 2), (1, 2), (2, 3))
    assert parsed.decomposition.width == 2


def test_parse_decomposition_rejects_missing_bag():
    with pytest.raises(ParseError):
        parse_decomposition("s td 2 1 2\nb 1 1\n1 2\n")


@pytest.mark.parametrize("text", [
    "   c a comment after spaces\ns td 2 2 3\n\tc and after a tab\nb 1 1 2\nb 2 2 3\n1 2\n",
    "s\ttd\t2\t2\t3\nb\t1\t1\t2\nb 2\t2 3\n1\t2\n",
    "\n\ns td 2 2 3\n\nb 1 1 2\n   \nb 2 2 3\n\t\n1 2\n\n",
], ids=["indented-comments", "tabs", "blank-lines"])
def test_parse_decomposition_skips_comments_and_reads_any_whitespace(text):
    parsed = parse_decomposition(text)
    assert parsed.decomposition.bags == ((0, 1), (1, 2))
    assert parsed.decomposition.tree_edges == ((0, 1),)
    assert (parsed.declared_vertices, parsed.declared_max_bag) == (3, 2)


@pytest.mark.parametrize("text, line, message", [
    ("  c x\ns td 1 1 1\nb 1 1\n   c y\n1 q\n", 5,
     "non-integer tree edge line: '1 q'"),
    ("s\ttd\t2\t2\t3\nb\t1\t1\tx\n", 2, "malformed bag line: 'b\\t1\\t1\\tx'"),
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n\t1\tx \n", 4,
     "non-integer tree edge line: '1\\tx'"),
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1\t3\n", 4,
     "tree edge index out of range: '1\\t3'"),
    ("\n\ns td 2 2 3\n\n b 1 1 2 3 x \n", 5, "malformed bag line: 'b 1 1 2 3 x'"),
    ("\nb 1 1 2\ns td 1 2 2\n", 2, "content before solution line"),
    ("s td 1 1 1\nb\n", 2, "malformed bag line: 'b'"),
    ("s td 1 1 1\n  b   \n", 2, "malformed bag line: 'b'"),
    ("s td 1 2 2\nb 1 1 x\n", 2, "malformed bag line: 'b 1 1 x'"),
    ("s td 1 2 2\n\tb 1 1 2.0  \n", 2, "malformed bag line: 'b 1 1 2.0'"),
    ("s td 1 2 2\nb 5 1 x\n", 2, "malformed bag line: 'b 5 1 x'"),
    ("  s td 1 2  \n", 1, "malformed solution line: 's td 1 2'"),
    (" s td 1 x 3 \n", 1, "non-integer solution fields: 's td 1 x 3'"),
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n 1 2 3 \n", 4, "malformed tree edge line: '1 2 3'"),
    ("s td 1 1 1\r\nb 1 1 z\r\n", 2, "malformed bag line: 'b 1 1 z'"),
], ids=["indented-comments", "tab-bag", "tab-edge", "tab-edge-range", "blank-lines",
        "bag-before-header", "b-without-index", "b-padded", "non-integer-vertex",
        "float-vertex", "bad-vertex-before-index-range", "short-header",
        "non-integer-header", "long-edge", "crlf"])
def test_parse_decomposition_error_messages_and_lines(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_decomposition(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, line, message", [
    ("p tw 10 1\n1_0 2\n", 2, "non-integer edge line: '1_0 2'"),
    ("p tw 3 1\n\u0661 2\n", 2, "non-integer edge line: '\u0661 2'"),
    ("p tw 3 1\n1 \uff12\n", 2, "non-integer edge line: '1 \uff12'"),
    ("c \u00e9t\u00e9\np tw 1_0 0\n", 2, "non-integer header fields: 'p tw 1_0 0'"),
], ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "header-underscore"])
def test_parse_graph_reads_ascii_digits_only(text, line, message):
    # ``int`` reads "1_0" as 10 and "\u0661" as 1; the format does not.
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_graph_keeps_signs_and_unicode_outside_integers():
    # A sign is still read (so negative counts get their own message), and
    # a comment or a separator outside the integers may be any text.
    parsed = parse_graph("c \u00e9t\u00e9\np tw +3 1\n+1\u00a02\n")
    assert parsed.graph.n == 3 and parsed.graph.edges() == ((0, 1),)
    with pytest.raises(ParseError, match="line 1: negative counts in header"):
        parse_graph("p tw -3 0\n")


@pytest.mark.parametrize("text, line, message", [
    ("s td 1 1 40\nb 1 4_0\n", 2, "malformed bag line: 'b 1 4_0'"),
    ("s td 1 1 3\nb \u0661 1\n", 2, "malformed bag line: 'b \u0661 1'"),
    ("s td 2 1 3\nb 1 1\nb 2 2\n1 2_0\n", 4, "non-integer tree edge line: '1 2_0'"),
    ("s td 1 1 \u0663\n", 1, "non-integer solution fields: 's td 1 1 \u0663'"),
], ids=["bag-vertex", "bag-index", "tree-edge", "solution-field"])
def test_parse_decomposition_reads_ascii_digits_only(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_decomposition(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_report_rows_append_with_stable_schema(tmp_path):
    path = tmp_path / "report.csv"
    res = decompose(path_graph(6), "mindeg", graph_name="p6")
    append_report(str(path), res.report)
    res2 = decompose(cycle_graph(6), "rs4", search=True, graph_name="c6")
    append_report(str(path), res2.report)
    res3 = decompose(complete_graph(6), "rs4", k=1, graph_name="k6")
    append_report(str(path), res3.report)
    with path.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["graph", "n", "m", "algo", "mode", "k_used", "width_plus_one",
                       "separator_calls", "flow_augmentations", "wall_ms", "certified"]
    assert len(rows) == 4
    # Every cell is its column's report field; a rejection has no width.
    assert res3.report.width_plus_one is None
    for row, report in zip(rows[1:], (res.report, res2.report, res3.report)):
        assert row == ["" if getattr(report, name) is None else str(getattr(report, name))
                       for name in rows[0]]


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(emit_graph(g))
    return path


def test_cli_decompose_mindeg(tmp_path, capsys):
    gr = write_graph(tmp_path, "p10.gr", path_graph(10))
    out = tmp_path / "p10.td"
    rc = main(["decompose", "--algo", "mindeg", "--in", str(gr), "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "s td 10 2 10"


def test_cli_decompose_rejection_exit_code(tmp_path, capsys):
    gr = write_graph(tmp_path, "k10.gr", complete_graph(10))
    rc = main(["decompose", "--algo", "rs4", "--k", "2", "--in", str(gr)])
    assert rc == 3
    assert capsys.readouterr().out.strip() == "the treewidth exceeds 1"


def test_cli_decompose_requires_one_mode(tmp_path):
    gr = write_graph(tmp_path, "p4.gr", path_graph(4))
    assert main(["decompose", "--algo", "rs4", "--in", str(gr)]) == 2
    assert main(["decompose", "--algo", "rs4", "--in", str(gr),
                 "--k", "2", "--search"]) == 2


def test_cli_decompose_is_deterministic(tmp_path):
    gr = write_graph(tmp_path, "c12.gr", cycle_graph(12))
    out1, out2 = tmp_path / "a.td", tmp_path / "b.td"
    assert main(["decompose", "--algo", "rs4", "--search", "--in", str(gr),
                 "--out", str(out1)]) == 0
    assert main(["decompose", "--algo", "rs4", "--search", "--in", str(gr),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 3 9\n1 2\n")
    rc = main(["decompose", "--algo", "mindeg", "--in", str(bad)])
    assert rc == 2


def test_cli_rejects_integer_forms_outside_the_format(tmp_path, capsys):
    # Read by ``int``, the bag vertex "4_0" would be vertex 40, unknown to
    # the graph: a violation (exit 1) instead of a parse error (exit 2).
    gr = write_graph(tmp_path, "p3.gr", path_graph(3))
    td = tmp_path / "p3.td"
    td.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 4_0\n1 2\n")
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {td}: line 3: malformed bag line: 'b 2 2 4_0'\n"
    assert captured.out == ""
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 10 1\n1_0 2\n")
    assert main(["decompose", "--algo", "mindeg", "--in", str(bad)]) == 2
    assert "line 2: non-integer edge line: '1_0 2'" in capsys.readouterr().err


def test_cli_validate_accepts_and_rejects(tmp_path, capsys):
    gr = write_graph(tmp_path, "c6.gr", cycle_graph(6))
    td = tmp_path / "c6.td"
    assert main(["decompose", "--algo", "half45", "--search", "--in", str(gr),
                 "--out", str(td), "--report", str(tmp_path / "r.csv")]) == 0
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 0
    # corrupt one bag line: drop a vertex
    lines = td.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("b") and len(line.split()) > 3:
            lines[i] = " ".join(line.split()[:-1])
            break
    td.write_text("\n".join(lines) + "\n")
    rc = main(["validate", "--graph", str(gr), "--td", str(td)])
    assert rc == 1
    assert "violation" in capsys.readouterr().out


def test_cli_validate_at_scale(tmp_path, capsys):
    # A 3000-vertex 4-tree and its min-degree decomposition: valid, then one
    # vertex dropped from an interior bag of its subtree splits the subtree.
    g = k_tree(3000, 4, random.Random(3000))
    gr = write_graph(tmp_path, "kt.gr", g)
    td = decompose(g, "mindeg").outcome.decomposition
    path = tmp_path / "kt.td"
    path.write_text(emit_decomposition(td, g.n))
    assert main(["validate", "--graph", str(gr), "--td", str(path)]) == 0
    assert capsys.readouterr().out == "valid: width 4\n"

    adj = {i: [] for i in range(len(td.bags))}
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    v, i = next((v, i) for i, bag in enumerate(td.bags) for v in bag
                if sum(v in td.bags[j] for j in adj[i]) >= 2)
    lines = path.read_text().splitlines()
    lines[1 + i] = " ".join(["b", str(i + 1)] + [str(u + 1) for u in td.bags[i] if u != v])
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--graph", str(gr), "--td", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"bags containing vertex {v} are not connected" in out
    assert out[-1].startswith("invalid: ")


def test_cli_exact(tmp_path, capsys):
    gr = write_graph(tmp_path, "g.gr", grid_graph(3, 3))
    assert main(["exact", "--in", str(gr)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    big = write_graph(tmp_path, "big.gr", path_graph(20))
    assert main(["exact", "--in", str(big)]) == 2
    capsys.readouterr()
    # The header alone decides: the bad edge line after it is never read.
    big.write_text("p tw 15 1\nnot an edge\n")
    assert main(["exact", "--in", str(big)]) == 2
    assert capsys.readouterr().err == (f"error: {big}: line 1: header declares 15 "
                                       "vertices, more than the limit of 14\n")


@pytest.mark.parametrize("command", [
    ["decompose", "--algo", "mindeg", "--in", "{gr}"],
    ["decompose", "--algo", "half45", "--search", "--in", "{gr}"],
    ["validate", "--graph", "{gr}", "--td", "{td}"],
    ["exact", "--in", "{gr}"],
], ids=["decompose-mindeg", "decompose-half45", "validate", "exact"])
def test_cli_refuses_a_huge_header_at_once(tmp_path, capsys, command):
    gr, td = tmp_path / "huge.gr", tmp_path / "huge.td"
    gr.write_text("p tw 100000000 0\n")
    td.write_text("s td 1 0 100000000\nb 1\n")
    start = time.perf_counter()
    assert main([arg.format(gr=gr, td=td) for arg in command]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gr}: line 1: header declares 100000000 vertices")


def test_cli_bench_produces_one_row_per_cell(tmp_path, capsys):
    graphs = {
        "p8": path_graph(8),
        "c9": cycle_graph(9),
        "g23": grid_graph(2, 3),
        "s5": star_graph(5),
        "t7": complete_graph(4),
    }
    for name, g in graphs.items():
        write_graph(tmp_path, f"{name}.gr", g)
    report = tmp_path / "bench.csv"
    rc = main(["bench", "--dir", str(tmp_path), "--algos", "mindeg,half45,rs4",
               "--report", str(report)])
    assert rc == 0
    with report.open() as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 15
    assert rows[0][:5] == ["graph", "n", "m", "algo", "mode"]
    cells = {(r[0], r[3]) for r in rows[1:]}
    assert len(cells) == 15
    widths = {r[0]: r[6] for r in rows[1:] if r[3] == "mindeg"}
    assert widths["p8"] == "2"


def test_cli_bench_rejects_unknown_algo(tmp_path):
    write_graph(tmp_path, "p4.gr", path_graph(4))
    assert main(["bench", "--dir", str(tmp_path), "--algos", "nope",
                 "--report", str(tmp_path / "r.csv")]) == 2


def test_cli_bench_rejects_an_empty_algorithm_list(tmp_path, capsys):
    write_graph(tmp_path, "p4.gr", path_graph(4))
    report = tmp_path / "r.csv"
    for algos in (",", "", " , "):
        assert main(["bench", "--dir", str(tmp_path), "--algos", algos,
                     "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: no algorithms given\n"
        assert out == "" and not report.exists()


def test_cli_adaptive_and_alpha(tmp_path):
    gr = write_graph(tmp_path, "c10.gr", cycle_graph(10))
    td = tmp_path / "c10.td"
    assert main(["decompose", "--algo", "half45", "--adaptive", "--in", str(gr),
                 "--out", str(td)]) == 0
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 0
    assert main(["decompose", "--algo", "bg367", "--search", "--alpha", "3/2",
                 "--in", str(gr), "--out", str(td)]) == 0
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--algo", "generic", "--search", "--in", str(gr),
              "--out", str(td)])
    assert exc.value.code == 2
    assert main(["decompose", "--algo", "bg367", "--search", "--alpha", "zero/oops",
                 "--in", str(gr)]) == 2


@pytest.mark.parametrize("args", [
    ["--algo", "rs4", "--k", "0"],
    ["--algo", "half45", "--k", "-1"],
    ["--algo", "bg367", "--adaptive"],
    ["--algo", "bg367", "--search", "--alpha", "1/2"],
    ["--algo", "rs4", "--search", "--alpha", "3/2"],
    ["--algo", "half45", "--k", "3", "--alpha", "4/3"],
    ["--algo", "mindeg", "--alpha", "4/3"],
    ["--algo", "mindeg", "--k", "3"],
    ["--algo", "mindeg", "--search"],
    ["--algo", "mindeg", "--adaptive"],
], ids=["k0", "k-1", "bg367-adaptive", "alpha-below-1", "alpha-rs4", "alpha-half45",
        "alpha-mindeg", "k-mindeg", "search-mindeg", "adaptive-mindeg"])
def test_cli_decompose_parameter_errors(tmp_path, capsys, args):
    gr = write_graph(tmp_path, "c10.gr", cycle_graph(10))
    assert main(["decompose", *args, "--in", str(gr)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("td_text, line", [
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 x\n", 4),
    ("s td 2 x 3\nb 1 1 2\nb 2 2 3\n1 2\n", 1),
], ids=["tree-edge", "solution-header"])
def test_cli_validate_non_integer_fields(tmp_path, capsys, td_text, line):
    gr = write_graph(tmp_path, "p3.gr", path_graph(3))
    td = tmp_path / "p3.td"
    td.write_text(td_text)
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line {line}: non-integer" in err


@pytest.mark.parametrize("header", ["s td -1 0 3", "s td 2 -2 3", "s td 2 2 -3"],
                         ids=["bags", "max-bag", "vertices"])
def test_cli_validate_rejects_negative_header_counts(tmp_path, capsys, header):
    gr = write_graph(tmp_path, "p3.gr", path_graph(3))
    td = tmp_path / "p3.td"
    td.write_text(header + "\n")
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "line 1: negative counts in solution line" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("declared", [99, 1, 0])
def test_cli_validate_reports_wrong_declared_max_bag(tmp_path, capsys, declared):
    gr = write_graph(tmp_path, "p3.gr", path_graph(3))
    td = tmp_path / "p3.td"
    td.write_text(f"s td 2 {declared} 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"max bag size mismatch: bags hold at most 2, decomposition declares {declared}",
                   "invalid: 1 violation(s)"]


@pytest.mark.parametrize("command, bad", [
    (["decompose", "--algo", "mindeg", "--in", "{gr}"], "gr"),
    (["validate", "--graph", "{gr}", "--td", "{td}"], "gr"),
    (["validate", "--graph", "{gr}", "--td", "{td}"], "td"),
    (["exact", "--in", "{gr}"], "gr"),
    (["bench", "--dir", "{dir}", "--report", "{dir}/r.csv"], "gr"),
], ids=["decompose", "validate-graph", "validate-td", "exact", "bench"])
def test_cli_rejects_input_that_is_not_utf8(tmp_path, capsys, command, bad):
    paths = {"gr": write_graph(tmp_path, "p3.gr", path_graph(3)), "td": tmp_path / "p3.td",
             "dir": tmp_path}
    paths["td"].write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    paths[bad].write_bytes(paths[bad].read_bytes() + b"c \xff\xfe\n")
    args = [arg.format(**paths) for arg in command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {paths[bad]}: ")
    assert "codec can't decode" in captured.err


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_cli_decompose_reports_unwritable_outputs(tmp_path, capsys, flag):
    gr = write_graph(tmp_path, "p3.gr", path_graph(3))
    target = tmp_path / "missing" / "x"
    assert main(["decompose", "--algo", "mindeg", "--in", str(gr), flag, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"


def test_cli_bench_reports_an_unwritable_report(tmp_path, capsys):
    write_graph(tmp_path, "p3.gr", path_graph(3))
    target = tmp_path / "missing" / "r.csv"
    assert main(["bench", "--dir", str(tmp_path), "--algos", "mindeg",
                 "--report", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_cli_reports_an_unreadable_input(tmp_path, capsys):
    missing = tmp_path / "missing.gr"
    assert main(["decompose", "--algo", "mindeg", "--in", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {missing}: ")
    assert captured.out == ""


def test_cli_validate_reports_a_vertex_count_mismatch(tmp_path, capsys):
    gr = write_graph(tmp_path, "p3.gr", path_graph(3))
    td = tmp_path / "p3.td"
    td.write_text("s td 2 2 4\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["vertex count mismatch: graph has 3, decomposition declares 4",
                   "invalid: 1 violation(s)"]


def test_cli_bench_rejects_a_directory_without_graphs(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("p tw 2 1\n1 2\n")
    report = tmp_path / "r.csv"
    assert main(["bench", "--dir", str(tmp_path), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no .gr files under {tmp_path}\n"
    assert captured.out == "" and not report.exists()


def test_cli_validate_names_only_the_first_missing_bags(tmp_path, capsys):
    # A 20-byte file may declare a billion bags; the error must not list or
    # even enumerate them all.
    gr = write_graph(tmp_path, "p1.gr", path_graph(1))
    td = tmp_path / "huge.td"
    td.write_text(f"s td {10**9} 1 1\nb 1 1\n")
    start = time.perf_counter()
    assert main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err == (f"error: {td}: line 0: missing bag lines: [2, 3, 4, 5, 6] "
                   "and 999999994 more\n")
    assert elapsed < 0.5
