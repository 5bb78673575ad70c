"""Property tests of the command-line contract: whatever bytes a `.gr` or
`.td` file holds, `decompose`, `validate` and `exact` end with a documented
exit code and print errors as messages, never as a traceback."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from twdecomp import Graph, decompose
from twdecomp.cli import main
from twdecomp.corpus import complete_graph, cycle_graph, grid_graph, path_graph, star_graph
from twdecomp.io import (MAX_VERTICES, ParseError, emit_decomposition, emit_graph,
                         parse_decomposition, parse_graph)

COMMANDS = (
    ("decompose", "--algo", "mindeg", "--in", "{gr}"),
    ("decompose", "--algo", "half45", "--search", "--in", "{gr}"),
    ("decompose", "--algo", "rs4", "--k", "2", "--in", "{gr}"),
    ("decompose", "--algo", "bg367", "--k", "1", "--in", "{gr}"),
    ("decompose", "--algo", "rs4", "--adaptive", "--in", "{gr}"),
    ("validate", "--graph", "{gr}", "--td", "{td}"),
    ("exact", "--in", "{gr}"),
)

SEEDS = (path_graph(5), cycle_graph(6), grid_graph(2, 3), star_graph(4), complete_graph(4),
         Graph(3))
VALID = tuple((emit_graph(g), emit_decomposition(decompose(g, "mindeg").outcome.decomposition,
                                                 g.n))
              for g in SEEDS)

# A header may be mutated to any size: the parser refuses a vertex count above
# its limit before it builds anything, and a bag count costs nothing until
# bag lines are read.  The sizes just over the limit and far over it are
# tried as whole tokens; random text stays short.
TOKENS = st.one_of(
    st.integers(-2, 16).map(str),
    st.sampled_from([str(MAX_VERTICES + 1), "100000000"]),
    st.sampled_from(["", "x", "1.5", "+3", "p", "s", "b", "c", "tw", "td", "é", "\x00"]),
    st.text(max_size=3),
)


@st.composite
def mutated(draw, text):
    """``text`` after one to three line- or token-level edits."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["token", "drop", "duplicate", "insert", "swap", "cut"]))
        if op == "token" and lines:
            tokens = lines[at].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[at] = " ".join(tokens)
        elif op == "drop" and lines:
            del lines[at]
        elif op == "duplicate" and lines:
            lines.insert(at, lines[at])
        elif op == "insert":
            lines.insert(at, " ".join(draw(st.lists(TOKENS, max_size=4))))
        elif op == "swap" and lines:
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "cut" and lines:
            lines = lines[:at]
    return "\n".join(lines)


def run_cli(command, gr: bytes, td: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"gr": Path(tmp) / "g.gr", "td": Path(tmp) / "g.td"}
        paths["gr"].write_bytes(gr)
        paths["td"].write_bytes(td)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.format(**paths) for arg in command])
    messages = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (code, messages)
    assert "Traceback" not in err.getvalue()
    assert all(line.startswith(("error: ", "warning: ")) for line in messages), messages
    assert (code == 2) == any(line.startswith("error: ") for line in messages), messages
    return code


def assert_round_trip(gr: str, td: str) -> None:
    """Emitting what parses, then parsing and emitting again, changes nothing."""
    try:
        g = parse_graph(gr).graph
    except ParseError:
        pass
    else:
        text = emit_graph(g)
        assert emit_graph(parse_graph(text).graph) == text
    try:
        parsed = parse_decomposition(td)
    except ParseError:
        return
    text = emit_decomposition(parsed.decomposition, parsed.declared_vertices)
    again = parse_decomposition(text)
    assert emit_decomposition(again.decomposition, again.declared_vertices) == text


@settings(max_examples=200)
@given(st.sampled_from(COMMANDS), st.binary(max_size=200), st.binary(max_size=200))
def test_cli_survives_arbitrary_bytes(command, gr, td):
    run_cli(command, gr, td)


@settings(max_examples=250)
@given(st.sampled_from(COMMANDS), st.sampled_from(VALID), st.data())
def test_cli_survives_mutated_valid_files(command, valid, data):
    gr, td = valid
    which = data.draw(st.sampled_from(["gr", "td", "both"]))
    if which != "td":
        gr = data.draw(mutated(gr))
    if which != "gr":
        td = data.draw(mutated(td))
    run_cli(command, gr.encode(), td.encode())
    assert_round_trip(gr, td)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else [])


@settings(max_examples=60)
@given(graphs(), st.sampled_from(["mindeg", "rs4", "half45", "bg367"]))
def test_valid_files_survive_parse_and_emit(g, algo):
    gr = emit_graph(g)
    assert emit_graph(parse_graph(gr).graph) == gr
    mode = {} if algo == "mindeg" else {"search": True}
    td = emit_decomposition(decompose(g, algo, **mode).outcome.decomposition, g.n)
    parsed = parse_decomposition(td)
    assert emit_decomposition(parsed.decomposition, parsed.declared_vertices) == td
    assert run_cli(("validate", "--graph", "{gr}", "--td", "{td}"), gr.encode(),
                   td.encode()) == 0
