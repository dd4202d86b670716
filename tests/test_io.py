import random

import pytest

from mbv import (
    build_graph,
    generate_random_connected,
    load_graph,
    parse_dimacs,
    parse_instance,
    write_dimacs,
    write_instance,
)
from mbv.errors import (
    BadEdgeLineError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InfeasibleEdgeCountError,
    LoopEdgeError,
    MalformedHeaderError,
)
from mbv.graph import _lowpoint


def test_parse_simple_path(p4):
    assert parse_instance("4 3\n1 2\n2 3\n3 4\n") == p4


def test_parse_simple_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        parse_instance("2 1\n1 3\n")


def test_parse_simple_comments():
    g = parse_instance("# comment\n3 3\n1 2\n2 3\n1 3\n")
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_simple_errors():
    with pytest.raises(MalformedHeaderError):
        parse_instance("")
    with pytest.raises(MalformedHeaderError):
        parse_instance("4\n")
    with pytest.raises(MalformedHeaderError):
        parse_instance("a b\n")
    with pytest.raises(MalformedHeaderError):
        parse_instance("-3 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_instance("3 -1\n")
    with pytest.raises(BadEdgeLineError):
        parse_instance("2 1\n")
    with pytest.raises(BadEdgeLineError):
        parse_instance("2 1\n1 2 3\n")
    with pytest.raises(BadEdgeLineError):
        parse_instance("2 1\n1 x\n")
    with pytest.raises(LoopEdgeError):
        parse_instance("2 1\n1 1\n")
    with pytest.raises(DuplicateEdgeError):
        parse_instance("2 2\n1 2\n2 1\n")


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (parse_instance, "3 2\n1 2\n2 4\n", IndexOutOfRangeError,
         "edge line '2 4': vertex ids must lie in 1..3"),
        (parse_instance, "1 1\n1 1\n", LoopEdgeError, "edge line '1 1': "),
        (parse_instance, "2 2\n1 2\n2 1\n", DuplicateEdgeError, "edge line '2 1': "),
        (parse_dimacs, "p edge 2 1\ne 0 1\n", IndexOutOfRangeError,
         "edge line 'e 0 1': vertex ids must lie in 1..2"),
    ],
    ids=["range", "loop", "duplicate", "dimacs-range"],
)
def test_vertex_errors_quote_the_edge_line(parse, text, error, message):
    # instance files number vertices from 1, so an error names the line as
    # written, not the 0-based pair it became
    with pytest.raises(error) as caught:
        parse(text)
    assert str(caught.value).startswith(message)


def test_parse_dimacs_path():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_dimacs_missing_problem_line():
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("")


def test_parse_dimacs_comment():
    g = parse_dimacs("c x\np edge 2 1\ne 1 2\n")
    assert g.edges == ((0, 1),)


def test_parse_dimacs_errors():
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p col 3 2\ne 1 2\ne 2 3\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p edge -3 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p edge 3 -1\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p edge 3 x\n")
    with pytest.raises(BadEdgeLineError):
        parse_dimacs("p edge 2 1\ne 1\n")
    with pytest.raises(BadEdgeLineError):
        parse_dimacs("p edge 2 2\ne 1 2\n")
    with pytest.raises(BadEdgeLineError):
        parse_dimacs("p edge 2 1\nx 1 2\ne 1 2\n")
    with pytest.raises(BadEdgeLineError):
        parse_dimacs("p edge 2 1\ne 1 x\n")


def test_round_trips():
    rng = random.Random(2)
    for trial in range(20):
        n = rng.randrange(1, 15)
        m = min(n * (n - 1) // 2, max(0, n - 1 + rng.randrange(0, 5)))
        if n > 1:
            g = generate_random_connected(n, m, rng.randrange(10**6))
        else:
            g = build_graph(1, [])
        assert parse_instance(write_instance(g)) == g
        assert parse_dimacs(write_dimacs(g)) == g


def test_load_graph_sniffs_format(tmp_path):
    g = generate_random_connected(6, 8, 3)
    simple = tmp_path / "simple.graph"
    simple.write_text(write_instance(g), encoding="utf-8")
    dimacs = tmp_path / "inst.col"
    dimacs.write_text(write_dimacs(g), encoding="utf-8")
    commented = tmp_path / "commented.graph"
    commented.write_text("# generated\n" + write_instance(g), encoding="utf-8")
    assert load_graph(str(simple)) == g
    assert load_graph(str(dimacs)) == g
    assert load_graph(str(commented)) == g
    # the sniff reads the first non-whitespace character, whatever line it is on
    for name, text in (("simple.graph", write_instance(g)), ("inst.col", write_dimacs(g))):
        for lead in ("\n\n", " \t\n  \n", "   "):
            padded = tmp_path / f"padded-{name}"
            padded.write_text(lead + text, encoding="utf-8")
            assert load_graph(str(padded)) == g, (name, lead)


def test_load_graph_rejects_non_utf8(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    with pytest.raises(MalformedHeaderError, match="bad.graph"):
        load_graph(str(bad))


def test_load_graph_skips_a_byte_order_mark(tmp_path):
    # editors on some systems start UTF-8 files with a mark; it is no header
    # text, and a marked dimacs file is still sniffed as dimacs
    g = generate_random_connected(6, 8, 3)
    for name, text in (("simple.graph", write_instance(g)), ("inst.col", write_dimacs(g))):
        plain = tmp_path / name
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / f"marked-{name}"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_graph(str(marked)) == load_graph(str(plain)) == g
    utf16 = tmp_path / "utf16.graph"
    utf16.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    with pytest.raises(MalformedHeaderError, match="not UTF-8 text"):
        load_graph(str(utf16))


def test_generator_postconditions():
    g = generate_random_connected(5, 4, seed=1)
    assert g.n == 5
    assert g.m == 4
    assert _lowpoint(g.n, g.adjacency).count == 1
    dense = generate_random_connected(7, 21, seed=9)
    assert dense.m == 21


def test_generator_rejects_infeasible():
    with pytest.raises(InfeasibleEdgeCountError):
        generate_random_connected(6, 20, seed=1)
    with pytest.raises(InfeasibleEdgeCountError):
        generate_random_connected(4, 2, seed=1)
    with pytest.raises(InfeasibleEdgeCountError):
        generate_random_connected(0, 0, seed=1)


def test_generator_deterministic():
    a = generate_random_connected(30, 36, 42)
    b = generate_random_connected(30, 36, 42)
    assert a == b
    assert write_instance(a) == write_instance(b)
    assert generate_random_connected(30, 36, 43) != a
