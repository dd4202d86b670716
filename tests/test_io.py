import random
import re
import tracemalloc

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
    DisconnectedInputError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InfeasibleEdgeCountError,
    LoopEdgeError,
    MalformedHeaderError,
)
from mbv.graph import _lowpoint


def _whole(message: str) -> str:
    """A ``pytest.raises`` pattern that matches exactly ``message``."""
    return f"^{re.escape(message)}$"


def test_parse_simple_path(p4):
    assert parse_instance("4 3\n1 2\n2 3\n3 4\n") == p4


def test_parse_simple_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        parse_instance("2 1\n1 3\n")


def test_parse_simple_comments():
    g = parse_instance("# comment\n3 3\n1 2\n2 3\n1 3\n")
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_simple_errors():
    for text, error, message in (
        ("", MalformedHeaderError, "empty instance"),
        ("4\n", MalformedHeaderError, "expected 'n m' header, got '4'"),
        ("a b\n", MalformedHeaderError, "non-integer header 'a b'"),
        # a count or id is -?[0-9]+, although int() reads these too
        ("1_0 0\n", MalformedHeaderError, "non-integer header '1_0 0'"),
        ("+3 0\n", MalformedHeaderError, "non-integer header '+3 0'"),
        ("\u0663 0\n", MalformedHeaderError, "non-integer header '\u0663 0'"),
        ("-3 0\n", MalformedHeaderError, "negative count in header '-3 0'"),
        ("3 -1\n", MalformedHeaderError, "negative count in header '3 -1'"),
        ("2 1\n", BadEdgeLineError, "header promises 1 edges, found 0 edge lines"),
        ("2 1\n1 2 3\n", BadEdgeLineError, "expected 'u v', got '1 2 3'"),
        ("2 1\n1 x\n", BadEdgeLineError, "non-integer edge line '1 x'"),
        ("2 1\n1 +2\n", BadEdgeLineError, "non-integer edge line '1 +2'"),
        ("2 1\n1_0 2\n", BadEdgeLineError, "non-integer edge line '1_0 2'"),
        ("2 1\n1 \u0662\n", BadEdgeLineError, "non-integer edge line '1 \u0662'"),
        ("2 1\n1 1\n", LoopEdgeError, "edge line '1 1': loop edge"),
        ("2 2\n1 2\n2 1\n", DuplicateEdgeError, "edge line '2 1': repeated edge"),
    ):
        with pytest.raises(error, match=_whole(message)):
            parse_instance(text)


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (parse_instance, "3 2\n1 2\n2 4\n", IndexOutOfRangeError,
         "edge line '2 4': vertex ids must lie in 1..3"),
        (parse_instance, "1 1\n1 1\n", LoopEdgeError, "edge line '1 1': "),
        (parse_instance, "2 2\n1 2\n2 1\n", DuplicateEdgeError, "edge line '2 1': "),
        (parse_dimacs, "p edge 2 1\ne 0 1\n", IndexOutOfRangeError,
         "edge line 'e 0 1': vertex ids must lie in 1..2"),
        (parse_instance, "3 1\n-1 2\n", IndexOutOfRangeError,
         "edge line '-1 2': vertex ids must lie in 1..3"),
    ],
    ids=["range", "loop", "duplicate", "dimacs-range", "negative"],
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
    with pytest.raises(MalformedHeaderError, match=_whole("edge line before the 'p' line")):
        parse_dimacs("e 1 2\n")
    with pytest.raises(MalformedHeaderError, match=_whole("missing 'p edge n m' line")):
        parse_dimacs("")


def test_parse_dimacs_comment():
    g = parse_dimacs("c x\np edge 2 1\ne 1 2\n")
    assert g.edges == ((0, 1),)


def test_comments_may_hold_what_ids_may_not():
    # a +, a _ or a non-ASCII character in a comment sends the ids through
    # the token-by-token check, which reads plain ids as before
    assert parse_instance("# +1_0 \u0663\n2 1\n1 2\n").edges == ((0, 1),)
    assert parse_dimacs("c +1_0 \u0663\np edge 2 1\ne 1 2\n").edges == ((0, 1),)


def test_parse_dimacs_errors():
    for text, error, message in (
        ("p edge 2 1\np edge 2 1\ne 1 2\n", MalformedHeaderError, "second 'p' line"),
        ("p col 3 2\ne 1 2\ne 2 3\n", MalformedHeaderError,
         "expected 'p edge n m', got 'p col 3 2'"),
        ("p edge -3 0\n", MalformedHeaderError, "negative count in problem line 'p edge -3 0'"),
        ("p edge 3 -1\n", MalformedHeaderError, "negative count in problem line 'p edge 3 -1'"),
        ("p edge 3 x\n", MalformedHeaderError, "non-integer problem line 'p edge 3 x'"),
        ("p edge +3 0\n", MalformedHeaderError, "non-integer problem line 'p edge +3 0'"),
        ("p edge 3 1_0\n", MalformedHeaderError, "non-integer problem line 'p edge 3 1_0'"),
        ("p edge 2 1\ne 1\n", BadEdgeLineError, "expected 'e u v', got 'e 1'"),
        ("p edge 2 2\ne 1 2\n", BadEdgeLineError, "problem line promises 2 edges, found 1"),
        ("p edge 2 1\nx 1 2\ne 1 2\n", BadEdgeLineError, "unrecognized line 'x 1 2'"),
        ("p edge 2 1\ne 1 x\n", BadEdgeLineError, "non-integer edge line 'e 1 x'"),
        ("p edge 2 1\ne +1 2\n", BadEdgeLineError, "non-integer edge line 'e +1 2'"),
        ("p edge 2 1\ne \u0661 2\n", BadEdgeLineError, "non-integer edge line 'e \u0661 2'"),
    ):
        with pytest.raises(error, match=_whole(message)):
            parse_dimacs(text)


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


def test_load_graph_refuses_counts_no_connected_graph_has(tmp_path):
    # every command that reads a file needs a connected graph, so n > m + 1
    # is refused at the header, before anything is allocated for n vertices
    for name, text, message in (
        ("huge.graph", "1000000 0", "header '1000000 0': "),
        ("huge.col", "p edge 1000000 0\n", "problem line 'p edge 1000000 0': "),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        message += "a connected graph on 1000000 vertices needs at least 999999 edges"
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedInputError, match=_whole(message)):
                load_graph(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, peak
    # n = m + 1 passes the count test, and the parsers read a disconnected graph
    path = tmp_path / "path.graph"
    path.write_text("3 2\n1 2\n2 3\n", encoding="utf-8")
    assert load_graph(str(path)).m == 2
    assert parse_instance("4 2\n1 2\n3 4\n").n == parse_dimacs("p edge 4 0\n").n == 4


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


def _randrange_generator(n: int, m: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """The generator as it was written with ``Random.randrange``: the reference stream."""
    rng = random.Random(seed)
    max_m = n * (n - 1) // 2
    edges = set()
    if n > 1:
        seen = [False] * n
        current = rng.randrange(n)
        seen[current] = True
        visited = 1
        while visited < n:
            nxt = rng.randrange(n - 1)
            if nxt >= current:
                nxt += 1
            if not seen[nxt]:
                seen[nxt] = True
                visited += 1
                edges.add((current, nxt) if current < nxt else (nxt, current))
            current = nxt
    needed = m - (n - 1)
    if needed > 0:
        if m > 0.6 * max_m:
            pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
            edges.update(rng.sample(pool, needed))
        else:
            added = 0
            while added < needed:
                u = rng.randrange(n)
                v = rng.randrange(n - 1)
                if v >= u:
                    v += 1
                e = (u, v) if u < v else (v, u)
                if e not in edges:
                    edges.add(e)
                    added += 1
    return n, sorted(edges)


def test_generator_keeps_the_randrange_stream():
    # n = 1 and 2, trees (m = n - 1), the sparse branch and the dense one (m > 0.6 max_m)
    cases = [(1, 0, 0), (2, 1, 0), (2, 1, 5)]
    for n in (3, 5, 8, 13, 60):
        max_m = n * (n - 1) // 2
        for m in sorted({n - 1, n, int(1.3 * n), int(0.7 * max_m), max_m}):
            cases += [(n, m, seed) for seed in range(4)]
    cases.append((15000, 18000, 1007))  # a perfbench anytime_large instance
    for n, m, seed in cases:
        g = generate_random_connected(n, m, seed)
        assert (g.n, list(g.edges)) == _randrange_generator(n, m, seed), (n, m, seed)
