"""Instance file formats and the seeded random instance generator.

Two text formats are read and written:

* simple: a header line ``n m`` followed by m lines ``u v`` with 1-based
  vertex ids; lines starting with ``#`` are comments and may appear anywhere.
* dimacs: ``c`` comment lines, one ``p edge n m`` line, then m ``e u v``
  lines, again 1-based.

A count or vertex id is a decimal integer, ``-?[0-9]+``: no ``+`` sign, no
``_`` and no digits outside ASCII, all of which ``int()`` would accept.

The parsers accept any graph. ``load_graph``, which every command that reads a
file goes through, also refuses counts no connected graph has (n > m + 1) at
the header or problem line, before anything is allocated for n vertices.

Both round-trip bit-exactly through their writers because graphs normalize
and sort their edge lists on construction.
"""
from __future__ import annotations

import random

from .errors import (
    BadEdgeLineError,
    DisconnectedInputError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InfeasibleEdgeCountError,
    LoopEdgeError,
    MalformedHeaderError,
)
from .graph import Graph, build_graph


def _decimal(token: str) -> int:
    """``int()`` of a token that must match ``-?[0-9]+``, else ValueError."""
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise ValueError(token)


def _counts(line: str, n_text: str, m_text: str, what: str, connected: bool) -> tuple[int, int]:
    """The vertex and edge counts of a header or problem line; ``what`` names it.

    With ``connected``, counts that no connected graph has are refused.
    """
    try:
        n, m = _decimal(n_text), _decimal(m_text)
    except ValueError:
        raise MalformedHeaderError(f"non-integer {what} {line!r}") from None
    if n < 0 or m < 0:
        raise MalformedHeaderError(f"negative count in {what} {line!r}")
    if connected and n > m + 1:
        raise DisconnectedInputError(
            f"{what} {line!r}: a connected graph on {n} vertices needs at least {n - 1} edges"
        )
    return n, m


def _build(n: int, pairs, lines: list[str]) -> Graph:
    """``build_graph``; a bad pair's error quotes its edge line, ``lines[i]``."""
    try:
        return build_graph(n, pairs)
    except (IndexOutOfRangeError, LoopEdgeError, DuplicateEdgeError) as exc:
        why = {IndexOutOfRangeError: f"vertex ids must lie in 1..{n}",
               LoopEdgeError: "loop edge", DuplicateEdgeError: "repeated edge"}[type(exc)]
        raise type(exc)(f"edge line {lines[exc.pair_index]!r}: {why}") from None


def _write(g: Graph, header: str, tag: str) -> str:
    """The counts after ``header``, then one line per edge after ``tag``."""
    return f"{header}{g.n} {g.m}\n" + "".join([f"{tag}{u + 1} {v + 1}\n" for u, v in g.edges])


def _parse_simple(text: str, connected: bool) -> Graph:
    """``parse_instance``; with ``connected``, refuse a header with n > m + 1."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not lines:
        raise MalformedHeaderError("empty instance")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeaderError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = _counts(lines[0], *header, "header", connected)
    body = lines[1:]
    if len(body) != m:
        raise BadEdgeLineError(f"header promises {m} edges, found {len(body)} edge lines")
    pairs = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise BadEdgeLineError(f"expected 'u v', got {line!r}")
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            raise BadEdgeLineError(f"non-integer edge line {line!r}") from None
        pairs.append((u - 1, v - 1))
    return _build(n, pairs, body)


def parse_instance(text: str) -> Graph:
    """Parse the simple header-plus-edge-list format into a Graph."""
    return _parse_simple(text, False)


def write_instance(g: Graph) -> str:
    """Simple format text for a graph; parse_instance(write_instance(g)) == g."""
    return _write(g, "", "")


def _parse_dimacs(text: str, connected: bool) -> Graph:
    """``parse_dimacs``; with ``connected``, refuse a problem line with n > m + 1."""
    n = m = None
    pairs, edge_lines = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise MalformedHeaderError("second 'p' line")
            if len(parts) != 4 or parts[1] != "edge":
                raise MalformedHeaderError(f"expected 'p edge n m', got {line!r}")
            n, m = _counts(line, parts[2], parts[3], "problem line", connected)
        elif parts[0] == "e":
            if n is None:
                raise MalformedHeaderError("edge line before the 'p' line")
            if len(parts) != 3:
                raise BadEdgeLineError(f"expected 'e u v', got {line!r}")
            try:
                u, v = _decimal(parts[1]), _decimal(parts[2])
            except ValueError:
                raise BadEdgeLineError(f"non-integer edge line {line!r}") from None
            pairs.append((u - 1, v - 1))
            edge_lines.append(line)
        else:
            raise BadEdgeLineError(f"unrecognized line {line!r}")
    if n is None:
        raise MalformedHeaderError("missing 'p edge n m' line")
    if len(pairs) != m:
        raise BadEdgeLineError(f"problem line promises {m} edges, found {len(pairs)}")
    return _build(n, pairs, edge_lines)


def parse_dimacs(text: str) -> Graph:
    """Parse the dimacs-style edge list format into a Graph."""
    return _parse_dimacs(text, False)


def write_dimacs(g: Graph) -> str:
    """Dimacs format text for a graph; parse_dimacs(write_dimacs(g)) == g."""
    return _write(g, "p edge ", "e ")


def load_graph(path: str) -> Graph:
    """Read a connected graph file; a first non-whitespace c, p or e means dimacs.

    Counts with n > m + 1 are refused at the header, before the graph is built.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    first = text.lstrip()[:1]
    if not first:
        raise MalformedHeaderError(f"{path}: empty instance")
    return (_parse_dimacs if first in ("c", "p", "e") else _parse_simple)(text, True)


def generate_random_connected(n: int, m: int, seed: int) -> Graph:
    """Seeded connected simple graph with exactly n vertices and m edges.

    A uniform random spanning tree is grown by a random walk, then m - n + 1
    distinct non-tree edges are sampled uniformly without replacement. The
    same (n, m, seed) always produces the same graph.

    Every draw below ``b`` is ``getrandbits(b.bit_length())``, drawn again
    while it is at least ``b``. That is the rule ``Random.randrange(b)``
    applies inside its argument checks (CPython 3.10 to 3.13), so this gives
    the graphs randrange gave, and the walk, about n·H_n draws long, skips
    the checks. Dense requests (m > 0.6 of all pairs) take their extra edges
    with ``Random.sample``.
    """
    if n < 1:
        raise InfeasibleEdgeCountError("need at least one vertex")
    max_m = n * (n - 1) // 2
    if not (n - 1 <= m <= max_m):
        raise InfeasibleEdgeCountError(
            f"m={m} outside the connected range [{n - 1}, {max_m}] for n={n}"
        )
    rng = random.Random(seed)
    bits = rng.getrandbits
    below = n - 1
    below_bits = below.bit_length()

    def draw(b: int) -> int:
        k = b.bit_length()
        r = bits(k)
        while r >= b:
            r = bits(k)
        return r

    edges: set[tuple[int, int]] = set()
    if n > 1:
        seen = [False] * n
        current = draw(n)
        seen[current] = True
        visited = 1
        while visited < n:
            nxt = bits(below_bits)
            while nxt >= below:
                nxt = bits(below_bits)
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
            pool = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in edges
            ]
            edges.update(rng.sample(pool, needed))
        else:
            added = 0
            while added < needed:
                u = draw(n)
                v = draw(below)
                if v >= u:
                    v += 1
                e = (u, v) if u < v else (v, u)
                if e not in edges:
                    edges.add(e)
                    added += 1
    return build_graph(n, edges)
