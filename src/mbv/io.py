"""Instance file formats and the seeded random instance generator.

Two text formats are read and written:

* simple: a header line ``n m`` followed by m lines ``u v`` with 1-based
  vertex ids; lines starting with ``#`` are comments and may appear anywhere.
* dimacs: ``c`` comment lines, one ``p edge n m`` line, then m ``e u v``
  lines, again 1-based.

Both round-trip bit-exactly through their writers because graphs normalize
and sort their edge lists on construction.
"""
from __future__ import annotations

import random

from .errors import (
    BadEdgeLineError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InfeasibleEdgeCountError,
    LoopEdgeError,
    MalformedHeaderError,
)
from .graph import Graph, build_graph


def _data_lines(text: str, comment: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        out.append(line)
    return out


def _build(n: int, pairs, edge_lines) -> Graph:
    """``build_graph``; a bad pair's error quotes its line, ``edge_lines()[i]``."""
    try:
        return build_graph(n, pairs)
    except (IndexOutOfRangeError, LoopEdgeError, DuplicateEdgeError) as exc:
        why = {IndexOutOfRangeError: f"vertex ids must lie in 1..{n}",
               LoopEdgeError: "loop edge", DuplicateEdgeError: "repeated edge"}[type(exc)]
        raise type(exc)(f"edge line {edge_lines()[exc.pair_index]!r}: {why}") from None


def parse_instance(text: str) -> Graph:
    """Parse the simple header-plus-edge-list format into a Graph."""
    lines = _data_lines(text, "#")
    if not lines:
        raise MalformedHeaderError("empty instance")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeaderError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedHeaderError(f"non-integer header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise MalformedHeaderError(f"negative count in header {lines[0]!r}")
    body = lines[1:]
    if len(body) != m:
        raise BadEdgeLineError(f"header promises {m} edges, found {len(body)} edge lines")
    pairs = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise BadEdgeLineError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadEdgeLineError(f"non-integer edge line {line!r}") from None
        pairs.append((u - 1, v - 1))
    return _build(n, pairs, lambda: body)


def write_instance(g: Graph) -> str:
    """Simple format text for a graph; parse_instance(write_instance(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse the dimacs-style edge list format into a Graph."""
    n = m = None
    pairs = []
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
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise MalformedHeaderError(f"non-integer problem line {line!r}") from None
            if n < 0 or m < 0:
                raise MalformedHeaderError(f"negative count in problem line {line!r}")
        elif parts[0] == "e":
            if n is None:
                raise MalformedHeaderError("edge line before the 'p' line")
            if len(parts) != 3:
                raise BadEdgeLineError(f"expected 'e u v', got {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise BadEdgeLineError(f"non-integer edge line {line!r}") from None
            pairs.append((u - 1, v - 1))
        else:
            raise BadEdgeLineError(f"unrecognized line {line!r}")
    if n is None:
        raise MalformedHeaderError("missing 'p edge n m' line")
    if len(pairs) != m:
        raise BadEdgeLineError(f"problem line promises {m} edges, found {len(pairs)}")
    # past the comments, every line but the one 'p' line is an edge line
    return _build(n, pairs, lambda: [line for line in _data_lines(text, "c") if line[0] == "e"])


def write_dimacs(g: Graph) -> str:
    """Dimacs format text for a graph; parse_dimacs(write_dimacs(g)) == g."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    """Read a graph file; a first non-whitespace character c, p or e means dimacs."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    first = text.lstrip()[:1]
    if not first:
        raise MalformedHeaderError(f"{path}: empty instance")
    return parse_dimacs(text) if first in ("c", "p", "e") else parse_instance(text)


def generate_random_connected(n: int, m: int, seed: int) -> Graph:
    """Seeded connected simple graph with exactly n vertices and m edges.

    A uniform random spanning tree is grown by a random walk, then m - n + 1
    distinct non-tree edges are sampled uniformly without replacement. The
    same (n, m, seed) always produces the same graph.
    """
    if n < 1:
        raise InfeasibleEdgeCountError("need at least one vertex")
    max_m = n * (n - 1) // 2
    if not (n - 1 <= m <= max_m):
        raise InfeasibleEdgeCountError(
            f"m={m} outside the connected range [{n - 1}, {max_m}] for n={n}"
        )
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
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
                u = rng.randrange(n)
                v = rng.randrange(n - 1)
                if v >= u:
                    v += 1
                e = (u, v) if u < v else (v, u)
                if e not in edges:
                    edges.add(e)
                    added += 1
    return build_graph(n, edges)
