"""Combinatorial lower bound from obligatory branch vertices.

An articulation point whose removal leaves at least three components must have
degree >= 3 in every spanning tree, so it is a branch vertex no matter what.
Counting these vertices is a valid lower bound on the optimum, computable in
linear time. The bound is not tight in general: K_{2,4} has no such vertex yet
every one of its spanning trees has a branch vertex.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import KeysView

from .errors import DisconnectedInputError
from .graph import Edge, Graph, _Lowpoint, _lowpoint


@dataclass(frozen=True)
class LowerBoundResult:
    """Obligatory branch vertices of a connected graph.

    ``split_counts`` maps each obligatory vertex to the number of components
    its removal leaves (always >= 3); ``obligatory`` (its keys) and ``value``
    (their number, the lower bound itself) are read off it. ``bridges`` are
    the graph's cut edges and ``piece_of[v][u]`` is the 1-based piece of the
    graph without obligatory vertex v that holds its neighbor u; the
    decomposition reads both from here. ``graph`` is the graph the result was
    computed on.
    """

    split_counts: dict[int, int]
    bridges: frozenset[Edge]
    piece_of: dict[int, dict[int, int]]
    graph: Graph = field(repr=False)

    @property
    def obligatory(self) -> KeysView[int]:
        return self.split_counts.keys()

    @property
    def value(self) -> int:
        return len(self.split_counts)


def obligatory_branch_bound(g: Graph) -> LowerBoundResult:
    """Obligatory branch vertices, their split counts, and the lower bound.

    Requires a connected graph. One lowpoint scan of g yields the split
    counts, the bridges and the pieces around each obligatory vertex, so the
    decomposition never scans g again.
    """
    return _bound_and_scan(g)[0]


def _bound_and_scan(g: Graph) -> tuple[LowerBoundResult, _Lowpoint]:
    """``obligatory_branch_bound`` and the lowpoint scan of g it was read from.

    The plain search's root takes the scan in place of scanning its live
    graph, a copy of g's adjacency in the same order.
    """
    n = g.n
    if n == 0:
        raise DisconnectedInputError(
            "lower bound needs a connected graph, but the graph has no vertices"
        )
    s = _lowpoint(n, g.adjacency)
    if s.count != 1:
        raise DisconnectedInputError(
            f"lower bound needs a connected graph, got {s.count} components"
        )
    split_counts = {v: k for v, k in enumerate(s.pieces) if k >= 3}

    # piece 1 of an obligatory vertex v is the side holding v's DFS parent
    # (absent for the root), the split-child subtrees follow in visit order.
    # Both are read off v's own neighbors: its split children are those c with
    # parent[c] == v and low[c] >= entry[v], and a neighbor u lies in the
    # split-child subtree whose entry interval holds entry[u].
    entry, end, low, parent = s.entry, s.end, s.low, s.parent
    piece_of: dict[int, dict[int, int]] = {}
    for v in split_counts:
        adj = g.adjacency[v]
        cut = sorted([(entry[c], end[c]) for c in adj if parent[c] == v and low[c] >= entry[v]])
        base = 0 if parent[v] < 0 else 1
        pieces = piece_of[v] = {}
        for u in adj:
            j = bisect_right(cut, (entry[u], n)) - 1
            # only a non-root has neighbors outside every split-child subtree
            pieces[u] = base + j + 1 if j >= 0 and entry[u] < cut[j][1] else 1

    lb = LowerBoundResult(
        split_counts=split_counts,
        bridges=frozenset(s.bridges),
        piece_of=piece_of,
        graph=g,
    )
    return lb, s
