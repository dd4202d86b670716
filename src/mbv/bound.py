"""Combinatorial lower bound from obligatory branch vertices.

An articulation point whose removal leaves at least three components must have
degree >= 3 in every spanning tree, so it is a branch vertex no matter what.
Counting these vertices is a valid lower bound on the optimum, computable in
linear time. The bound is not tight in general: K_{2,4} has no such vertex yet
every one of its spanning trees has a branch vertex.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import DisconnectedInputError
from .graph import Edge, Graph, _Lowpoint, _lowpoint


@dataclass(frozen=True)
class LowerBoundResult:
    """Obligatory branch vertices of a connected graph.

    ``split_counts`` maps each obligatory vertex to the number of components
    its removal leaves (always >= 3); ``value`` is the lower bound itself,
    i.e. the number of obligatory vertices. ``fingerprint`` ties the result to
    the graph it was computed on. ``bridges`` are the graph's cut edges and
    ``piece_of[v][u]`` is the 1-based piece of the graph without obligatory
    vertex v that holds its neighbor u; the decomposition reads both from here.
    """

    obligatory: frozenset[int]
    split_counts: dict[int, int]
    value: int
    fingerprint: int
    bridges: frozenset[Edge]
    piece_of: dict[int, dict[int, int]]


def graph_fingerprint(g: Graph) -> int:
    """Stable identity of a graph's vertex count and edge set."""
    return hash((g.n, g.edges))


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
    # Neighbor membership is interval containment on entry times.
    entry = s.entry
    spans: dict[int, list[tuple[int, int]]] = {v: [] for v in split_counts}
    for c in range(n):
        p = s.parent[c]
        if p in spans and s.low[c] >= entry[p]:
            spans[p].append((entry[c], s.end[c]))
    piece_of: dict[int, dict[int, int]] = {}
    for v, cut in spans.items():
        cut.sort()
        base = 0 if s.parent[v] < 0 else 1
        pieces = piece_of[v] = {}
        for u in g.adjacency[v]:
            j = bisect_right(cut, (entry[u], n)) - 1
            # only a non-root has neighbors outside every split-child subtree
            pieces[u] = base + j + 1 if j >= 0 and entry[u] < cut[j][1] else 1

    lb = LowerBoundResult(
        obligatory=frozenset(split_counts),
        split_counts=split_counts,
        value=len(split_counts),
        fingerprint=graph_fingerprint(g),
        bridges=frozenset(s.bridges),
        piece_of=piece_of,
    )
    return lb, s
