"""Brute-force ground truth: enumerate all spanning trees of small graphs.

One depth-first take-or-skip pass over the edges in index order, checked by
its own union-find pass, so it shares no scan with the code it verifies. An
entry (i, taken) keeps one invariant: the taken edges are acyclic and, with
``edges[i:]``, connect the graph. Edge i is skipped when the taken edges and
``edges[i+1:]`` still connect, and taken when it closes no cycle with them. A
cycle closer is always skippable, since the taken edges join its ends, so the
pass never dead-ends. An entry with n-1 taken edges is a spanning tree, and
two trees part at their first different decision, so each is visited once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet

from .errors import DisconnectedInputError, TooLargeError
from .graph import Edge, Graph, SpanningTree, spanning_tree

CYCLE_RANK_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: SpanningTree
    trees_enumerated: int


def _joins(n: int, edges) -> int:
    """How many of edges join two groups in one union-find pass.

    n-1 means they connect all n vertices; their own count means no cycle."""
    parent = list(range(n))
    joined = 0
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joined += 1
    return joined


def enumerate_spanning_trees(g: Graph, visit: Callable[[FrozenSet[Edge]], None]) -> int:
    """Visit every spanning tree of g exactly once and return how many there are.

    Guarded: refuses graphs with cycle rank above CYCLE_RANK_LIMIT rather than
    silently truncating. Callbacks receive a frozen edge set and must not
    mutate the graph.
    """
    n, m = g.n, g.m
    rank = m - n + 1
    if rank > CYCLE_RANK_LIMIT:
        raise TooLargeError(f"cycle rank {rank} exceeds the enumeration guard {CYCLE_RANK_LIMIT}")
    edges = g.edges
    if _joins(n, edges) != n - 1:  # also rejects n == 0
        raise DisconnectedInputError("spanning tree enumeration needs a connected graph")

    count = 0
    stack: list[tuple[int, tuple[Edge, ...]]] = [(0, ())]
    while stack:
        i, taken = stack.pop()
        if len(taken) == n - 1:  # n == 1 visits its one empty tree here
            visit(frozenset(taken))
            count += 1
            continue
        if _joins(n, taken + edges[i + 1 :]) == n - 1:
            stack.append((i + 1, taken))
        with_i = taken + (edges[i],)
        if _joins(n, with_i) == len(with_i):
            stack.append((i + 1, with_i))
    return count


def brute_force_optimum(g: Graph) -> OracleResult:
    """Exact minimum branch count over all spanning trees, with a witness.

    Ties between optimal trees are broken by the lexicographically smallest
    sorted edge list, so the witness is reproducible.
    """
    n = g.n
    best: list = [None]

    def visit(tree: FrozenSet[Edge]) -> None:
        deg = [0] * n
        for u, v in tree:
            deg[u] += 1
            deg[v] += 1
        value = sum(1 for d in deg if d > 2)
        key = (value, tuple(sorted(tree)))
        if best[0] is None or key < best[0]:
            best[0] = key

    total = enumerate_spanning_trees(g, visit)
    value, witness_edges = best[0]
    return OracleResult(value, spanning_tree(g, witness_edges), total)
