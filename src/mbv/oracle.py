"""Brute-force ground truth: enumerate all spanning trees of small graphs.

Enumeration follows a contraction-deletion discipline: at each step an
undecided edge is either committed to the tree or deleted, with every bridge
of the remaining graph committed immediately and every edge that would close a
cycle with the committed set deleted immediately. Both branches then still
contain at least one spanning tree, so the recursion tree has exactly one leaf
per spanning tree and never dead-ends.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet

from .errors import DisconnectedInputError, TooLargeError
from .graph import (
    Edge,
    Graph,
    SpanningTree,
    UnionFind,
    _lowpoint,
    connected_components,
    spanning_tree,
)

CYCLE_RANK_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: SpanningTree
    trees_enumerated: int


def _normalize(n, edges, live: set[int], forced: set[int]) -> None:
    """Commit bridges and delete cycle closers until neither rule fires.

    On return every bridge of the live graph is forced and every live
    non-forced edge joins two different forced components.
    """
    edge_id = {e: ei for ei, e in enumerate(edges)}
    while True:
        adj: list[list[int]] = [[] for _ in range(n)]
        for ei in live:
            u, v = edges[ei]
            adj[u].append(v)
            adj[v].append(u)
        bridge_ids = [edge_id[e] for e in _lowpoint(n, adj).bridges]
        fresh = [ei for ei in bridge_ids if ei not in forced]
        forced.update(fresh)
        uf = UnionFind(n)
        for ei in forced:
            uf.union(*edges[ei])
        closers = [
            ei
            for ei in live
            if ei not in forced and uf.find(edges[ei][0]) == uf.find(edges[ei][1])
        ]
        live.difference_update(closers)
        if not fresh and not closers:
            return


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
    if connected_components(g)[0] != 1:
        raise DisconnectedInputError("spanning tree enumeration needs a connected graph")
    if n == 1:
        visit(frozenset())
        return 1

    count = 0
    stack: list[tuple[set[int], set[int]]] = [(set(range(m)), set())]
    while stack:
        live, forced = stack.pop()
        _normalize(n, edges, live, forced)
        if len(forced) == n - 1:
            visit(frozenset(edges[ei] for ei in forced))
            count += 1
            continue
        pivot = min(ei for ei in live if ei not in forced)
        without = set(live)
        without.discard(pivot)
        stack.append((without, set(forced)))
        stack.append((set(live), forced | {pivot}))
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
