"""Simple undirected graphs, the one lowpoint DFS and the tree certificate.

Vertices are dense integers 0..n-1, edges are normalized tuples (u, v) with
u < v. Graphs are immutable after construction; all functions here are pure.
Every structure scan of the package (component count, articulation points,
split counts, bridges, two-edge-connected classes) comes from ``_lowpoint``,
run on the input graph and on the live graph of a search node that changed (a
plain search's root takes the input graph's scan). Its optional
``within`` restricts it to a vertex subset, such as the one class of a live
graph that a search node must rescan. Two scans do not come from it: the
decomposition labels its split graph's components with a union-find pass, and
the oracle tests its trees with a union-find pass of its own, so it shares no
scan with the code it checks. Every other tree test is ``spanning_tree``'s
rule, which ``is_spanning_tree`` answers as a yes or no: g's edges, none
repeated, then one union-find pass ``_tree_degrees`` that also collects the
tree degrees the branch count is read off.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    LoopEdgeError,
    NotASpanningTreeError,
)

if TYPE_CHECKING:
    from .decompose import Component

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is sorted and normalized, adjacency lists are sorted. Connectivity
    is deliberately not a construction invariant: decomposition produces
    disconnected intermediates, and operations that need a connected input check
    for themselves and raise DisconnectedInputError.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class SpanningTree:
    """An edge subset certified to be a spanning tree, with its branch count.

    ``branches`` is the objective of the graph the tree spans: the plain count
    for a whole graph, the component's count for a decomposition component.
    """

    edges: frozenset[Edge]
    branches: int


def build_graph(n: int, edge_pairs) -> Graph:
    """Validate and normalize (n, pairs) into a Graph.

    Rejects a negative n, loops, duplicate edges (either orientation) and
    endpoints outside [0, n), a bad pair's error holding its ``pair_index``.
    """
    if n < 0:
        raise IndexOutOfRangeError(f"negative vertex count {n}")
    seen: set[Edge] = set()
    edges: list[Edge] = []
    try:
        for u, v in edge_pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdgeError(f"duplicate edge {e}")
            seen.add(e)
            edges.append(e)
    except (IndexOutOfRangeError, LoopEdgeError, DuplicateEdgeError) as exc:
        exc.pair_index = len(edges)  # its 0-based position: every earlier pair was kept
        raise
    edges.sort()  # linear time on input that is already nearly in order
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # iterating sorted edges appends every neighbor list in ascending order
    return Graph(n, tuple(edges), tuple(tuple(a) for a in adj))


class _Lowpoint(NamedTuple):
    """Everything one Tarjan lowpoint DFS over a simple graph reveals.

    Roots are tried in vertex order and neighbors in adjacency order.
    ``count`` is the number of components, ``entry`` the preorder index,
    ``end[v]`` one past the last preorder index in v's subtree, ``parent`` is
    -1 for roots. ``pieces[v]`` is the number of parts v's own component
    falls into once v is removed (0 for an isolated vertex). ``classes``
    lists the two-edge-connected classes with two or more vertices (the
    components left once every bridge is deleted); every other vertex is a
    class of its own.
    """

    count: int
    entry: list[int]
    end: list[int]
    low: list[int]
    parent: list[int]
    pieces: list[int]
    bridges: list[Edge]
    classes: list[list[int]]


def _lowpoint(n: int, adj, within=None) -> _Lowpoint:
    """The package's one lowpoint DFS, over the adjacency lists of a simple graph.

    Iterative so path graphs with n = 10^5 cannot overflow the call stack. A
    simple graph has exactly one edge back to the DFS parent, so skipping the
    parent vertex skips exactly the tree edge. Linear in n + m.

    ``within``, a list of vertices, restricts the scan to the subgraph they
    induce: roots are taken from it in its order, and every other vertex
    starts with an entry of n, so it looks visited and no low reaches it. Then
    ``count`` counts the subgraph's components, ``pieces[x]`` for x in
    ``within`` counts only the parts inside ``within``, and ``bridges`` and
    ``classes`` lie inside it; other vertices keep an entry of n and the
    other lists' initial values. The DFS costs the degrees of ``within``, and
    setting up the lists O(n).
    """
    if within is None:
        entry = [-1] * n
        within = range(n)
    else:
        entry = [n] * n
        for v in within:
            entry[v] = -1
    end = [0] * n
    low = [0] * n
    parent = [-1] * n
    pieces = [0] * n
    at = [0] * n  # position of each vertex in its component's pending list
    bridges: list[Edge] = []
    classes: list[list[int]] = []
    timer = 0
    count = 0
    for r in within:
        if entry[r] >= 0:
            continue
        entry[r] = low[r] = timer
        timer += 1
        count += 1
        pending = [r]  # discovered vertices whose class is still open
        path = [r]
        scans = [iter(adj[r])]
        while scans:
            v = path[-1]
            p = parent[v]
            for w in scans[-1]:
                t = entry[w]
                if t < 0:
                    entry[w] = low[w] = timer
                    timer += 1
                    parent[w] = v
                    pieces[w] = 1  # the side holding the parent
                    at[w] = len(pending)
                    pending.append(w)
                    path.append(w)
                    scans.append(iter(adj[w]))
                    break
                if t < low[v] and w != p:
                    low[v] = t
            else:
                path.pop()
                scans.pop()
                end[v] = timer
                if p < 0:
                    break
                lv = low[v]
                if lv < low[p]:
                    low[p] = lv
                if lv >= entry[p]:
                    pieces[p] += 1  # v's subtree is cut off without p
                    if lv > entry[p]:
                        bridges.append((p, v) if p < v else (v, p))
                        i = at[v]  # v's class is what v's subtree left open
                        if i + 1 < len(pending):
                            classes.append(pending[i:])
                        del pending[i:]
        if len(pending) > 1:  # the root's class
            classes.append(pending)
    return _Lowpoint(count, entry, end, low, parent, pieces, bridges, classes)


def _tree_degrees(g: Graph, tree_edges, deg: list[int]) -> bool:
    """True iff tree_edges, a sized collection of distinct edges of g, span it.

    ``spanning_tree``'s union-find pass, with path halving, in the order
    given: an edge whose ends share a root closes a cycle (n distinct edges
    hold one), and n-1 edges without a cycle span. Each edge read adds one to
    both ends' entries of ``deg``, so a caller that seeds ``deg`` with extra
    degrees gets the tree degrees of a tree it accepts.
    """
    parent = list(range(g.n))
    for u, v in tree_edges:
        deg[u] += 1
        deg[v] += 1
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
    return len(tree_edges) == g.n - 1


def is_spanning_tree(g: Graph, tree_edges) -> bool:
    """Whether ``spanning_tree`` certifies tree_edges, the sized collection it takes."""
    try:
        spanning_tree(g, tree_edges)
    except NotASpanningTreeError:
        return False
    return True


def _count_branches(n: int, tree_edges, extra_degree: Mapping[int, int], countable) -> int:
    """Countable vertices whose degree in tree_edges plus extra degree exceeds two.

    The package's branch count for an edge set that is not certified: a
    whole graph counts every vertex with no extra degree; a decomposition
    component adds each vertex's deleted bridges and skips its split copies.
    ``spanning_tree`` counts the same from the degrees its union-find pass
    collects.
    """
    deg = [0] * n
    for v, d in extra_degree.items():
        deg[v] = d
    for u, v in tree_edges:
        deg[u] += 1
        deg[v] += 1
    return sum(1 for d, keep in zip(deg, countable) if d > 2 and keep)


def branch_count(n: int, tree_edges) -> int:
    """Number of vertices of degree greater than two in the given edge subset."""
    return _count_branches(n, tree_edges, {}, repeat(True))


def spanning_tree(g: Graph, tree_edges, component: Component | None = None) -> SpanningTree:
    """Certify a list of edges as a spanning tree of g and compute its branch count.

    ``tree_edges`` is a sized collection (list, tuple or set) of g's edges,
    each in either orientation and none repeated. Every edge must be in g,
    and then one union-find pass checks the size and acyclicity and counts
    the tree degrees, seeded with the component's extra degrees. With the
    decomposition component g is the graph of, branches are counted by the
    component's objective.
    """
    # a normalized edge is kept as it is, so a tree of g's own edges shares them
    edges = frozenset(e if e[0] < e[1] else (e[1], e[0]) for e in tree_edges)
    if not edges.issubset(g.edges):
        raise NotASpanningTreeError("edge set is not a subset of the graph's edges")
    if len(edges) < len(tree_edges):
        raise NotASpanningTreeError("edge list repeats an edge")
    n = g.n
    deg = [0] * n
    if component is not None:
        for v, d in component.extra_degree.items():
            deg[v] = d
    if not _tree_degrees(g, tree_edges, deg):
        raise NotASpanningTreeError(
            f"edge set of size {len(edges)} does not span {n} vertices"
        )
    if component is not None:
        deg = list(compress(deg, component.countable))
    # degrees are never negative, so the branches are what degrees 0-2 leave
    return SpanningTree(edges, len(deg) - deg.count(0) - deg.count(1) - deg.count(2))
