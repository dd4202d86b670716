"""Constructive spanning-tree heuristics that grow long paths.

A branch-free spanning tree is a Hamiltonian path, so both builders chase long
paths and only spend degree on vertices that are already doomed to be branches.
They share one start-restart rule for picking where to grow next, in priority
order: an obligatory branch vertex, then a vertex whose tree degree already
exceeds two, then the vertex with the most neighbors still outside the tree.
Within a tier the largest unvisited-neighbor count wins, remaining ties go to
the smallest vertex id. All selections are deterministic so repeated runs build
identical trees.

Both algorithms also accept the decomposition component the graph came from,
and then follow its objective: tree degrees start at the vertex's extra degree
and split copies, which never count, behave like obligatory vertices
(preferred for restarts, never retired), and the returned tree is scored by
the component's objective. ``lb=None`` reads as "no obligatory vertex", which
always holds on a component.

Restarts cost O(log m) amortized, not a scan of the tree: HeuristicState keeps
the open tree vertices in one heap ordered by the rule, where each open
vertex's newest entry may lag behind its key but never runs ahead of it, so
``restart()`` re-keys or drops stale entries until the top one is current. The
multi-path builder keeps its outside vertices in a second heap of packed ints,
``unvisited * n + id``. With expansion steps O(degree) each, both builders run
in O(m log m) time; each step updates the counts and makes its greedy choice in
one pass over the new vertex's neighbors.

Neither builder scans for connectivity up front; the lower bound already did.
When no tree vertex can grow while the tree is short of n - 1 edges, the graph
is disconnected and DisconnectedInputError is raised.
"""
from __future__ import annotations

from heapq import heappop, heappush, heapreplace

from .bound import LowerBoundResult
from .decompose import Component
from .errors import DisconnectedInputError
from .graph import Graph, SpanningTree, spanning_tree


class HeuristicState:
    """Incremental bookkeeping shared by both heuristics.

    ``unvisited[v]`` is the number of neighbors of v not yet in the tree; it is
    updated whenever the tree grows so every greedy test stays O(1) per vertex
    looked at. A tree vertex is open while it still has unvisited neighbors.
    ``start()`` picks the first vertex by one scan of all vertices and adds it
    to the tree; ``restart()`` returns the open tree vertex the next path
    grows from.

    Both rank v by one int, ``base[v] - unvisited[v] * n`` with the fixed
    part ``base[v] = tier * n**2 + v``: tier 0 for priority vertices
    (obligatory or split copies), 1 for tree degree above two, 2 for the rest.
    Counts and ids are below n, so smaller keys are preferred in the order
    (tier, -unvisited, id) and ``key % n`` is v. ``base[v]`` drops by ``n**2``
    once, when a non-priority vertex's tree degree first goes above two.

    ``restarts`` is a heap of tree vertices under that key, re-keyed and
    deleted lazily. Three invariants keep it exact: ``unvisited`` only falls,
    ``tree_degree`` only rises (so a tier can only drop from 2 to 1), and a
    closed vertex never reopens. A vertex is pushed when it enters the tree
    open and again when its tier drops, but not when its count falls: that
    only raises its key, so the entry pushed last stays at or below the
    vertex's key now. The top entry is therefore at or below the key of every
    open vertex. ``restart()`` drops it when its vertex has closed, raises it
    in place to its vertex's key when it lags behind, and returns its vertex
    once it is current. An entry from before a tier drop lies above the key
    and is dropped once its vertex closes.
    """

    __slots__ = ("graph", "in_tree", "tree_degree", "unvisited", "tree_edges", "base",
                 "restarts")

    def __init__(self, g: Graph, lb: LowerBoundResult | None, component: Component | None = None):
        n = g.n
        nn = n * n
        self.graph = g
        self.in_tree = [False] * n
        self.tree_degree = tree_degree = [0] * n
        self.unvisited = [len(a) for a in g.adjacency]
        self.tree_edges: list[tuple[int, int]] = []
        self.base = base = list(range(2 * nn, 2 * nn + n))
        if component is not None:
            for v, (d, p) in enumerate(zip(component.extra_degree, component.piece)):
                tree_degree[v] = d
                if p:
                    base[v] = v
                elif d > 2:
                    base[v] -= nn
        for v in lb.obligatory if lb is not None else ():
            base[v] = v
        self.restarts: list[int] = []

    def _stuck(self) -> DisconnectedInputError:
        n = self.graph.n
        why = (f": growth stopped at {len(self.tree_edges)} of {n - 1} tree edges" if n
               else ", but the graph has no vertices")
        return DisconnectedInputError(f"heuristics need a connected graph{why}")

    def start(self) -> int:
        """Add the best vertex with unvisited neighbors to the tree and return it.

        A one-vertex graph has no such vertex, and its one vertex is added; any
        other graph without one, the empty graph included, is disconnected.
        """
        n, base, unvisited = self.graph.n, self.base, self.unvisited
        best = min((base[v] - c * n for v, c in enumerate(unvisited) if c), default=None)
        if best is None and n != 1:
            raise self._stuck()
        v = 0 if best is None else best % n
        self.in_tree[v] = True
        for x in self.graph.adjacency[v]:  # no neighbor is in the tree yet
            unvisited[x] -= 1
        heappush(self.restarts, base[v] - unvisited[v] * n)
        return v

    def restart(self) -> int:
        """The best open tree vertex, once stale entries are re-keyed or dropped."""
        n, base, unvisited, heap = self.graph.n, self.base, self.unvisited, self.restarts
        while heap:
            k = heap[0]
            v = k % n
            c = unvisited[v]
            if not c:
                heappop(heap)
                continue
            key = base[v] - c * n
            if k == key:
                return v
            heapreplace(heap, key)
        raise self._stuck()


def path_expanding(
    g: Graph, lb: LowerBoundResult | None, component: Component | None = None
) -> SpanningTree:
    """Grow one path at a time, restarting from tree endpoints when stuck.

    Restarts prefer a tree vertex of degree at most one that can still grow
    and fall back to the start-restart rule. Only the start vertex can be
    such a vertex: every other vertex enters the tree by an edge and is then
    either closed for good (no unvisited neighbor left) or grown on from, to
    tree degree two or more. Expansion always moves to the unvisited neighbor with
    the fewest unvisited neighbors of its own, steering each path into dead
    ends rather than leaving strands the tree would later branch around.
    """
    st = HeuristicState(g, lb, component)
    n = g.n
    adj, in_tree, unvisited, base = g.adjacency, st.in_tree, st.unvisited, st.base
    restarts, tree_degree, tree_edges, nn = st.restarts, st.tree_degree, st.tree_edges, n * n
    start = st.start()
    while len(tree_edges) < n - 1:
        u = start if tree_degree[start] <= 1 and unvisited[start] else st.restart()
        v, vc = -1, n
        for x in adj[u]:  # adjacency is sorted, so the first minimum has the smallest id
            if not in_tree[x] and unvisited[x] < vc:
                v, vc = x, unvisited[x]
        while v >= 0:  # v joins the tree; the same pass picks v's own next step
            in_tree[v] = True
            w, wc = -1, n
            for x in adj[v]:
                c = unvisited[x] = unvisited[x] - 1
                if c < wc and not in_tree[x]:
                    w, wc = x, c
            if unvisited[v]:
                heappush(restarts, base[v] - unvisited[v] * n)
            tree_edges.append((u, v) if u < v else (v, u))
            for x in (u, v):
                d = tree_degree[x] = tree_degree[x] + 1
                if d == 3 and base[x] >= nn:  # tier 2 drops to 1
                    base[x] -= nn
                    if unvisited[x]:
                        heappush(restarts, base[x] - unvisited[x] * n)
            u, v = v, w
    return spanning_tree(g, tree_edges, component)


def multi_path_expanding(
    g: Graph, lb: LowerBoundResult | None, component: Component | None = None
) -> SpanningTree:
    """Grow several paths at once from a retiring candidate set.

    Each step attaches the outside vertex with the fewest unvisited neighbors
    among those adjacent to a candidate (smallest-id candidate on ties). A
    candidate retires once its tree degree reaches two, unless it is obligatory
    or a split copy; those stay available no matter their degree.

    ``cand_nbrs[x]`` counts the candidates next to outside vertex x, and
    ``heap`` holds those with a count above zero keyed ``unvisited * n + x``,
    pushed again whenever that key changes; an entry is current when it
    equals the key now.
    """
    st = HeuristicState(g, lb, component)
    n = g.n
    adj, in_tree, unvisited, base = g.adjacency, st.in_tree, st.unvisited, st.base
    restarts, tree_degree, tree_edges, nn = st.restarts, st.tree_degree, st.tree_edges, n * n
    st.start()
    cand, cand_nbrs, heap = [False] * n, [0] * n, []
    while len(tree_edges) < n - 1:
        v = st.restart()  # it has unvisited neighbors, so it is no candidate
        while True:
            if v >= 0:  # v joins the candidates
                cand[v] = True
                for x in adj[v]:
                    if not in_tree[x]:
                        cand_nbrs[x] += 1
                        if cand_nbrs[x] == 1:
                            heappush(heap, unvisited[x] * n + x)
            while heap:
                k = heappop(heap)
                v = k % n
                if not in_tree[v] and cand_nbrs[v] and k == unvisited[v] * n + v:
                    break
            else:  # no outside vertex touches a candidate
                break
            # v joins the tree; the same pass finds its smallest-id candidate
            # neighbor u and re-keys its outside neighbors that touch a candidate
            in_tree[v] = True
            u = -1
            for x in adj[v]:
                c = unvisited[x] = unvisited[x] - 1
                if in_tree[x]:
                    if u < 0 and cand[x]:
                        u = x
                elif cand_nbrs[x]:
                    heappush(heap, c * n + x)
            if unvisited[v]:
                heappush(restarts, base[v] - unvisited[v] * n)
            tree_edges.append((u, v) if u < v else (v, u))
            for x in (u, v):
                d = tree_degree[x] = tree_degree[x] + 1
                if d == 3 and base[x] >= nn:  # tier 2 drops to 1
                    base[x] -= nn
                    if unvisited[x]:
                        heappush(restarts, base[x] - unvisited[x] * n)
            # a base below n**2 marks a priority vertex, which never retires
            if tree_degree[u] == 2 and base[u] >= nn:
                cand[u] = False
                for x in adj[u]:
                    if not in_tree[x]:
                        cand_nbrs[x] -= 1
            if tree_degree[v] == 2 and base[v] >= nn:
                v = -1
    return spanning_tree(g, tree_edges, component)


def best_heuristic(
    g: Graph, lb: LowerBoundResult | None, component: Component | None = None
) -> SpanningTree:
    """Run both heuristics and keep the tree with fewer branches (ties: path)."""
    a = path_expanding(g, lb, component)
    b = multi_path_expanding(g, lb, component)
    return a if a.branches <= b.branches else b
