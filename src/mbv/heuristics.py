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
the open tree vertices in one lazy-deletion heap keyed (tier, -unvisited
count, id), exactly the order of the rule, so a restart pops stale entries
until the top one is current. With expansion steps O(degree) each, both
builders run in O(m log m) time.

Neither builder scans for connectivity up front; the lower bound already did.
When no tree vertex can grow while the tree is short of n - 1 edges, the graph
is disconnected and DisconnectedInputError is raised.
"""
from __future__ import annotations

from heapq import heappop, heappush

from .bound import LowerBoundResult
from .decompose import Component
from .errors import DisconnectedInputError, NoEligibleVertexError
from .graph import Graph, SpanningTree, spanning_tree


class HeuristicState:
    """Incremental bookkeeping shared by both heuristics.

    ``unvisited[v]`` is the number of neighbors of v not yet in the tree; it is
    updated whenever the tree grows so every greedy test stays O(1) per vertex
    looked at. A tree vertex is open while it still has unvisited neighbors.

    ``restarts`` is a heap of open vertices under ``restart_key``: tier 0 for
    priority vertices, 1 for tree degree above two, 2 for the rest, then the
    most unvisited neighbors, then the smallest id. Entries are deleted
    lazily. Three invariants keep it exact: ``unvisited`` only falls,
    ``tree_degree`` only rises (so a tier can only drop from 2 to 1), and a
    closed vertex never reopens. So an open vertex is pushed when it enters
    the tree, again whenever its count falls, and again when its tree degree
    first exceeds two; an entry is current exactly when it equals the
    vertex's key now, and every other entry is dropped when it reaches the top.
    """

    __slots__ = (
        "graph",
        "in_tree",
        "tree_degree",
        "unvisited",
        "tree_edges",
        "candidates",
        "priority",
        "restarts",
    )

    def __init__(self, g: Graph, lb: LowerBoundResult | None, component: Component | None = None):
        n = g.n
        self.graph = g
        self.in_tree = [False] * n
        self.tree_degree = [0] * n
        self.unvisited = [g.degree(v) for v in range(n)]
        self.tree_edges: list[tuple[int, int]] = []
        self.candidates: set[int] = set()
        self.priority = frozenset(lb.obligatory if lb is not None else ())
        if component is not None:
            for v, d in component.extra_degree.items():
                self.tree_degree[v] = d
            self.priority |= {v for v, keep in enumerate(component.countable) if not keep}
        self.restarts: list[int] = []

    def restart_key(self, v: int) -> int:
        """Where v ranks under the start-restart rule; smaller is preferred.

        The triple (tier, -unvisited[v], v) packed into one int, which keeps
        heap comparisons cheap: counts and ids are below n, so the order is
        lexicographic and ``key % n`` is v.
        """
        n = self.graph.n
        tier = 0 if v in self.priority else 1 if self.tree_degree[v] > 2 else 2
        return (tier * n - self.unvisited[v]) * n + v

    def add_vertex(self, w: int) -> None:
        in_tree = self.in_tree
        unvisited = self.unvisited
        restarts, key = self.restarts, self.restart_key
        in_tree[w] = True
        for x in self.graph.adjacency[w]:
            unvisited[x] -= 1
            if in_tree[x] and unvisited[x] > 0:
                heappush(restarts, key(x))
        if unvisited[w] > 0:
            heappush(restarts, key(w))

    def add_edge(self, u: int, v: int) -> None:
        self.tree_edges.append((u, v) if u < v else (v, u))
        tree_degree = self.tree_degree
        for x in (u, v):
            tree_degree[x] += 1
            if tree_degree[x] == 3 and self.in_tree[x] and self.unvisited[x] > 0:
                heappush(self.restarts, self.restart_key(x))


def start_restart_select(state: HeuristicState, restrict_to_tree: bool) -> int:
    """Pick the vertex the next path should grow from.

    With ``restrict_to_tree`` the pool is the open tree vertices, read off the
    restart heap; otherwise (the initial start) one scan of all vertices picks
    by the same key among those with unvisited neighbors.
    """
    n = state.graph.n
    if restrict_to_tree:
        heap = state.restarts
        while heap and heap[0] != state.restart_key(heap[0] % n):
            heappop(heap)
        best = heap[0] if heap else None
    else:
        unvisited = state.unvisited
        pool = (v for v in range(n) if unvisited[v] > 0)
        best = min(map(state.restart_key, pool), default=None)
    if best is None:
        raise NoEligibleVertexError("no vertex with unvisited neighbors")
    return best % n


def _grow_from(state: HeuristicState, restrict_to_tree: bool) -> int:
    """start_restart_select while the tree is short: running dry means disconnected."""
    try:
        return start_restart_select(state, restrict_to_tree)
    except NoEligibleVertexError:
        raise DisconnectedInputError(
            f"heuristics need a connected graph: growth stopped at "
            f"{len(state.tree_edges)} of {state.graph.n - 1} tree edges"
        ) from None


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
    if g.n == 1:
        return spanning_tree(g, (), component)
    adj = g.adjacency
    in_tree = st.in_tree
    unvisited = st.unvisited
    tree_degree = st.tree_degree
    start = _grow_from(st, False)
    st.add_vertex(start)
    target = g.n - 1
    sentinel = 1 << 60
    while len(st.tree_edges) < target:
        if tree_degree[start] <= 1 and unvisited[start] > 0:
            u = start
        else:
            u = _grow_from(st, True)
        while unvisited[u] > 0:
            v, vc = -1, sentinel
            for x in adj[u]:
                if not in_tree[x]:
                    c = unvisited[x]
                    if c < vc or (c == vc and x < v):
                        v, vc = x, c
            st.add_vertex(v)
            st.add_edge(u, v)
            u = v
    return spanning_tree(g, st.tree_edges, component)


def multi_path_expanding(
    g: Graph, lb: LowerBoundResult | None, component: Component | None = None
) -> SpanningTree:
    """Grow several paths at once from a retiring candidate set.

    Each step attaches the outside vertex with the fewest unvisited neighbors
    among those adjacent to a candidate (smallest-id candidate on ties). A
    candidate retires once its tree degree reaches two, unless it is obligatory
    or a split copy; those stay available no matter their degree.
    """
    st = HeuristicState(g, lb, component)
    if g.n == 1:
        return spanning_tree(g, (), component)
    adj = g.adjacency
    st.add_vertex(_grow_from(st, False))

    cand_nbrs = [0] * g.n  # per outside vertex: how many candidates it touches
    heap: list[tuple[int, int]] = []

    def enqueue(x: int) -> None:
        heappush(heap, (st.unvisited[x], x))

    def cand_add(u: int) -> None:
        if u in st.candidates:
            return
        st.candidates.add(u)
        for x in adj[u]:
            if not st.in_tree[x]:
                cand_nbrs[x] += 1
                if cand_nbrs[x] == 1:
                    enqueue(x)

    def cand_drop(u: int) -> None:
        st.candidates.discard(u)
        for x in adj[u]:
            if not st.in_tree[x]:
                cand_nbrs[x] -= 1

    def absorb(w: int) -> None:
        # add_vertex plus a candidate-heap refresh for outside neighbors whose key just changed
        st.add_vertex(w)
        for x in adj[w]:
            if not st.in_tree[x] and cand_nbrs[x] > 0:
                enqueue(x)

    def pop_eligible() -> int | None:
        while heap:
            c, v = heap[0]
            if st.in_tree[v] or cand_nbrs[v] == 0 or c != st.unvisited[v]:
                heappop(heap)
                continue
            heappop(heap)
            return v
        return None

    target = g.n - 1
    while len(st.tree_edges) < target:
        cand_add(_grow_from(st, True))
        while (v := pop_eligible()) is not None:
            u = next(x for x in adj[v] if x in st.candidates)  # adjacency is sorted
            absorb(v)
            st.add_edge(u, v)
            if st.tree_degree[u] == 2 and u not in st.priority:
                cand_drop(u)
            if not (st.tree_degree[v] == 2 and v not in st.priority):
                cand_add(v)
    return spanning_tree(g, st.tree_edges, component)


def best_heuristic(
    g: Graph, lb: LowerBoundResult | None, component: Component | None = None
) -> SpanningTree:
    """Run both heuristics and keep the tree with fewer branches (ties: path)."""
    a = path_expanding(g, lb, component)
    b = multi_path_expanding(g, lb, component)
    return a if a.branches <= b.branches else b
