"""Exact minimum-branch-vertices solving by combinatorial branch and bound.

The search branches on one undecided edge at a time (exclude child explored
first) and keeps the chosen edges acyclic. Each node propagates once: bridges
of the live graph (every edge not excluded) go into the tree, and a branching
inclusion drops the edges that would close a cycle with the chosen forest:
the live edges between its ends' groups, found among the smaller group's live
neighbors. One scan reaches the fixpoint, a forced bridge needs no such
search, and a node whose decision dropped edges need scan only one class,
because of three invariants:

* the live graph stays connected: the root graph is, an exclude child drops
  an undecided edge of its parent's fixpoint, which is no bridge, and a
  dropped closer has an included path between its ends;
* including a bridge drops no edge: a closer joining the bridge's two groups
  would, with the included paths inside each group, be a live path around it;
* a child that drops edges changes only the two-edge-connected class K of
  its edge e in the parent's scan. An exclude child drops e itself. An
  include child drops the closers of e, and each lies on a cycle with e
  through the included paths inside the two groups, so each lies in K. K
  minus the dropped edges stays connected (e is no bridge of K, and a
  closer's ends stay joined by that cycle's other edges), so for any vertex
  x outside K the graph without x falls into the same parts as before. Only
  vertices of K can change their split count, only K can gain bridges, and
  only K can fall into sub-classes.

So a node with no undecided edge left is a leaf whose live graph is its tree,
and the node bound below is exactly that tree's branch count.

The node lower bound sums two terms over disjoint vertex sets, each sound
for every completion of the node:

* forced branches: a completion gives v at least its extra degree, plus one
  edge per incident bridge of the remaining graph, plus (within v's
  two-edge-connected class) the larger of its chosen class degree and the
  number of pieces the class falls into without v; when that total exceeds
  two, v is a branch no matter what.
* class degree accounting: inside one two-edge-connected class of h vertices,
  any completion's class degrees sum to 2(h-1) with every vertex at least 1;
  a branch-free vertex absorbs at most 2 minus its extra degree minus its
  bridge degree, so the leftover excess forces fresh branches, counted
  greedily against the largest physical-degree gains.

Branching picks the undecided edge at the most constrained endpoint (largest
extra-plus-bridge-plus-chosen degree), then the highest remaining degree, then
the smallest edge index, and explores the exclude child first. These are
measured defaults, not load-bearing for correctness. The pick compares one
int per edge, tightness * (n + 1) + degree: a live degree is below n + 1 and
tightness is at least -1 (a split copy never counts), so the int orders edges
exactly like the pair, and a strict comparison keeps the smallest index.

The search state is one ``_Search`` value, changed in place: a status per
edge (undecided, included, excluded), the live adjacency (every edge not
excluded) with its degrees, included degrees with the tightness they give,
and the groups joined by included edges (explicit labels merged by size, so
a union is undone by relabeling the smaller group). Its ``include``,
``exclude`` and ``undo`` are the only code that changes it, and its ``run``
is the node loop. Every change is pushed on one trail: a branching decision,
a forced bridge, a dropped cycle closer, each inclusion with its union.

An open node holds its edge, its decision, the trail length at its parent and
the parent's bound. Popping it undoes the trail back to that mark, which
restores the parent's fixpoint, and then applies the decision.

A node scans the live graph only when it has changed. Both children's stack
entries carry the split counts, bridge degrees and classes of their parent's
scan (one shared tuple, never changed). A child whose decision dropped edges
scans only their class K, unless the estimate below prunes it first, and
splices the result into copies of the parent's lists: a vertex x of K splits
into its parts inside K plus one part per parent bridge at x, since each
leads out of K. An include child that drops no closer keeps its parent's
scan. Forcing the scan's bridges leaves the live graph as it was. The live
graph is the only graph a node scans.

The root is a child of a constant pseudo-parent, whose scan has one class
holding every vertex, no pieces and no bridges, and whose bound is 0; the
root rescans that class, the whole live graph. The root's live graph is the
input graph with its adjacency in the same order, so a plain solve's root
takes the lowpoint scan the obligatory bound made of the input as that
class's scan instead of scanning again.

The bound is carried the same way. It sums one addend per class of the
scan, the class's term 1 (its forced branches) plus its term 2, and the
term-1 flags of the vertices in no class. Such a vertex has only bridges
left, all included, so its flag is final: its extra plus live degree
exceeds two. Next to the scan, both children's entries hold the parent's
addend per class (in the order of the scan's classes), and each child
corrects only the addends its decision can touch. A class's addend reads
only the split counts, bridge degrees, live degrees and included degrees of
its vertices. A node takes one of three rules:

* an include child that drops no closer keeps its parent's live graph and
  scan, and only the included degree of the edge's ends u and v rises. The
  edge was undecided, so it is no bridge, and u and v share one class K.
  K's addend changes only when the flag of u or v turns on: the split count
  is unchanged, so that happens exactly when its extra plus included degree
  reaches 3 and its included degree exceeds its split count. Only then does
  the child re-evaluate K's addend, and the bound equals the full evaluation;
* a child below the root that drops edges first re-evaluates K's addend on
  its parent's scan with its own live and included degrees, and is pruned
  without a scan when the parent's bound with that addend in place of K's
  reaches the incumbent;
* else the child rescans K. It changes only vertices of K (its split
  counts, the new bridges and their inclusions all lie in K, and so do the
  ends of the decided and dropped edges), so it swaps K's addend for the
  addends of K's sub-classes and adds the flags of K's vertices left in no
  class, which equals the full evaluation. The pseudo-parent's one addend is
  0, so the root evaluates the bound in full.

The estimate E of the second rule bounds every completion: K is still
connected and every edge leaving it is a bridge of the parent, so a
completion restricted to K spans K, and the parent's split counts and
bridge degrees never overstate the child's. E also never exceeds the full
evaluation F of the third rule, so it prunes only children that F would
prune, and node counts are those of a search that always rescans:

* dropping edges only raises split counts, and forcing bridges only raises
  included degrees, so every flag in E is also a flag in F;
* a vertex newly flagged in F adds 1 to its class's forced branches (c1)
  and takes at most 1 from its degree accounting (c2);
* splitting K at new bridges keeps the summed leftover excess (the need)
  the same, and covering each part's need with its own gains takes at
  least as many gains as covering the sum at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

from .bound import _bound_and_scan, obligatory_branch_bound
from .decompose import Component, decompose, recombine
from .graph import Graph, SpanningTree, _lowpoint, spanning_tree
from .heuristics import best_heuristic


@dataclass(frozen=True)
class SolveOptions:
    """Search controls: optional time and node budgets, and the warm start.

    A time limit is a finite number of seconds above 0, counted from the start
    of the solve call, so the bound and the heuristics spend it too; they are
    not interrupted, only the search is. A node limit is at least 1.
    ``solve_with_decomposition`` splits the time limit across its multi-vertex
    components but applies the node limit to each component's search separately.
    """

    time_limit: float | None = None
    use_warm_start: bool = True
    node_limit: int | None = None

    def __post_init__(self):
        if self.time_limit is not None and not 0.0 < self.time_limit < math.inf:
            raise ValueError(f"time_limit must be finite and above 0, got {self.time_limit!r}")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError(f"node_limit must be at least 1, got {self.node_limit!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: bounds, witness tree, and search statistics.

    ``optimal`` and ``gap_percent`` are read off the two bounds.
    """

    lower_bound: float
    upper_bound: int
    tree: SpanningTree
    nodes_explored: int
    elapsed: float

    @property
    def optimal(self) -> bool:
        return self.lower_bound == self.upper_bound

    @property
    def gap_percent(self) -> float:
        upper = self.upper_bound
        return 100.0 * (upper - self.lower_bound) / upper if upper > 0 else 0.0


def _fallback_tree(g: Graph) -> list[tuple[int, int]]:
    """Deterministic DFS spanning tree of g, for reports with no incumbent."""
    seen = [False] * g.n
    seen[0] = True
    picked = []
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                picked.append((v, w) if v < w else (w, v))
                stack.append(w)
    return picked


def _live_scan(n: int, adj, parent, k: int, live=None):
    """Rescan one class of a connected live graph and splice it into ``parent``.

    Returns ((pieces, bridge_deg, classes), bridges). ``parent`` is the scan
    of the graph before edges inside its k-th class C were dropped from
    ``adj``, leaving C connected: only C can change, so only C is scanned,
    and the result is spliced into copies of the parent's lists. C's
    sub-classes come last, and ``bridges`` are only the new ones, all inside
    C. ``live`` is C's scan when the caller already has one of ``adj``.
    """
    pieces, bridge_deg, classes = parent
    cls = classes[k]
    if live is None:
        live = _lowpoint(n, adj, cls)
    pieces = pieces[:]
    for x in cls:  # each parent bridge at x cuts off a part outside C
        pieces[x] = live.pieces[x] + bridge_deg[x]
    bridge_deg = bridge_deg[:]
    classes = classes[:k] + classes[k + 1 :] + live.classes
    for a, b in live.bridges:
        bridge_deg[a] += 1
        bridge_deg[b] += 1
    return (pieces, bridge_deg, classes), live.bridges


# search states of an edge
_UNDECIDED, _INCLUDED, _EXCLUDED = 0, 1, 2


class _Search:
    """The one search state of g under c's objective (None: the plain one).

    It is built with every edge undecided and changed in place only by
    ``include``, ``exclude`` and ``undo``; ``run`` is the node loop over it.
    Trail entries are ei for an included edge (and the union it made) and ~ei
    for an excluded one.
    """

    __slots__ = ("edges", "edge_id", "gamma", "countable", "status", "adj", "live_deg",
                 "inc_deg", "tight", "group_of", "members", "hung", "trail")

    def __init__(self, g: Graph, c: Component | None):
        n = g.n
        extra, countable = ({}, [True] * n) if c is None else (c.extra_degree, c.countable)
        self.edges = g.edges
        self.edge_id = {e: ei for ei, e in enumerate(g.edges)}
        self.gamma = gamma = [extra.get(v, 0) for v in range(n)]
        self.countable = countable
        self.status = [_UNDECIDED] * g.m
        self.adj = [list(a) for a in g.adjacency]  # live adjacency: the edges not excluded
        self.live_deg = [len(a) for a in self.adj]
        self.inc_deg = [0] * n
        # extra plus included degree, or -1 for a vertex that never counts
        self.tight = [gamma[v] if countable[v] else -1 for v in range(n)]
        # groups joined by included edges: union by size with explicit labels, so
        # a find is one read and a union is undone by relabeling the smaller group
        self.group_of = list(range(n))
        self.members = [[v] for v in range(n)]
        self.hung = [0] * g.m  # the group an included edge merged into a larger one
        self.trail: list[int] = []

    def exclude(self, ei: int) -> None:
        u, v = self.edges[ei]
        self.adj[u].remove(v)
        self.adj[v].remove(u)
        self.live_deg[u] -= 1
        self.live_deg[v] -= 1
        self.status[ei] = _EXCLUDED
        self.trail.append(~ei)

    def include(self, ei: int) -> None:
        """Include ei and merge the groups of its ends."""
        u, v = self.edges[ei]
        self.inc_deg[u] += 1
        self.inc_deg[v] += 1
        self.tight[u] += self.countable[u]
        self.tight[v] += self.countable[v]
        self.status[ei] = _INCLUDED
        self.trail.append(ei)
        group_of, members = self.group_of, self.members
        a, b = group_of[u], group_of[v]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        self.hung[ei] = b
        small = members[b]
        for x in small:
            group_of[x] = a
        members[a] += small

    def closers(self, ei: int) -> list[int]:
        """The live edges other than undecided ei that join its ends' groups.

        Including ei closes each into a cycle. Live edges between two groups
        are all undecided, so the smaller group's live neighbors in the other
        group give them all.
        """
        u, v = self.edges[ei]
        group_of, members, adj, edge_id = self.group_of, self.members, self.adj, self.edge_id
        a, b = group_of[u], group_of[v]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        found = []
        for x in members[b]:
            for w in adj[x]:
                if group_of[w] == a:
                    e = edge_id[(x, w) if x < w else (w, x)]
                    if e != ei:
                        found.append(e)
        return found

    def undo(self, mark: int) -> None:
        """Undo the trail back to its first ``mark`` entries."""
        trail, group_of, members = self.trail, self.group_of, self.members
        while len(trail) > mark:
            ei = trail.pop()
            if ei >= 0:
                u, v = self.edges[ei]
                self.inc_deg[u] -= 1
                self.inc_deg[v] -= 1
                self.tight[u] -= self.countable[u]
                self.tight[v] -= self.countable[v]
                b = self.hung[ei]
                small = members[b]
                del members[group_of[b]][-len(small):]
                for x in small:
                    group_of[x] = b
            else:
                ei = ~ei
                u, v = self.edges[ei]
                self.adj[u].append(v)
                self.adj[v].append(u)
                self.live_deg[u] += 1
                self.live_deg[v] += 1
            self.status[ei] = _UNDECIDED

    def term(self, group, pieces, bridge_deg) -> int:
        """One two-edge-connected class's addend of the node bound: c1 + c2.

        c1 counts the class's forced branches. Each bridge at v cuts off a piece
        of its own and is already included, so bridge degree + max(class pieces,
        chosen class degree) from the module docstring is max(pieces, chosen
        degree) in the live graph. c2 is the class's degree accounting, in which
        a forced branch absorbs any degree.
        """
        gamma, countable, live_deg, inc_deg = (
            self.gamma, self.countable, self.live_deg, self.inc_deg)
        h = len(group)
        c1 = 0
        free = 0
        gains = []
        for v in group:
            d = live_deg[v] - bridge_deg[v]
            if countable[v]:
                if gamma[v] + (pieces[v] if pieces[v] > inc_deg[v] else inc_deg[v]) > 2:
                    c1 += 1
                else:
                    cap = 2 - gamma[v] - bridge_deg[v]
                    if d > cap:
                        free += cap - 1
                        gains.append(d - cap)
                        continue
            free += d - 1
        need = h - 2 - free
        c2 = 0
        if need > 0:
            gains.sort(reverse=True)
            for gain in gains:
                c2 += 1
                need -= gain
                if need <= 0:
                    break
        return c1 + c2

    def run(self, best_val: float, best_ids: list[int] | None, deadline: float | None,
            node_limit: int | None, scans: list | None = None):
        """Branch and bound from the incumbent; returns (lb, ub, tree_ids, nodes).

        ``best_val`` and ``best_ids`` are the incumbent's count and edge ids
        (inf and None for none). The search stops at the ``perf_counter`` time
        ``deadline`` or after ``node_limit`` nodes, if given; one stopped before
        any incumbent returns no tree ids and an infinite ub. ``scans`` may hold
        a lowpoint scan of g's adjacency, which the root pops and takes in place
        of its own scan; it then holds the only reference.
        """
        edges, status, adj, live_deg, inc_deg, tight = (
            self.edges, self.status, self.adj, self.live_deg, self.inc_deg, self.tight)
        include, exclude, closers, undo, term = (
            self.include, self.exclude, self.closers, self.undo, self.term)
        n, m = len(adj), len(edges)
        nodes = 0
        width = n + 1  # the pick key's radix: above every live degree
        # an entry is (edge, include it?, trail mark, parent's bound, parent's
        # fixpoint scan, parent's class terms). The lists are shared by both
        # children and never changed; a child that changes one copies it. Node
        # bounds and the objective are integers, so a node is pruned exactly when
        # its bound reaches the incumbent. The root decides nothing, and its parent
        # is a constant pseudo-parent: one class holding every vertex, no pieces
        # or bridges, and a bound of 0
        pseudo_scan = ([0] * n, [0] * n, [list(range(n))])
        stack: list[tuple] = [(-1, False, 0, 0, pseudo_scan, [0])]
        while stack:
            if node_limit is not None and nodes >= node_limit:
                break
            if deadline is not None and perf_counter() > deadline:
                break
            ei, take, mark, bound, scan, terms = stack.pop()
            if bound >= best_val:
                continue
            nodes += 1
            undo(mark)
            if take:  # unlike a forced bridge, a branching inclusion may close cycles
                dropped = closers(ei)
                include(ei)
                for e in dropped:
                    exclude(e)
            elif ei >= 0:
                exclude(ei)
            # the node bound is a term per class, in the order of the scan's
            # classes, plus the final flags of the vertices in no class; a child
            # corrects the terms its decision can change and keeps the rest. Both
            # ends of the edge lie in its class K (the root's -1 reads the last
            # edge, and its pseudo-parent's one class holds every vertex)
            u, v = edges[ei]
            pieces, bridge_deg, classes = scan
            if take and not dropped:
                # the live graph and its scan are the parent's, and only the
                # included degree of u and v rose, so K's term changes only when
                # the flag of u or v turns on
                if (tight[u] == 3 and inc_deg[u] > pieces[u]) or (
                    tight[v] == 3 and inc_deg[v] > pieces[v]
                ):
                    k = next(i for i, grp in enumerate(classes) if u in grp)
                    t = term(classes[k], pieces, bridge_deg)
                    bound += t - terms[k]
                    terms = terms[:]
                    terms[k] = t
            else:
                # the dropped edges all lie in K, and only K changed. Below the
                # root, K's term on the parent's scan with the child's degrees
                # never exceeds the full evaluation, so a child it prunes skips
                # the rescan. Else K is rescanned, its undecided bridges are
                # included (closing no cycle), and its term gives way to its
                # sub-classes' terms, which come last in the class list. A vertex
                # of K left in no class has only included bridges, so its flag,
                # tightness above two, is final and counted once here. A plain
                # search's root takes the bound's scan of the input
                k = next(i for i, grp in enumerate(classes) if u in grp)
                group = classes[k]
                if ei >= 0 and bound - terms[k] + term(group, pieces, bridge_deg) >= best_val:
                    continue
                scan, bridges = _live_scan(n, adj, scan, k, scans.pop() if scans else None)
                for bridge in bridges:
                    e = self.edge_id[bridge]
                    if status[e] == _UNDECIDED:
                        include(e)
                pieces, bridge_deg, classes = scan
                fresh = [term(grp, pieces, bridge_deg) for grp in classes[len(terms) - 1 :]]
                bound += sum(fresh) - terms[k]
                terms = terms[:k] + terms[k + 1 :] + fresh
                for x in group:
                    if live_deg[x] == bridge_deg[x] and tight[x] > 2:
                        bound += 1
            if bound >= best_val:
                continue

            # branch on the undecided edge at the most constrained endpoint,
            # then the densest; deciding tight vertices first moves the bound.
            # The int key orders edges like (tightness, degree), and a strict >
            # keeps the smallest edge index on ties.
            pick = -1
            pick_key = -width - 1
            for e in range(m):
                if status[e] != _UNDECIDED:
                    continue
                u, v = edges[e]
                tu, tv = tight[u], tight[v]
                du, dv = live_deg[u], live_deg[v]
                key = (tu if tu >= tv else tv) * width + (du if du >= dv else dv)
                if key > pick_key:
                    pick_key = key
                    pick = e
            if pick < 0:  # a leaf: the bound is its tree's branch count
                best_val = bound
                best_ids = [e for e in range(m) if status[e] == _INCLUDED]
                continue
            mark = len(self.trail)
            stack.append((pick, True, mark, bound, scan, terms))
            stack.append((pick, False, mark, bound, scan, terms))

        # a stopped search's open nodes bound the trees it did not reach; a
        # finished search leaves none open
        return float(min([best_val] + [entry[3] for entry in stack])), best_val, best_ids, nodes


def _solve(g, c, lb, opts, t0, seed=None, scans=None) -> SolveReport:
    """Solve g under c's objective (None: the plain one) and report the result.

    A one-vertex graph's only tree, the empty one, is scored, not searched.
    Else the search starts from the best incumbent (the first on ties): the
    heuristics' tree under the warm start, then the certified ``seed``. Its
    upper bound equals the warm tree's count only if the warm tree, already
    certified, still stands; any other tree is certified, a DFS tree of g when
    the search stopped before any incumbent (the open node whose subtree
    holds it bounds below its count). ``lb``, g's obligatory bound or None,
    guides the heuristics and is reported if the search knows less. The time
    limit counts from ``t0``, the start of the public call. ``scans`` goes to
    ``_Search.run``.
    """
    if g.n == 1:
        tree = spanning_tree(g, (), c)
        return SolveReport(float(tree.branches), tree.branches, tree, 0, perf_counter() - t0)
    incumbents = [best_heuristic(g, lb, c)] if opts.use_warm_start else []
    if seed is not None:
        incumbents.append(spanning_tree(g, seed, c))
    warm = min(incumbents, key=lambda t: t.branches, default=None)
    deadline = t0 + opts.time_limit if opts.time_limit is not None else None
    search = _Search(g, c)
    best = (warm.branches, [search.edge_id[e] for e in warm.edges]) if warm else (math.inf, None)
    lower, upper, ids, nodes = search.run(*best, deadline, opts.node_limit, scans)
    own = _fallback_tree(g) if ids is None else [g.edges[ei] for ei in ids]
    if warm is not None and upper == warm.branches:
        tree = SpanningTree(frozenset(own), warm.branches)
    else:
        tree = spanning_tree(g, own, c)
    if lb is not None:
        lower = max(lower, float(lb.value))
    return SolveReport(lower, tree.branches, tree, nodes, perf_counter() - t0)


def solve_plain(g: Graph, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Exact solve on the whole graph; anytime-sound when limits cut it short."""
    t0 = perf_counter()
    # the search's live graph starts as g in g's order, so its root pops the
    # bound's scan from this one-slot list, whose lists go when it is done
    lb, *scans = _bound_and_scan(g)  # also rejects disconnected input
    return _solve(g, None, lb, opts, t0, scans=scans)


def solve_component(
    c: Component, opts: SolveOptions = SolveOptions(), seed_tree=None
) -> SolveReport:
    """Exact solve of one decomposition component under component semantics.

    Split copies never count toward the objective; original vertices carry
    their extra degree. ``seed_tree`` is an optional extra incumbent (local
    edges); the enhanced pipeline passes the projection of a whole-graph
    heuristic tree, which is sometimes better than the component's own
    heuristics. A component has no obligatory vertex, so its heuristics get
    no bound.
    """
    return _solve(c.graph, c, None, opts, perf_counter(), seed_tree)


def solve_with_decomposition(g: Graph, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Bound, decompose, solve every component, and recombine the witness.

    A single-vertex component is not solved: its tree is empty, it adds 0 to
    both bounds, is optimal and takes no node. Any remaining time budget is
    split across the unfinished multi-vertex components in proportion to their
    edge counts, recomputed as components finish. The node limit is not split:
    every multi-vertex component's search may explore up to ``node_limit``
    nodes, and ``nodes_explored`` is their sum. The whole-graph heuristic tree
    only seeds those components, so it is built only when there is one.
    """
    t0 = perf_counter()
    deadline = t0 + opts.time_limit if opts.time_limit is not None else None
    lb = obligatory_branch_bound(g)
    d = decompose(g, lb)
    multi = [c for c in d.components if c.graph.n > 1]
    seeds: list[list | None] = [None] * len(multi)
    if opts.use_warm_start and multi:
        # a whole-graph tree restricted to a component spans it; only the
        # restrictions are kept, so the whole tree is freed before any search
        warm = best_heuristic(g, lb).edges
        seeds = [[e for e, origin in c.edge_origin.items() if origin in warm] for c in multi]
        del warm
    reports = []
    # edges of this and every later component, kept as a running remainder
    remaining_edges = sum(c.graph.m for c in multi)
    for comp, seed in zip(multi, seeds):
        sub = opts
        if deadline is not None:
            m = comp.graph.m
            remaining_time = max(deadline - perf_counter(), 0.0)
            share = remaining_time * (m / remaining_edges)  # never above remaining_time
            remaining_edges -= m
            sub = replace(opts, time_limit=max(share, 1e-3))
        reports.append(solve_component(comp, sub, seed_tree=seed))
    solved = iter(reports)
    trees = [next(solved).tree.edges if c.graph.n > 1 else () for c in d.components]
    upper = lb.value + sum(r.upper_bound for r in reports)
    lower = float(lb.value) + sum(r.lower_bound for r in reports)
    tree = recombine(d, trees)
    nodes = sum(r.nodes_explored for r in reports)
    return SolveReport(lower, upper, tree, nodes, perf_counter() - t0)
