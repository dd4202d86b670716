"""Property tests on small random connected graphs, drawn by hypothesis.

A graph is a random tree on n <= 10 vertices plus a few random extra edges, so
it is connected by construction and small enough for the oracle. Examples are
derandomized, so every run checks the same graphs.
"""
import pytest

from mbv import (
    Component,
    Original,
    SolveOptions,
    SplitCopy,
    best_heuristic,
    brute_force_optimum,
    build_graph,
    decompose,
    is_spanning_tree,
    multi_path_expanding,
    obligatory_branch_bound,
    path_expanding,
    solve_component,
    solve_plain,
    solve_with_decomposition,
    spanning_tree,
)
from mbv.errors import NotASpanningTreeError
from mbv.graph import _count_branches, _lowpoint
from mbv.solver import _UNDECIDED, _live_scan, _Search

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


@st.composite
def connected_graphs(draw, extra=6):
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 2:
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=extra))
    return build_graph(n, edges)


@st.composite
def bridged_graphs(draw, extra=6):
    """Two connected graphs joined by one edge, so that a cycle of each is a class."""
    a, b = draw(connected_graphs(extra)), draw(connected_graphs(extra))
    u, v = draw(st.integers(0, a.n - 1)), draw(st.integers(0, b.n - 1))
    edges = list(a.edges) + [(x + a.n, y + a.n) for x, y in b.edges] + [(u, a.n + v)]
    return build_graph(a.n + b.n, edges)


def _assert_solvers_meet_the_oracle_and_trees_carry_their_own_count(g):
    optimum = brute_force_optimum(g).optimum
    plain, enhanced = solve_plain(g), solve_with_decomposition(g)
    assert plain.optimal and enhanced.optimal
    assert plain.upper_bound == enhanced.upper_bound == optimum
    # with no warm start every incumbent is a search leaf, valued by its bound
    cold = SolveOptions(use_warm_start=False)
    plain_cold = solve_plain(g, cold)
    assert plain_cold.optimal and plain_cold.upper_bound == plain_cold.tree.branches == optimum
    lb = obligatory_branch_bound(g)
    total = lb.value
    for c in decompose(g, lb).components:
        trees = [h(c.graph, None, c) for h in (path_expanding, multi_path_expanding, best_heuristic)]
        trees.append(solve_component(c).tree)
        report = solve_component(c, cold)
        assert report.optimal and report.tree.branches == report.upper_bound
        total += report.upper_bound
        trees.append(report.tree)
        for tree in trees:
            assert tree.branches == _count_branches(
                c.graph.n, tree.edges, c.extra_degree, c.countable
            )
    assert total == optimum


@settings(derandomize=True, deadline=None, max_examples=100)
@given(connected_graphs())
def test_solvers_meet_the_oracle_and_trees_carry_their_own_count(g):
    _assert_solvers_meet_the_oracle_and_trees_carry_their_own_count(g)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bridged_graphs(extra=5))
def test_solvers_meet_the_oracle_on_graphs_of_two_classes(g):
    # almost every draw above has one class or none; these join two, so the
    # search's live graph holds several and the class rescan and the
    # per-class bound are checked against the oracle. Five extra edges per
    # half, not six, keep the oracle's tree enumeration to about a second
    _assert_solvers_meet_the_oracle_and_trees_carry_their_own_count(g)


@st.composite
def edge_sets_of_tree_size(draw):
    """A connected graph and n-1 of its edges, some written in reverse."""
    g = draw(connected_graphs())
    edges = draw(st.permutations(g.edges))[: g.n - 1]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return g, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edge_sets_of_tree_size())
def test_is_spanning_tree_matches_union_find(case):
    g, edges = case
    group = list(range(g.n))

    def joins(u, v):
        while group[u] != u:
            u = group[u]
        while group[v] != v:
            v = group[v]
        group[u] = v
        return u != v

    # n-1 edges span exactly when every one of them joins two groups
    assert is_spanning_tree(g, edges) == all(joins(u, v) for u, v in edges)


@st.composite
def near_tree_edge_lists(draw):
    """A graph, a component of it, and n-2 to n pairs that are mostly its edges.

    The list starts from a random spanning tree of g followed by g's other
    edges; some entries are then replaced by repeats of others (in either
    orientation) or by pairs that are no edge of g (one endpoint may be n),
    and every entry may be flipped. The component marks some vertices as
    split copies and gives some an extra degree.
    """
    g = draw(connected_graphs())
    n = g.n
    group = list(range(n))
    tree, rest = [], []
    for e in draw(st.permutations(g.edges)):
        u, v = e
        while group[u] != u:
            u = group[u]
        while group[v] != v:
            v = group[v]
        group[u] = v
        (tree if u != v else rest).append(e)
    size = max(draw(st.sampled_from((n - 2, n - 1, n - 1, n))), 0)
    edges = (tree + rest)[:size]
    non_edges = [(u, v) for v in range(n + 1) for u in range(v) if (u, v) not in g.edges]
    while len(edges) < size:  # a tree has no edge to spare: repeat one
        edges.append(draw(st.sampled_from(edges or non_edges)))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = draw(st.sampled_from(edges if draw(st.booleans()) else non_edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    split = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    provenance = tuple(SplitCopy(v, 1) if s else Original(v) for v, s in enumerate(split))
    extra = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=n))
    return g, Component(g, provenance, extra, {e: e for e in g.edges}), edges


@settings(derandomize=True, deadline=None, max_examples=400)
@given(near_tree_edge_lists())
def test_spanning_tree_certifies_exactly_the_spanning_trees(case):
    g, comp, edges = case
    normalized = {(u, v) if u < v else (v, u) for u, v in edges}
    valid = normalized <= set(g.edges) and is_spanning_tree(g, edges)
    for component, extra, countable in ((None, {}, [True] * g.n),
                                        (comp, comp.extra_degree, comp.countable)):
        if not valid:
            with pytest.raises(NotASpanningTreeError):
                spanning_tree(g, edges, component)
            continue
        tree = spanning_tree(g, edges, component)
        assert tree.edges == normalized
        assert tree.branches == _count_branches(g.n, edges, extra, countable)


def _full_scan(n, adj):
    """One unrestricted lowpoint scan as ((pieces, bridge degrees, classes), bridges)."""
    live = _lowpoint(n, adj)
    bridge_deg = [0] * n
    for a, b in live.bridges:
        bridge_deg[a] += 1
        bridge_deg[b] += 1
    return (live.pieces, bridge_deg, live.classes), live.bridges


def _assert_splice_is_a_full_scan(n, adj, parent, parent_bridges, u, live=None):
    k = next(i for i, grp in enumerate(parent[2]) if u in grp)
    (pieces, bridge_deg, classes), new = _live_scan(n, adj, parent, k, live)
    full, every = _full_scan(n, adj)
    assert pieces == full[0] and bridge_deg == full[1]
    assert sorted(parent_bridges + new) == sorted(every)
    assert sorted(map(sorted, classes)) == sorted(map(sorted, full[2]))


def _without(g, dropped):
    adj = [list(a) for a in g.adjacency]
    for u, v in dropped:
        adj[u].remove(v)
        adj[v].remove(u)
    return adj


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bridged_graphs(), st.data())
def test_class_rescan_spliced_into_the_scan_equals_a_full_scan(g, data):
    # dropping edges inside one class C that leave it connected can change
    # only C: rescanning C and splicing it into g's scan must give the full
    # scan of what is left. That holds for one non-bridge edge (an exclude
    # child), for edges off a spanning tree of C (an include child's cycle
    # closers, which its included paths keep joined), and for the root: its
    # pseudo-parent, one class of every vertex with no pieces or bridges,
    # spliced with a scan of that class, its own or one given as ``live``
    n = g.n
    whole, bridges = _full_scan(n, g.adjacency)
    kept = (list(whole[0]), list(whole[1]), [list(grp) for grp in whole[2]])
    pseudo = ([0] * n, [0] * n, [list(range(n))])
    u = data.draw(st.integers(0, n - 1))
    _assert_splice_is_a_full_scan(n, g.adjacency, pseudo, [], u)
    _assert_splice_is_a_full_scan(n, g.adjacency, pseudo, [], u, _lowpoint(n, g.adjacency))
    for u, v in g.edges:
        if (u, v) not in bridges:
            _assert_splice_is_a_full_scan(n, _without(g, [(u, v)]), whole, bridges, u)
    parent = _lowpoint(n, g.adjacency).parent  # a DFS tree spans each class
    for grp in whole[2]:
        inside = set(grp)
        off_tree = [(u, v) for u, v in g.edges
                    if u in inside and v in inside and parent[u] != v and parent[v] != u]
        dropped = data.draw(st.sets(st.sampled_from(off_tree), min_size=1))
        u = data.draw(st.sampled_from(grp))
        _assert_splice_is_a_full_scan(n, _without(g, dropped), whole, bridges, u)
    assert whole == kept  # the parent's scan is shared, never changed


def _drawn_component(g, data):
    """g as a component whose drawn flags mark split copies and extra degrees."""
    n = g.n
    gamma = data.draw(st.lists(st.sampled_from((0, 0, 1, 1, 2)), min_size=n, max_size=n))
    countable = data.draw(st.lists(st.sampled_from((True, True, True, False)),
                                   min_size=n, max_size=n))
    provenance = tuple(Original(v) if ok else SplitCopy(v, 1) for v, ok in enumerate(countable))
    extra = {v: d for v, d in enumerate(gamma) if d}
    return Component(g, provenance, extra, {e: e for e in g.edges})


def _branch_include(s, ei):
    """A branching inclusion as the search makes it: ei goes in, its closers out."""
    dropped = s.closers(ei)
    s.include(ei)
    for e in dropped:
        s.exclude(e)


def _include_bridges(s, bridges):
    for bridge in bridges:
        if s.status[s.edge_id[bridge]] == _UNDECIDED:
            s.include(s.edge_id[bridge])


def _node_bound(s):
    """A search node's bound evaluated in full from one unrestricted scan."""
    n = len(s.adj)
    (pieces, bridge_deg, classes), _ = _full_scan(n, s.adj)
    in_class = {x for grp in classes for x in grp}
    return sum(s.term(grp, pieces, bridge_deg) for grp in classes) + sum(
        1 for x in range(n)
        if x not in in_class and s.countable[x] and s.gamma[x] + s.live_deg[x] > 2)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bridged_graphs(extra=8), st.data())
def test_class_term_before_the_rescan_never_exceeds_the_full_bound(g, data):
    # a search child that drops edges inside class K of its parent's fixpoint
    # is first bounded by the parent's bound with K's term re-evaluated on
    # the parent's scan but the child's degrees, and pruned on that. Node
    # counts stay the same only if this never exceeds the child's full bound
    n = g.n
    s = _Search(g, _drawn_component(g, data))
    # the parent: a forest of included edges, each dropping its cycle
    # closers, and some excluded edges that leave the live graph connected,
    # then the fixpoint: every bridge included
    for e, take in data.draw(st.lists(st.tuples(st.sampled_from(g.edges), st.booleans()),
                                      max_size=8)):
        ei = s.edge_id[e]
        if s.status[ei] != _UNDECIDED:
            continue
        if take:
            _branch_include(s, ei)
        else:
            mark = len(s.trail)
            s.exclude(ei)
            if _lowpoint(n, s.adj).count != 1:
                s.undo(mark)
    (pieces, bridge_deg, classes), bridges = _full_scan(n, s.adj)
    _include_bridges(s, bridges)
    undecided = [ei for ei in range(g.m) if s.status[ei] == _UNDECIDED]
    assume(undecided)
    parent = _node_bound(s)
    mark = len(s.trail)
    for ei in undecided:
        u, v = g.edges[ei]
        k = next(i for i, grp in enumerate(classes) if u in grp)
        assert v in classes[k]
        term = s.term(classes[k], pieces, bridge_deg)
        # both children: exclude the edge, or include it and drop its closers
        for take in (False, True):
            if take:
                _branch_include(s, ei)
            else:
                s.exclude(ei)
            guess = parent - term + s.term(classes[k], pieces, bridge_deg)
            _include_bridges(s, _full_scan(n, s.adj)[1])
            assert guess <= _node_bound(s)
            s.undo(mark)


def _state(s):
    """The search state's lists, each live adjacency list sorted."""
    return (s.status[:], s.live_deg[:], s.inc_deg[:], s.tight[:], s.group_of[:],
            [grp[:] for grp in s.members], s.trail[:], [sorted(a) for a in s.adj])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bridged_graphs(), st.data())
def test_undo_restores_the_search_state_at_each_mark(g, data):
    # popping a node undoes the trail back to its parent's mark, after any
    # run of exclusions and of inclusions that dropped their cycle closers,
    # and the search then goes on from the restored state. Undo re-appends
    # a live neighbor, so only the adjacency order may differ
    s = _Search(g, _drawn_component(g, data))
    marks = []  # (trail mark, the state at it) before each decision
    for _ in range(data.draw(st.integers(1, 4))):
        for ei, take in data.draw(st.lists(st.tuples(st.integers(0, g.m - 1), st.booleans()),
                                           max_size=10)):
            if s.status[ei] == _UNDECIDED:
                marks.append((len(s.trail), _state(s)))
                if take:
                    _branch_include(s, ei)
                else:
                    s.exclude(ei)
        if marks:
            i = data.draw(st.integers(0, len(marks) - 1))
            mark, state = marks[i]
            del marks[i + 1 :]
            s.undo(mark)
            assert _state(s) == state
