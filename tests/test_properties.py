"""Property tests on small random connected graphs, drawn by hypothesis.

A graph is a random tree on n <= 10 vertices plus a few random extra edges, so
it is connected by construction and small enough for the oracle. The last test
draws instance texts instead, from a small token grammar. Examples are
derandomized, so every run checks the same graphs and texts.
"""
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from mbv import (
    Graph,
    best_heuristic,
    brute_force_optimum,
    build_graph,
    decompose,
    generate_random_connected,
    is_spanning_tree,
    multi_path_expanding,
    obligatory_branch_bound,
    parse_dimacs,
    parse_instance,
    path_expanding,
    recombine,
    solve_component,
    solve_plain,
    solve_with_decomposition,
    spanning_tree,
)
from mbv.cli import main as cli_main
from mbv.errors import MbvError, NotASpanningTreeError
from mbv.graph import _count_branches, _lowpoint
from mbv.solver import _corrected, _live_scan, _Search

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import whole_component  # noqa: E402


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
    # a search from no incumbent finds every tree it keeps at a leaf, valued by
    # its bound, which must be the tree's own count
    assert _cold_search(g, None) == optimum
    lb = obligatory_branch_bound(g)
    total = lb.value
    for c in decompose(g, lb).components:
        trees = [h(c.graph, None, c) for h in (path_expanding, multi_path_expanding, best_heuristic)]
        report = solve_component(c)
        assert report.optimal and report.tree.branches == report.upper_bound
        assert _cold_search(c.graph, c) == report.upper_bound
        total += report.upper_bound
        trees.append(report.tree)
        for tree in trees:
            assert tree.branches == _count_branches(tree.edges, c.extra_degree, c.countable)
    assert total == optimum


def _cold_search(g, c):
    """The ub of a search of g from no incumbent, checked as its tree's count."""
    lower, upper, ids, nodes = _Search(g, c).run(math.inf, None, None, None)
    assert lower == upper
    assert spanning_tree(g, [g.edges[ei] for ei in ids], c).branches == upper
    return upper


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
    extra = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=n))
    return g, whole_component(g, map(int, split), [extra.get(v, 0) for v in range(n)]), edges


@settings(derandomize=True, deadline=None, max_examples=400)
@given(near_tree_edge_lists())
def test_spanning_tree_certifies_exactly_the_spanning_trees(case):
    g, comp, edges = case
    normalized = {(u, v) if u < v else (v, u) for u, v in edges}
    valid = normalized <= set(g.edges) and is_spanning_tree(g, edges)
    for component, extra, countable in ((None, [0] * g.n, [True] * g.n),
                                        (comp, comp.extra_degree, comp.countable)):
        if not valid:
            with pytest.raises(NotASpanningTreeError):
                spanning_tree(g, edges, component)
            continue
        tree = spanning_tree(g, edges, component)
        assert tree.edges == normalized
        assert tree.branches == _count_branches(edges, extra, countable)


def _random_tree(draw, g):
    """A spanning tree of connected g, as a list of its edges in a drawn order."""
    group = list(range(g.n))
    tree = []
    for e in draw(st.permutations(g.edges)):
        u, v = e
        while group[u] != u:
            u = group[u]
        while group[v] != v:
            v = group[v]
        if u != v:
            group[u] = v
            tree.append(e)
    return tree


@st.composite
def component_tree_lists(draw):
    """A decomposition and one pair list per component, valid or perturbed.

    Each list starts as a spanning tree of its component. Then a few lists
    lose a pair, gain one (an edge of the component or not), repeat one in
    either orientation, take a pair of another component's list, flip a pair,
    trade a tree pair for another edge of the component, or trade places with
    another component's list.
    """
    g = draw(connected_graphs(extra=3) | bridged_graphs(extra=3))
    d = decompose(g, obligatory_branch_bound(g))
    parts = [_random_tree(draw, c.graph) for c in d.components]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        k = draw(st.integers(0, len(parts) - 1))
        part, comp = parts[k], d.components[k]
        kind = draw(st.sampled_from(("drop", "add", "repeat", "foreign", "flip", "trade",
                                     "swap")))
        pairs = st.tuples(st.integers(-1, comp.graph.n), st.integers(-1, comp.graph.n))
        if kind == "add":
            part.append(draw(st.sampled_from(comp.graph.edges) | pairs if comp.graph.m else pairs))
        elif kind == "foreign":
            others = [e for j, q in enumerate(parts) if j != k for e in q]
            if others:
                part.append(draw(st.sampled_from(others)))
        elif kind == "swap":
            j = draw(st.integers(0, len(parts) - 1))
            parts[k], parts[j] = parts[j], part
        elif part:
            i = draw(st.integers(0, len(part) - 1))
            u, v = part[i]
            if kind == "drop":
                del part[i]
            elif kind == "repeat":
                part.append((v, u) if draw(st.booleans()) else (u, v))
            elif kind == "flip":
                part[i] = (v, u)
            elif comp.graph.m:  # a one-vertex component's list may hold a pair
                part[i] = draw(st.sampled_from(comp.graph.edges))
    return d, parts


@settings(derandomize=True, deadline=None, max_examples=400)
@given(component_tree_lists())
def test_recombine_accepts_exactly_when_every_part_spans_its_component(case):
    # the reference is the rule recombine applied part by part: each part a
    # spanning tree of its component, then the mapped parts and the cut
    # edges a spanning tree of the source
    d, parts = case
    expected = None
    if all(is_spanning_tree(c.graph, part) for c, part in zip(d.components, parts)):
        edges = set(d.cut_edges)
        for c, part in zip(d.components, parts):
            edges.update(c.edge_origin[(u, v) if u < v else (v, u)] for u, v in part)
        if is_spanning_tree(d.source, edges):
            expected = spanning_tree(d.source, edges)
    if expected is None:
        with pytest.raises(NotASpanningTreeError):
            recombine(d, parts)
    else:
        assert recombine(d, parts) == expected


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
    return whole_component(g, [int(not ok) for ok in countable], gamma)


def _branch_include(s, ei):
    """A branching inclusion as the search makes it: ei goes in, its closers out."""
    dropped, _ = s.closers(ei)
    s.include(ei)
    for e in dropped:
        s.exclude(e)


def _include_bridges(s, bridges):
    for bridge in bridges:
        if s.slot[s.edge_id[bridge]] >= 0:
            s.include(s.edge_id[bridge])


def _node_bound(s):
    """A search node's bound evaluated in full from one unrestricted scan."""
    n = len(s.adj)
    (pieces, bridge_deg, classes), _ = _full_scan(n, s.adj)
    in_class = {x for grp in classes for x in grp}
    return sum(s.term(grp, pieces, bridge_deg)[0] for grp in classes) + sum(
        1 for x in range(n)
        if x not in in_class and s.countable[x] and s.gamma[x] + s.live_deg[x] > 2)


def _parent_fixpoint(s, g, decisions):
    """Apply drawn decisions as a search path would, then include every bridge.

    Each inclusion drops its cycle closers, and an exclusion that would cut
    the live graph is undone. Returns the fixpoint's scan.
    """
    n = g.n
    for e, take in decisions:
        ei = s.edge_id[e]
        if s.slot[ei] < 0:
            continue
        if take:
            _branch_include(s, ei)
        else:
            mark = len(s.trail)
            s.exclude(ei)
            if _lowpoint(n, s.adj).count != 1:
                s.undo(mark)
    scan, bridges = _full_scan(n, s.adj)
    _include_bridges(s, bridges)
    return scan


def _included_degree(s, x):
    """x's included degree counted from the trail, the one record of inclusions."""
    return sum(x in s.edges[e] for e in s.trail if e >= 0)


def _flag(s, x, pieces):
    """x's forced-branch flag as the module docstring defines it."""
    return s.countable[x] and s.gamma[x] + max(pieces[x], _included_degree(s, x)) > 2


def _check_children(s, scan):
    """Check both children of every undecided edge at a fixpoint; return their kinds.

    A child corrects its class K's tally at the vertices it touched: the ends
    of its edge and, as ``closers`` gives them, of the closers it drops. On
    the parent's scan with the child's degrees, that must equal the full walk
    of K. An include child that drops nothing changes the tally only when a
    flag turns on (the flag-flip rule, checked against the flag's definition
    before and after the inclusion), and the corrected bound never exceeds
    the child's full bound, so a child it prunes skips only a rescan that
    would prune it too.
    """
    n = len(s.adj)
    pieces, bridge_deg, classes = scan
    parent = _node_bound(s)
    mark = len(s.trail)
    kinds = set()
    for ei in [e for e in range(len(s.edges)) if s.slot[e] >= 0]:
        u, v = s.edges[ei]
        k = next(i for i, grp in enumerate(classes) if u in grp)
        assert v in classes[k]
        tally = s.term(classes[k], pieces, bridge_deg)
        for take in (False, True):
            dropped, touched = s.closers(ei) if take else ([], (u, v))
            before = s.share(touched, pieces, bridge_deg)
            flagged = [_flag(s, x, pieces) for x in (u, v)]
            if take:
                _branch_include(s, ei)
            else:
                s.exclude(ei)
            child = _corrected(tally, len(classes[k]), before, s.share(touched, pieces, bridge_deg))
            assert child == s.term(classes[k], pieces, bridge_deg)
            if not take:
                kinds.add("exclude")
            elif dropped:
                kinds.add("include dropping closers")
            else:
                flips = [x for x, was in zip((u, v), flagged) if not was and _flag(s, x, pieces)]
                assert flips == [x for x in (u, v)
                                 if s.tight[x] == 3 and s.gamma[x] + pieces[x] < 3]
                assert child[1] == tally[1] + len(flips)
                assert child == tally or flips
                if flips:
                    kinds.add("include flipping a flag")
            guess = parent - tally[0] + child[0]
            _include_bridges(s, _full_scan(n, s.adj)[1])
            assert guess <= _node_bound(s)
            s.undo(mark)
    return kinds


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bridged_graphs(extra=8), st.data())
def test_class_term_before_the_rescan_never_exceeds_the_full_bound(g, data):
    # a search child that drops edges inside class K of its parent's fixpoint
    # is first bounded by the parent's bound with K's tally corrected at the
    # vertices it touched, and pruned on that. Node counts stay the same only
    # if this never exceeds the child's full bound
    s = _Search(g, _drawn_component(g, data))
    scan = _parent_fixpoint(s, g, data.draw(
        st.lists(st.tuples(st.sampled_from(g.edges), st.booleans()), max_size=8)))
    assume(s.undecided)
    _check_children(s, scan)


def test_corrected_class_tally_meets_every_kind_of_child():
    # the drawn graphs above are small; these search-sized ones, with a few
    # extra degrees and split copies, show each kind of child at least once
    kinds = set()
    for seed in range(3):
        g = generate_random_connected(30, 40, seed)
        rng = random.Random(seed)
        c = whole_component(g, [int(rng.random() < 0.2) for _ in range(g.n)],
                            [rng.choice((1, 2)) if rng.random() < 0.3 else 0 for _ in range(g.n)])
        for _ in range(3):
            s = _Search(g, c)
            decisions = [(rng.choice(g.edges), rng.random() < 0.6) for _ in range(6)]
            kinds |= _check_children(s, _parent_fixpoint(s, g, decisions))
    assert kinds == {"exclude", "include dropping closers", "include flipping a flag"}


def _state(s):
    """The search state's lists, the undecided edges and live adjacency lists sorted.

    Of the slots only which edges have one counts: undo may reorder the list.
    """
    return (sorted(s.undecided), [i >= 0 for i in s.slot], s.live_deg[:], s.tight[:],
            s.group_of[:], [grp[:] for grp in s.members], s.trail[:],
            [sorted(a) for a in s.adj])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bridged_graphs(), st.data())
def test_undo_restores_the_search_state_at_each_mark(g, data):
    # popping a node undoes the trail back to its parent's mark, after any
    # run of exclusions and of inclusions that dropped their cycle closers,
    # and the search then goes on from the restored state. Undo re-appends
    # a live neighbor and an undecided edge, so only the order of the
    # adjacency and of the undecided list may differ; at every mark the list
    # holds the undecided edges, each at its slot, a decided edge has none,
    # and the lists kept in step with a record agree with it: tightness with
    # the trail's inclusions, live degrees with the live adjacency
    s = _Search(g, _drawn_component(g, data))
    marks = []  # (trail mark, the state at it) before each decision
    for _ in range(data.draw(st.integers(1, 4))):
        for ei, take in data.draw(st.lists(st.tuples(st.integers(0, g.m - 1), st.booleans()),
                                           max_size=10)):
            if s.slot[ei] >= 0:
                assert sorted(s.undecided) == [e for e in range(g.m) if s.slot[e] >= 0]
                assert all(s.undecided[s.slot[e]] == e for e in s.undecided)
                assert all(s.slot[e if e >= 0 else ~e] == -1 for e in s.trail)
                assert s.tight == [s.gamma[v] + _included_degree(s, v) if s.countable[v] else -1
                                   for v in range(g.n)]
                assert s.live_deg == [len(a) for a in s.adj]
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


# the grammar's words and integers, and spellings of an integer that int()
# reads but a count or vertex id may not take: a + sign, an _, digits
# outside ASCII
_TOKENS = (st.sampled_from(("p", "edge", "e", "c", "#", "x", "col", "1_0", "\u0663", "\u00b2"))
           | st.integers(-1, 9).map(str) | st.integers(0, 9).map("+{}".format))


@st.composite
def instance_texts(draw):
    """Lines of grammar tokens; about half the draws start from a valid instance."""
    lines = []
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8))
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        if draw(st.booleans()):
            lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
        else:
            lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    for line in draw(st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(instance_texts())
def test_malformed_text_is_refused_never_crashes(tmp_path_factory, text):
    # bad input is an MbvError from the parsers and exit 1 from the CLI,
    # never another exception; a graph is read only from its format's words
    # and ASCII decimal integers, whatever the comment lines hold
    for parse, comment in ((parse_instance, "#"), (parse_dimacs, "c")):
        try:
            assert isinstance(parse(text), Graph)
        except MbvError:
            continue
        words = [w for line in text.splitlines() if line.strip()[:1] not in ("", comment)
                 for w in line.split()]
        assert all(re.fullmatch(r"p|edge|e|-?[0-9]+", w) for w in words), text
    path = tmp_path_factory.getbasetemp() / "drawn.graph"
    path.write_bytes(text.encode())
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        assert cli_main(["stats", str(path)]) in (0, 1)
