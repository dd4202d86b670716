import hashlib
import math
import random
import time
from dataclasses import replace

import pytest

import mbv.solver
from mbv import (
    Graph,
    Original,
    SplitCopy,
    SolveOptions,
    branch_count,
    brute_force_optimum,
    build_graph,
    decompose,
    enumerate_spanning_trees,
    generate_random_connected,
    is_spanning_tree,
    obligatory_branch_bound,
    solve_component,
    solve_plain,
    solve_with_decomposition,
    spanning_tree,
)
from mbv.decompose import Component
from mbv.errors import DisconnectedInputError


def test_path_is_free(p4):
    report = solve_plain(p4)
    assert report.optimal
    assert report.upper_bound == 0
    assert report.lower_bound == 0
    assert report.gap_percent == 0.0


def test_k24(k24):
    report = solve_plain(k24)
    assert report.optimal
    assert report.lower_bound == report.upper_bound == 1
    assert report.tree.branches == 1


def test_petersen(petersen):
    report = solve_plain(petersen)
    assert report.optimal
    assert report.upper_bound == 0


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedInputError):
        solve_plain(g)
    with pytest.raises(DisconnectedInputError):
        solve_with_decomposition(g)


def test_single_split_copy_component():
    comp = Component(
        graph=build_graph(1, []),
        provenance=(SplitCopy(3, 2),),
        extra_degree={},
        edge_origin={},
    )
    report = solve_component(comp)
    assert report.optimal
    assert report.upper_bound == 0
    # a one-vertex component is scored by its objective like any other: a lone
    # original with three or more deleted bridges is a branch in its only tree.
    # decompose never builds one (the vertex would be obligatory and split),
    # but a hand-built component can hold one
    cases = [(Original(0), {0: d} if d else {}, int(d > 2)) for d in range(5)]
    cases.append((SplitCopy(0, 1), {}, 0))
    for origin, extra, branches in cases:
        comp = Component(comp.graph, (origin,), extra, {})
        report = solve_component(comp)
        assert spanning_tree(comp.graph, (), comp).branches == branches
        assert report.lower_bound == report.upper_bound == branches
        assert report.optimal
        assert report.nodes_explored == 0


def _triangle_component(extra):
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    return Component(
        graph=g,
        provenance=(Original(4), Original(5), Original(6)),
        extra_degree=extra,
        edge_origin={e: e for e in g.edges},
    )


def test_triangle_component_with_one_extra():
    report = solve_component(_triangle_component({2: 1}))
    assert report.optimal
    assert report.upper_bound == 0


def test_triangle_component_with_two_extra():
    # every triangle spanning tree gives each vertex degree >= 1, so 1 + 2 > 2
    report = solve_component(_triangle_component({2: 2}))
    assert report.optimal
    assert report.upper_bound == 1


def test_component_report_matches_semantics(two_triangles):
    d = decompose(two_triangles, obligatory_branch_bound(two_triangles))
    for comp in d.components:
        report = solve_component(comp)
        assert report.optimal
        assert spanning_tree(comp.graph, report.tree.edges, comp).branches == report.upper_bound
        assert report.tree.branches == report.upper_bound


def _component_brute_force(comp):
    best = [None]

    def visit(tree):
        val = spanning_tree(comp.graph, tree, comp).branches
        if best[0] is None or val < best[0]:
            best[0] = val

    enumerate_spanning_trees(comp.graph, visit)
    return best[0]


def test_component_optimum_matches_brute_force():
    # independent route: minimize the component objective over all trees
    rng = random.Random(4242)
    checked = 0
    while checked < 25:
        n = rng.randrange(6, 13)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(1, 8))
        g = generate_random_connected(n, m, seed=rng.randrange(10**7))
        d = decompose(g, obligatory_branch_bound(g))
        for comp in d.components:
            if comp.graph.n <= 1:
                continue
            report = solve_component(comp)
            assert report.optimal
            assert report.upper_bound == _component_brute_force(comp)
            checked += 1


def test_enhanced_pipeline(spider, two_triangles):
    assert solve_with_decomposition(spider).upper_bound == 1
    report = solve_with_decomposition(two_triangles)
    assert report.optimal
    assert report.upper_bound == 0
    assert is_spanning_tree(two_triangles, report.tree.edges)


def test_exactness_random_suite():
    rng = random.Random(71)
    for trial in range(60):
        n = rng.randrange(5, 11)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 6))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        optimum = brute_force_optimum(g).optimum
        plain = solve_plain(g)
        enhanced = solve_with_decomposition(g)
        assert plain.optimal and enhanced.optimal
        assert plain.upper_bound == enhanced.upper_bound == optimum
        assert plain.tree.branches == optimum
        assert branch_count(g.n, enhanced.tree.edges) == optimum


# a certified tree keeps the graph's own normalized tuples instead of copies
SHARED = (generate_random_connected(300, 360, 5), SolveOptions(node_limit=50))


def test_plain_tree_shares_the_graphs_edge_tuples():
    g, opts = SHARED
    own = {id(e) for e in g.edges}
    tree = solve_plain(g, opts).tree.edges
    assert len(tree) == g.n - 1
    assert all(id(e) in own for e in tree)


def test_enhanced_tree_shares_the_graphs_edge_tuples():
    g, opts = SHARED
    own = {id(e) for e in g.edges}
    # the deleted bridges come back as the bound's own tuples
    tree = solve_with_decomposition(g, opts).tree.edges - obligatory_branch_bound(g).bridges
    assert len(tree) > g.n // 2
    assert all(id(e) in own for e in tree)


def test_node_limit_bounds_each_component_search():
    # two K_{2,4} joined by a bridge: two multi-vertex components, each
    # searched with the whole node limit
    k24 = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)]
    g = build_graph(12, k24 + [(u + 6, v + 6) for u, v in k24] + [(5, 6)])
    d = decompose(g, obligatory_branch_bound(g))
    assert sorted(c.graph.n for c in d.components) == [6, 6]
    for limit in (1, 2, 3):
        opts = SolveOptions(node_limit=limit, use_warm_start=False)
        assert solve_with_decomposition(g, opts).nodes_explored == 2 * limit
        assert solve_plain(g, opts).nodes_explored == limit


def test_anytime_soundness_with_node_limit(monkeypatch):
    fallback = mbv.solver._fallback_tree
    fallbacks = 0

    def counted(g):
        nonlocal fallbacks
        fallbacks += 1
        return fallback(g)

    monkeypatch.setattr(mbv.solver, "_fallback_tree", counted)
    cold_stops = {solve_plain: 0, solve_with_decomposition: 0}
    rng = random.Random(83)
    for trial in range(25):
        n = rng.randrange(6, 11)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(2, 6))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        optimum = brute_force_optimum(g).optimum
        obligatory = obligatory_branch_bound(g).value
        # every stop point leaves the trail part-way; the answer must not care.
        # A time limit that passes before the root node stops earliest of all.
        # A cold start that stops before its first leaf returns the fallback tree.
        stops = [SolveOptions(node_limit=limit) for limit in range(1, 51)]
        stops.append(SolveOptions(time_limit=1e-9))
        stops += [replace(opts, use_warm_start=False) for opts in stops]
        for opts in stops:
            for solve in (solve_plain, solve_with_decomposition):
                before = fallbacks
                report = solve(g, opts)
                cold_stops[solve] += fallbacks > before
                assert obligatory <= report.lower_bound <= optimum <= report.upper_bound
                assert is_spanning_tree(g, report.tree.edges)
                assert report.tree.branches == report.upper_bound
                if report.optimal:
                    assert report.upper_bound == optimum
    assert all(cold_stops.values()), cold_stops


def test_budgeted_answers_are_pinned():
    # a search stopped by its node limit reports the smallest bound among its
    # open nodes, and a search run to proof explores a node count set by every
    # node's bound, so these answers expose the node bounds, not only the
    # optima. They were recorded with the bound evaluated in full at every
    # node; a child that corrects its parent's bound must land on the same
    # numbers.
    limited = []
    cases = [(60, 66, seed) for seed in range(2000, 2004)]
    cases += [(100, 130, seed) for seed in (3000, 3001)]
    for n, m, seed in cases:
        g = generate_random_connected(n, m, seed)
        for solve in (solve_plain, solve_with_decomposition):
            for limit in range(1, 41):
                r = solve(g, SolveOptions(node_limit=limit))
                limited.append((r.lower_bound, r.upper_bound, r.nodes_explored))
    digest = hashlib.sha256(repr(limited).encode()).hexdigest()
    assert digest == "3ff5e79e664d44973448f0985b8698d496df10d68f38250abdc46bd57bfad276"
    proved = []
    for n, m, seed in cases[:4]:
        g = generate_random_connected(n, m, seed)
        for solve in (solve_plain, solve_with_decomposition):
            r = solve(g)
            proved.append((r.lower_bound, r.upper_bound, r.nodes_explored))
    assert proved == [
        (11.0, 11, 549), (11.0, 11, 159), (12.0, 12, 507), (12.0, 12, 423),
        (8.0, 8, 1615), (8.0, 8, 1565), (9.0, 9, 2283), (9.0, 9, 410),
    ]


def test_cold_budgeted_answers_are_pinned():
    # a cold start stopped before its first leaf reports the fallback tree,
    # and one stopped later the search's own best tree, so these answers pin
    # the bounds of cold searches and the trees they report on every path
    limited = []
    cases = [(60, 66, seed) for seed in range(2000, 2004)]
    cases += [(100, 130, seed) for seed in (3000, 3001)]
    for n, m, seed in cases:
        g = generate_random_connected(n, m, seed)
        for solve in (solve_plain, solve_with_decomposition):
            for limit in range(1, 41):
                r = solve(g, SolveOptions(node_limit=limit, use_warm_start=False))
                limited.append((r.lower_bound, r.upper_bound, r.nodes_explored,
                                sorted(r.tree.edges)))
    digest = hashlib.sha256(repr(limited).encode()).hexdigest()
    assert digest == "22e0273ee2ed29c272399a12dcb429d8adf95cd14b4802e7aedbb2d0d943c8b0"


def test_inclusions_that_drop_several_closers():
    # on these denser graphs an included edge often closes two or more cycles
    # at once, which the sparse pinned cases above almost never do; dropping
    # only the first closer of each inclusion changes both answers. Recorded
    # when the closers were looked up in a per-vertex edge table.
    proved = []
    for n, m, seed in ((20, 32, 904), (30, 45, 500)):
        g = generate_random_connected(n, m, seed)
        for solve in (solve_plain, solve_with_decomposition):
            r = solve(g)
            proved.append((r.lower_bound, r.upper_bound, r.nodes_explored))
    assert proved == [(2.0, 2, 2457), (2.0, 2, 3035), (1.0, 1, 360), (1.0, 1, 360)]


def test_search_scans_per_node(monkeypatch):
    # a node rescans the live graph only when it changed, and then only the
    # class its decision dropped edges from; the live graph is the only graph
    # a node scans. A search's first scan is its root's, of the one class of
    # its pseudo-parent: the searched graph's whole vertex list. Every later
    # scan lies in a class of an earlier scan. The live graph stays
    # connected, which the search relies on without checking. A plain
    # search's root takes the bound's scan of the input, which is not
    # counted here, but its classes are seen. A child that its class's term
    # on the parent's scan prunes scans nothing. Scanned vertices per node,
    # over the searched graph's n (summed across the components of an
    # enhanced solve), read 0.061-0.132 plain and 0.091-0.213 enhanced; a
    # search that rescans before it tries that prune reads 0.150-0.336 and
    # 0.300-0.486.
    searches = []  # [vertices of the searched graph, scanned share, scans, nodes]
    seen_classes = {}  # id -> every class an earlier scan returned
    lowpoint = mbv.solver._lowpoint
    run = mbv.solver._Search.run
    bound_and_scan = mbv.solver._bound_and_scan

    def taking(g):
        lb, scan = bound_and_scan(g)
        seen_classes.update((id(grp), grp) for grp in scan.classes)
        return lb, scan

    def counting(n, adj, within):
        size = searches[-1][0]
        assert n == size
        if seen_classes.get(id(within)) is not within:
            assert searches[-1][2] == 0 and within == list(range(n))
        searches[-1][1] += len(within) / size
        searches[-1][2] += 1
        scan = lowpoint(n, adj, within)
        assert scan.count == 1
        seen_classes.update((id(grp), grp) for grp in scan.classes)
        return scan

    def recording(search, *args):
        searches.append([len(search.adj), 0.0, 0])
        out = run(search, *args)
        searches[-1].append(out[3])
        return out

    monkeypatch.setattr(mbv.solver, "_lowpoint", counting)
    monkeypatch.setattr(mbv.solver._Search, "run", recording)
    monkeypatch.setattr(mbv.solver, "_bound_and_scan", taking)
    cases = [(60, 66, seed, None) for seed in range(2000, 2005)]
    cases += [(100, 130, seed, 1000) for seed in range(3000, 3003)]
    for n, m, seed, limit in cases:
        g = generate_random_connected(n, m, seed)
        for solve, most in ((solve_plain, 0.2), (solve_with_decomposition, 0.3)):
            searches.clear()
            report = solve(g, SolveOptions(node_limit=limit))
            case = (n, m, seed, solve.__name__)
            assert report.nodes_explored == sum(nodes for *_, nodes in searches) > 0
            scanned = sum(share for _, share, *_ in searches)
            assert scanned <= most * report.nodes_explored, case


def test_plain_root_frees_the_bound_scan(monkeypatch):
    # the root takes the bound's scan of the input and is its last holder, so
    # the scan's DFS lists are freed before the next node scans
    freed = []
    at_scan = []

    class Tracked(list):
        def __del__(self):
            freed.append(self)

    bound_and_scan = mbv.solver._bound_and_scan
    lowpoint = mbv.solver._lowpoint

    def tracking(g):
        lb, scan = bound_and_scan(g)
        return lb, scan._replace(entry=Tracked(scan.entry))

    def counting(n, adj, within=None):
        at_scan.append(len(freed))
        return lowpoint(n, adj, within)

    monkeypatch.setattr(mbv.solver, "_bound_and_scan", tracking)
    monkeypatch.setattr(mbv.solver, "_lowpoint", counting)
    solve_plain(generate_random_connected(60, 66, 2000), SolveOptions(node_limit=3))
    assert at_scan and all(at_scan)


def test_class_rescan_finds_bridges_inside_the_class(two_triangles):
    # dropping (0, 1) leaves its triangle a path: both its other edges become
    # bridges, 2 splits into three parts, and only {3, 4, 5} stays a class
    g = two_triangles
    live = mbv.solver._lowpoint(g.n, g.adjacency)
    assert live.bridges == [(2, 3)]
    whole = (live.pieces, [0, 0, 1, 1, 0, 0], live.classes)
    adj = [list(a) for a in g.adjacency]
    adj[0].remove(1)
    adj[1].remove(0)
    k = next(i for i, grp in enumerate(whole[2]) if 0 in grp)
    (pieces, bridge_deg, classes), new = mbv.solver._live_scan(g.n, adj, whole, k)
    assert sorted(new) == [(0, 2), (1, 2)]
    assert pieces == [1, 1, 3, 2, 1, 1]
    assert bridge_deg == [1, 1, 3, 1, 0, 0]
    assert sorted(map(sorted, classes)) == [[3, 4, 5]]


def test_root_bound_dominates_obligatory_count():
    rng = random.Random(19)
    checked = 0
    for trial in range(30):
        n = rng.randrange(6, 12)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(1, 6))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = obligatory_branch_bound(g)
        report = solve_plain(g, SolveOptions(node_limit=1))
        if not report.optimal:
            assert report.lower_bound >= lb.value
            checked += 1
    assert checked > 0


def test_warm_start_never_worsens():
    rng = random.Random(29)
    for trial in range(20):
        n = rng.randrange(5, 10)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 5))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        warm = solve_plain(g, SolveOptions(use_warm_start=True))
        cold = solve_plain(g, SolveOptions(use_warm_start=False))
        assert warm.optimal and cold.optimal
        assert warm.upper_bound == cold.upper_bound


def test_tree_input_runs_no_whole_graph_heuristic(monkeypatch, spider):
    # every component of a tree is a single vertex, and the whole-graph
    # heuristic tree only seeds multi-vertex components
    calls = []
    real = mbv.solver.best_heuristic

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mbv.solver, "best_heuristic", counting)
    tree = generate_random_connected(300, 299, 5)
    for g in (spider, tree):
        report = solve_with_decomposition(g)
        assert report.optimal and report.tree.edges == frozenset(g.edges)
        assert report.upper_bound == branch_count(g.n, g.edges)
    assert calls == []
    g = generate_random_connected(30, 34, 1)
    multi = sum(c.graph.n > 1 for c in decompose(g, obligatory_branch_bound(g)).components)
    solve_with_decomposition(g)
    assert multi > 0 and len(calls) == 1 + multi  # the whole graph, then each component


def test_time_limit_returns_incumbent(k24):
    report = solve_plain(k24, SolveOptions(time_limit=1e-9))
    assert not report.optimal
    assert report.upper_bound >= 1
    assert is_spanning_tree(k24, report.tree.edges)
    assert report.lower_bound <= report.upper_bound


def test_time_limit_counts_the_heuristics(monkeypatch):
    # the limit runs from the solve call: heuristics that outlast it leave
    # the search no time, so not even its root node runs
    real = mbv.solver.best_heuristic

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(mbv.solver, "best_heuristic", slow)
    g = generate_random_connected(60, 80, 1)
    obligatory = obligatory_branch_bound(g).value
    for solve in (solve_plain, solve_with_decomposition):
        report = solve(g, SolveOptions(time_limit=0.02))
        assert report.nodes_explored == 0, solve.__name__
        assert is_spanning_tree(g, report.tree.edges)
        assert obligatory <= report.lower_bound <= report.upper_bound


def test_huge_time_limit_is_split_without_overflow(c5):
    # the share of a limit near the float maximum must not overflow to inf
    report = solve_with_decomposition(c5, SolveOptions(time_limit=1e308))
    assert report.optimal and report.upper_bound == 0


def test_solve_options_validates_limits():
    bad = [dict(time_limit=t) for t in (math.nan, math.inf, -math.inf, 0, 0.0, -1)]
    bad += [dict(node_limit=k) for k in (0, -3)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)
    opts = SolveOptions(time_limit=1e-9, node_limit=1)
    assert (opts.time_limit, opts.node_limit) == (1e-9, 1)
    assert solve_plain(build_graph(2, [(0, 1)]), opts).upper_bound == 0


def test_time_split_is_linear_in_component_count(monkeypatch):
    # splitting a time limit across K components must stay linear in K; a
    # per-component re-sum of the remaining edge counts reads Graph.m ~K^2/2 times
    g = generate_random_connected(2000, 2400, 1)
    k = len(decompose(g, obligatory_branch_bound(g)).components)
    assert k > 100
    reads = 0
    edge_count = Graph.m.fget

    def counting(self):
        nonlocal reads
        reads += 1
        return edge_count(self)

    monkeypatch.setattr(Graph, "m", property(counting))
    report = solve_with_decomposition(g, SolveOptions(time_limit=30.0, node_limit=1))
    assert is_spanning_tree(g, report.tree.edges)
    assert reads <= 4 * k


def test_gap_percent_definition(k24):
    report = solve_plain(k24, SolveOptions(time_limit=1e-9))
    expected = 100.0 * (report.upper_bound - report.lower_bound) / report.upper_bound
    assert report.gap_percent == pytest.approx(expected)
    solved = solve_plain(k24)
    assert solved.gap_percent == 0.0


def test_report_invariants(petersen):
    report = solve_plain(petersen)
    assert report.lower_bound <= report.upper_bound
    assert report.nodes_explored >= 0
    assert report.elapsed >= 0.0
    if report.optimal:
        assert report.upper_bound - report.lower_bound < 0.9999
