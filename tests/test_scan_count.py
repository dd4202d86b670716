"""Guard: the lowpoint scan runs on an input graph once per solve or report.

``obligatory_branch_bound`` scans the input and hands ``decompose`` what it
reads there, and the plain search's root takes that scan as its own; the
heuristics prove nothing up front, and a component, which has no obligatory
vertex, is never scanned for a bound. Every ``mbv`` module that
imports ``_lowpoint`` gets a counting wrapper, and only calls on the input
graph's own adjacency are counted (the live graphs the search scans are
lists of their own). Tree certifications are counted the same way, by graph,
at the one union-find pass that ``spanning_tree`` and ``is_spanning_tree``
both go through, and so are the component solves and graph builds that
single-vertex components must never cost.
"""
import sys
from collections import Counter

import pytest

import mbv.cli
import mbv.decompose
import mbv.graph
import mbv.io
import mbv.solver
from mbv import (
    SolveOptions,
    best_heuristic,
    decompose,
    generate_random_connected,
    obligatory_branch_bound,
    solve_component,
    solve_plain,
    solve_with_decomposition,
    write_instance,
)

# g30 has obligatory vertices and bridges; all three split into components
GRAPHS = tuple(
    generate_random_connected(n, m, seed)
    for n, m, seed in ((30, 34, 1), (40, 46, 3), (60, 66, 2000))
)
OPTS = SolveOptions(node_limit=20)


def _calls(monkeypatch, attr, home=mbv.graph) -> list[tuple]:
    """Wrap ``home``'s ``attr`` wherever mbv imported it; the arguments of each call."""
    seen = []
    original = getattr(home, attr)

    def counting(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "mbv" and hasattr(module, attr):
            monkeypatch.setattr(module, attr, counting)
    return seen


@pytest.fixture
def scans(monkeypatch):
    """The arguments of every lowpoint scan, in call order."""
    return _calls(monkeypatch, "_lowpoint")


def _scans_of(seen, g) -> int:
    return sum(1 for args in seen if args[1] is g.adjacency)


@pytest.mark.parametrize("solve", [solve_with_decomposition, solve_plain])
def test_one_input_scan_per_solve(scans, solve):
    for g in GRAPHS:
        scans.clear()
        solve(g, OPTS)
        assert _scans_of(scans, g) == 1


def test_one_full_scan_per_plain_root(scans):
    # the search's root takes the bound's scan of the input instead of
    # scanning its live graph, a copy of the input in the same order
    for g in GRAPHS:
        scans.clear()
        solve_plain(g, SolveOptions(node_limit=1))
        assert sum(1 for args in scans if len(args) < 3 or args[2] is None) == 1


@pytest.mark.parametrize("solve", [solve_with_decomposition, solve_plain])
def test_only_the_input_is_scanned_unrestricted(scans, solve):
    # a search root scans its pseudo-parent's one class, and a child the
    # class its decision dropped edges from, so every search scan is
    # restricted and the one unrestricted scan is the bound's, of the input
    for g in GRAPHS:
        scans.clear()
        solve(g, OPTS)
        unrestricted = [args for args in scans if len(args) < 3 or args[2] is None]
        assert len(unrestricted) == 1 and unrestricted[0][1] is g.adjacency


def test_no_scan_of_a_component_graph(scans):
    for g in GRAPHS:
        d = decompose(g, obligatory_branch_bound(g))
        assert any(c.graph.n > 1 for c in d.components)
        for comp in d.components:
            scans.clear()
            solve_component(comp, OPTS)
            assert _scans_of(scans, comp.graph) == 0


def test_certifications_per_multi_vertex_component(monkeypatch):
    # each heuristic's tree, the seed, a tree the search found and
    # recombine's check: every tree is scored once, by the objective of the
    # graph it spans
    certified = _calls(monkeypatch, "_tree_degrees")
    for g in GRAPHS:
        certified.clear()
        solve_with_decomposition(g, OPTS)
        per_component = Counter(id(h) for h, *_ in certified if h is not g and h.n > 1)
        multi = [c for c in decompose(g, obligatory_branch_bound(g)).components if c.graph.n > 1]
        assert len(per_component) == len(multi)
        assert max(per_component.values()) <= 5


def test_single_vertex_components_are_never_solved_or_certified(monkeypatch):
    solved = _calls(monkeypatch, "solve_component", mbv.solver)
    certified = _calls(monkeypatch, "_tree_degrees")
    for g in GRAPHS:
        d = decompose(g, obligatory_branch_bound(g))
        assert any(c.graph.n == 1 for c in d.components)
        solved.clear()
        certified.clear()
        report = solve_with_decomposition(g, OPTS)
        assert report.nodes_explored >= 1
        assert [c for c, *_ in solved] == [c for c in d.components if c.graph.n > 1]
        assert all(h.n > 1 for h, *_ in certified)


def test_an_unbeaten_warm_tree_is_not_certified_again(monkeypatch):
    # the path tree and the multi-path tree; at one node the search does not
    # beat the better of them, so the report takes it as it is
    certified = _calls(monkeypatch, "_tree_degrees")
    g = generate_random_connected(2000, 2400, 1)
    report = solve_plain(g, SolveOptions(node_limit=1))
    assert sum(1 for h, *_ in certified if h is g) == 2
    assert report.tree.branches == report.upper_bound


def test_a_tree_the_search_found_is_certified(monkeypatch):
    # the search improves on both heuristic trees here (1 branch against 0),
    # so its tree is certified after theirs
    g = generate_random_connected(12, 16, 4)
    assert best_heuristic(g, obligatory_branch_bound(g)).branches == 1
    certified = _calls(monkeypatch, "_tree_degrees")
    report = solve_plain(g)
    assert report.upper_bound == 0
    whole = [edges for h, edges, deg in certified if h is g]
    assert len(whole) == 3
    assert frozenset(whole[-1]) == report.tree.edges


def test_one_graph_build_per_multi_vertex_component(monkeypatch):
    built = _calls(monkeypatch, "build_graph")
    for g in GRAPHS:
        lb = obligatory_branch_bound(g)
        built.clear()
        d = decompose(g, lb)
        multi = [c for c in d.components if c.graph.n > 1]
        assert len(multi) < len(d.components)
        assert [n for n, pairs in built] == [c.graph.n for c in multi]


@pytest.mark.parametrize("command", ["stats", "decompose"])
def test_one_input_scan_per_cli_report(scans, monkeypatch, tmp_path, capsys, command):
    loaded = []

    def load(path):
        loaded.append(mbv.io.load_graph(path))
        return loaded[-1]

    monkeypatch.setattr(mbv.cli, "load_graph", load)
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(GRAPHS[0]), encoding="utf-8")
    extra = ("--out-dir", str(tmp_path / "parts")) if command == "decompose" else ()
    assert mbv.cli.main([command, str(inst), *extra]) == 0
    capsys.readouterr()
    assert _scans_of(scans, loaded[0]) == 1
