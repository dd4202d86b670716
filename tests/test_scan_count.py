"""Guard: the lowpoint scan runs on an input graph once per solve or report.

``obligatory_branch_bound`` scans the input and hands ``decompose`` what it
reads there; the heuristics prove nothing up front. Every ``mbv`` module that
imports ``_lowpoint`` gets a counting wrapper, and only calls on the input
graph's own adjacency are counted (the split, live and contracted graphs the
decomposition and the search scan are lists of their own).
"""
import sys

import pytest

import mbv.cli
import mbv.io
from mbv import (
    SolveOptions,
    decompose,
    generate_random_connected,
    obligatory_branch_bound,
    solve_component,
    solve_plain,
    solve_with_decomposition,
    write_instance,
)
from mbv.graph import _lowpoint

# g30 has obligatory vertices and bridges; all three split into components
GRAPHS = tuple(
    generate_random_connected(n, m, seed)
    for n, m, seed in ((30, 34, 1), (40, 46, 3), (60, 66, 2000))
)
OPTS = SolveOptions(node_limit=20)


@pytest.fixture
def scans(monkeypatch):
    """The adjacency of every lowpoint scan, in call order."""
    seen = []

    def counting(n, adj):
        seen.append(adj)
        return _lowpoint(n, adj)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "mbv" and hasattr(module, "_lowpoint"):
            monkeypatch.setattr(module, "_lowpoint", counting)
    return seen


def _scans_of(seen, g) -> int:
    return sum(1 for adj in seen if adj is g.adjacency)


@pytest.mark.parametrize("solve", [solve_with_decomposition, solve_plain])
def test_one_input_scan_per_solve(scans, solve):
    for g in GRAPHS:
        scans.clear()
        solve(g, OPTS)
        assert _scans_of(scans, g) == 1


def test_one_scan_per_multi_vertex_component(scans):
    for g in GRAPHS:
        d = decompose(g, obligatory_branch_bound(g))
        assert any(c.graph.n > 1 for c in d.components)
        for comp in d.components:
            scans.clear()
            solve_component(comp, OPTS)
            assert _scans_of(scans, comp.graph) == (1 if comp.graph.n > 1 else 0)


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
