import itertools
import random
import sys

import pytest

from mbv import (
    branch_count,
    build_graph,
    brute_force_optimum,
    enumerate_spanning_trees,
    generate_random_connected,
    is_spanning_tree,
    obligatory_branch_bound,
)
from mbv.errors import DisconnectedInputError, TooLargeError


def matrix_tree_count(g):
    """Independent spanning tree count: determinant of a Laplacian minor.

    Bareiss elimination keeps every entry an exact integer. The minor of a
    connected graph's Laplacian is positive definite, so each pivot, a
    leading principal minor, is above zero and no row is swapped.
    """
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1] if a else 1


def test_counts_on_fixtures(c5, k4, k24):
    assert enumerate_spanning_trees(c5, lambda t: None) == 5
    # Cayley: 4^(4-2) = 16
    assert enumerate_spanning_trees(k4, lambda t: None) == 16
    # complete bipartite: 2^3 * 4^1 = 32
    assert enumerate_spanning_trees(k24, lambda t: None) == 32


def test_counts_match_matrix_tree(petersen):
    rng = random.Random(11)
    graphs = [petersen]
    for _ in range(25):
        n = rng.randrange(4, 11)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 7))
        graphs.append(generate_random_connected(n, m, rng.randrange(10**6)))
    for g in graphs:
        assert enumerate_spanning_trees(g, lambda t: None) == matrix_tree_count(g)


def test_each_tree_visited_once_and_valid(k24):
    seen = []
    count = enumerate_spanning_trees(k24, seen.append)
    assert count == len(seen) == 32
    assert len(set(seen)) == 32
    for t in seen:
        assert isinstance(t, frozenset)
        assert is_spanning_tree(k24, t)


def test_optimum_on_fixtures(p4, star, k24):
    assert brute_force_optimum(p4).optimum == 0
    assert brute_force_optimum(star).optimum == 1
    r = brute_force_optimum(k24)
    assert r.optimum == 1
    assert r.trees_enumerated == 32
    assert r.witness.branches == 1


def test_witness_is_lexicographically_smallest():
    # independent reference: scan all n-1 edge subsets directly
    k6 = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    graphs = [
        generate_random_connected(6, 9, seed=5),
        generate_random_connected(8, 12, seed=2),
        k6,  # dense: 6^4 = 1296 trees
        generate_random_connected(7, 6, seed=3),  # a tree: itself only
    ]
    for g in graphs:
        spanning = set()
        best = None
        for combo in itertools.combinations(g.edges, g.n - 1):
            if is_spanning_tree(g, combo):
                spanning.add(frozenset(combo))
                key = (branch_count(g.n, combo), tuple(sorted(combo)))
                if best is None or key < best:
                    best = key
        visited = []
        assert enumerate_spanning_trees(g, visited.append) == len(visited)
        assert set(visited) == spanning and len(visited) == len(spanning)
        r = brute_force_optimum(g)
        assert r.trees_enumerated == len(spanning)
        assert r.optimum == best[0]
        assert tuple(sorted(r.witness.edges)) == best[1]


def test_guard_rejects_large_cycle_rank():
    k9 = build_graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)])
    with pytest.raises(TooLargeError):
        enumerate_spanning_trees(k9, lambda t: None)


def test_disconnected_rejected():
    for g in (build_graph(4, [(0, 1), (2, 3)]), build_graph(0, ())):
        with pytest.raises(DisconnectedInputError):
            brute_force_optimum(g)


def test_single_vertex():
    g = build_graph(1, [])
    r = brute_force_optimum(g)
    assert r.optimum == 0
    assert r.trees_enumerated == 1
    assert r.witness.edges == frozenset()


def test_oracle_shares_no_scan_with_the_solver(monkeypatch, k24, petersen):
    # the oracle checks the bound, the decomposition and the search, which all
    # read the lowpoint kernel; it must answer with that kernel broken
    with_bridges = generate_random_connected(12, 15, seed=7)
    assert obligatory_branch_bound(with_bridges).bridges
    graphs = [(k24, 1), (petersen, 0), (with_bridges, brute_force_optimum(with_bridges).optimum)]
    expected = [matrix_tree_count(g) for g, _ in graphs]

    def broken(*args, **kwargs):
        raise AssertionError("the oracle used a scan it checks")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "mbv" and hasattr(module, "_lowpoint"):
            monkeypatch.setattr(module, "_lowpoint", broken)
    for (g, optimum), count in zip(graphs, expected):
        assert enumerate_spanning_trees(g, lambda t: None) == count
        r = brute_force_optimum(g)
        assert (r.optimum, r.trees_enumerated) == (optimum, count)
        assert r.witness.branches == optimum
