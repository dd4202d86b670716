import random

import pytest

from mbv import (
    brute_force_optimum,
    build_graph,
    enumerate_spanning_trees,
    generate_random_connected,
    obligatory_branch_bound,
)
from mbv.bound import graph_fingerprint
from mbv.errors import DisconnectedInputError


def test_star_center_is_obligatory(star):
    lb = obligatory_branch_bound(star)
    assert lb.obligatory == {0}
    assert lb.split_counts == {0: 3}
    assert lb.value == 1


def test_cycle_has_no_obligatory(c5):
    lb = obligatory_branch_bound(c5)
    assert lb.obligatory == frozenset()
    assert lb.value == 0


def test_k24_bound_not_tight(k24):
    # no articulation point at all, yet no spanning tree is branch-free
    lb = obligatory_branch_bound(k24)
    assert lb.value == 0
    assert brute_force_optimum(k24).optimum == 1


def test_disconnected_rejected():
    with pytest.raises(DisconnectedInputError):
        obligatory_branch_bound(build_graph(4, [(0, 1), (2, 3)]))


def test_fingerprint_tracks_graph(p4, c5):
    assert obligatory_branch_bound(p4).fingerprint == graph_fingerprint(p4)
    assert graph_fingerprint(p4) != graph_fingerprint(c5)


def test_bound_below_optimum_and_necessity():
    rng = random.Random(23)
    for trial in range(40):
        n = rng.randrange(5, 11)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 6))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = obligatory_branch_bound(g)
        assert lb.value == len(lb.obligatory)
        assert all(a >= 3 for a in lb.split_counts.values())
        assert all(g.degree(v) >= 3 for v in lb.obligatory)
        result = brute_force_optimum(g)
        assert lb.value <= result.optimum
        # obligatory vertices carry degree >= 3 in every spanning tree
        trees = []
        enumerate_spanning_trees(g, trees.append)
        for t in trees:
            for v in lb.obligatory:
                assert sum(1 for a, b in t if v in (a, b)) >= 3


def _pieces_without(g, v):
    """The components of g without v, as a list of vertex sets."""
    seen = {v}
    pieces = []
    for s in range(g.n):
        if s in seen:
            continue
        piece = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y not in seen and y not in piece:
                    piece.add(y)
                    stack.append(y)
        seen |= piece
        pieces.append(piece)
    return pieces


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randrange(4, 11)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 5))
        yield generate_random_connected(n, m, rng.randrange(10**6))


def test_alpha_matches_explicit_deletion():
    for g in _random_graphs(31, 30):
        lb = obligatory_branch_bound(g)
        for v in range(g.n):
            alpha = len(_pieces_without(g, v))
            if alpha >= 3:
                assert lb.split_counts[v] == alpha
            else:
                assert v not in lb.obligatory


def test_pieces_and_bridges_match_explicit_deletion():
    for g in _random_graphs(37, 40):
        lb = obligatory_branch_bound(g)
        for v in lb.obligatory:
            # neighbors share a piece number exactly when they share a piece
            number = lb.piece_of[v]
            assert set(number) == set(g.adjacency[v])
            assert set(number.values()) == set(range(1, lb.split_counts[v] + 1))
            for piece in _pieces_without(g, v):
                assert len({number[u] for u in g.adjacency[v] if u in piece}) == 1
        bridges = set()
        for e in g.edges:
            rest = build_graph(g.n, [f for f in g.edges if f != e])
            if len(_pieces_without(rest, -1)) > 1:
                bridges.add(e)
        assert lb.bridges == bridges
