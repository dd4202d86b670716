import random

import pytest

from mbv import (
    brute_force_optimum,
    build_graph,
    decompose,
    enumerate_spanning_trees,
    generate_random_connected,
    is_spanning_tree,
    obligatory_branch_bound,
    recombine,
    solve_component,
    spanning_tree,
)
from mbv.decompose import Component, _component_count
from mbv.errors import NotASpanningTreeError, StaleBoundError
from mbv.graph import _lowpoint

from conftest import whole_component


def decompose_of(g):
    return decompose(g, obligatory_branch_bound(g))


def test_two_triangles(two_triangles):
    lb = obligatory_branch_bound(two_triangles)
    d = decompose(two_triangles, lb)
    assert lb.value == 0
    assert d.cut_edges == {(2, 3)}
    assert len(d.components) == 2
    for comp in d.components:
        assert comp.graph.n == 3
        assert comp.graph.m == 3
        # exactly one local vertex carries the bridge's extra degree
        assert sorted(comp.extra_degree) == [0, 0, 1]
        assert comp.piece == (0, 0, 0)
    endpoints = {
        comp.origin[i]
        for comp in d.components
        for i, extra in enumerate(comp.extra_degree)
        if extra
    }
    assert endpoints == {2, 3}


def test_spider(spider):
    lb = obligatory_branch_bound(spider)
    d = decompose(spider, lb)
    assert lb.value == 1
    assert d.cut_edges == frozenset(spider.edges)
    assert len(d.components) == 9
    assert all(c.graph.n == 1 for c in d.components)
    assert sorted(c.piece[0] for c in d.components) == [0] * 6 + [1, 2, 3]
    zs = [solve_component(c).upper_bound for c in d.components]
    assert lb.value + sum(zs) == 1
    tree = recombine(d, [()] * 9)
    assert tree.edges == frozenset(spider.edges)
    assert tree.branches == 1


def test_cycle_is_untouched(c5):
    lb = obligatory_branch_bound(c5)
    d = decompose(c5, lb)
    assert lb.value == 0
    assert d.cut_edges == frozenset()
    assert len(d.components) == 1
    comp = d.components[0]
    assert comp.graph.edges == c5.edges
    assert comp.extra_degree == (0, 0, 0, 0, 0)
    tree = recombine(d, [c5.edges[1:]])
    assert tree.edges == frozenset(c5.edges[1:])
    assert tree.branches == 0


def test_stale_bound_rejected(p4, c5):
    lb = obligatory_branch_bound(p4)
    with pytest.raises(StaleBoundError):
        decompose(c5, lb)


def test_component_branch_count_triangle(k3):
    comp = whole_component(k3, extra=(0, 0, 1))
    # vertex 2 as a path endpoint: local degree 1 + extra 1 stays within two
    assert spanning_tree(comp.graph, [(0, 2), (0, 1)], comp).branches == 0
    # vertex 2 in the middle: 2 + 1 > 2
    assert spanning_tree(comp.graph, [(0, 2), (1, 2)], comp).branches == 1


def test_component_branch_count_ignores_split_copies():
    star = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    comp = Component(
        graph=star,
        origin=(7, 1, 2, 3, 4, 5),
        piece=(1, 0, 0, 0, 0, 0),
        extra_degree=(0, 0, 0, 0, 0, 0),
        edge_origin={e: e for e in star.edges},
    )
    # the copy has degree five, yet nothing counts
    assert spanning_tree(star, star.edges, comp).branches == 0


def test_component_branch_count_rejects_non_tree(k3):
    comp = whole_component(k3)
    with pytest.raises(NotASpanningTreeError):
        spanning_tree(comp.graph, [(0, 1)], comp)


def test_recombine_two_triangles(two_triangles):
    d = decompose_of(two_triangles)
    # per component, a path with the bridge endpoint as a path end
    trees = []
    for comp in d.components:
        attach = comp.extra_degree.index(1)
        others = [i for i in range(3) if i != attach]
        trees.append([tuple(sorted((attach, others[0]))), tuple(sorted(others))])
    tree = recombine(d, trees)
    assert is_spanning_tree(two_triangles, tree.edges)
    assert tree.branches == 0


def test_recombine_rejects_bad_component_tree(two_triangles, c5):
    d = decompose_of(two_triangles)
    good = [(0, 1), (0, 2)]
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [good, [(0, 1)]])
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [good])
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [good, [(0, -1), (1, 2)]])
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [good, [(0, 3), (1, 2)]])
    # spans the cycle's vertices, but (0, 2) is no edge of it
    d = decompose_of(c5)
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [[(0, 2), (0, 1), (2, 3), (3, 4)]])


def test_recombine_single_vertex_components(spider):
    d = decompose_of(spider)
    assert all(c.graph.n == 1 for c in d.components)
    # every single vertex shares one graph and maps no edges
    assert len({id(c.graph) for c in d.components}) == 1
    assert all(c.edge_origin == {} for c in d.components)
    assert recombine(d, [[]] * 9).edges == frozenset(spider.edges)
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [[(0, 0)]] + [()] * 8)
    with pytest.raises(NotASpanningTreeError):
        recombine(d, [()] * 8 + [[(0, 1)]])


def test_accounting_identities_random():
    rng = random.Random(97)
    for trial in range(60):
        n = rng.randrange(5, 13)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 7))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        split_total = sum(lb.split_counts.values())
        assert sum(c.graph.n for c in d.components) == g.n - lb.value + split_total
        assert sum(c.graph.m for c in d.components) == g.m - len(d.cut_edges)
        assert len(d.components) == _component_count(lb)
        origins = [e for c in d.components for e in c.edge_origin.values()]
        assert len(origins) == len(set(origins))
        assert set(origins) == set(g.edges) - set(d.cut_edges)
        for comp in d.components:
            # the edge map holds exactly the component's edges, each mapped to
            # the input edge between its ends' origins
            assert set(comp.edge_origin) == set(comp.graph.edges)
            for (a, b), e in comp.edge_origin.items():
                assert e == tuple(sorted((comp.origin[a], comp.origin[b])))
            for i, (v, p) in enumerate(zip(comp.origin, comp.piece)):
                extra = comp.extra_degree[i]
                if p:
                    assert v in lb.obligatory
                    assert 1 <= p <= lb.split_counts[v]
                    assert extra == 0  # a split copy is credited no bridge
                else:
                    local = comp.graph.degree(i)
                    assert extra >= 0
                    assert local + extra <= g.degree(v)
                    # one unit per deleted bridge at the vertex
                    assert extra == sum(v in e for e in lb.bridges)
                    # b bridges and another edge leave b + 1 pieces, so a
                    # non-obligatory vertex has b <= 1, or b <= 2 if alone
                    assert extra <= (1 if comp.graph.n > 1 else 2)
            if comp.graph.n > 1:
                assert _lowpoint(comp.graph.n, comp.graph.adjacency).count == 1
                # splitting never creates a bridge, so a component is final
                again_lb = obligatory_branch_bound(comp.graph)
                again = decompose(comp.graph, again_lb)
                assert again_lb.value == 0
                assert again.cut_edges == frozenset()
                assert len(again.components) == 1


def test_split_copy_pieces_are_complete():
    rng = random.Random(55)
    for trial in range(30):
        n = rng.randrange(6, 12)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 4))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        # every (origin, piece) pair once: (v, 0) for each vertex that is not
        # obligatory, (v, 1..split_count) for each obligatory one
        pairs = [(v, p) for comp in d.components for v, p in zip(comp.origin, comp.piece)]
        expected = [(v, 0) for v in range(g.n) if v not in lb.obligatory]
        expected += [(v, p) for v in lb.obligatory for p in range(1, lb.split_counts[v] + 1)]
        assert sorted(pairs) == sorted(expected)
        for comp in d.components:
            assert len(comp.origin) == len(comp.piece) == len(comp.extra_degree) == comp.graph.n
            assert comp.countable == tuple(p == 0 for p in comp.piece)


def test_decomposition_identity_random():
    rng = random.Random(13)
    for trial in range(50):
        n = rng.randrange(5, 12)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 7))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        reports = [solve_component(c) for c in d.components]
        total = lb.value + sum(r.upper_bound for r in reports)
        assert total == brute_force_optimum(g).optimum
        tree = recombine(d, [r.tree.edges for r in reports])
        assert is_spanning_tree(g, tree.edges)
        assert tree.branches == total


def test_every_cut_edge_in_every_tree():
    rng = random.Random(41)
    for trial in range(25):
        n = rng.randrange(5, 11)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 5))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        d = decompose_of(g)
        trees = []
        enumerate_spanning_trees(g, trees.append)
        for t in trees:
            assert d.cut_edges <= t
