import random

import pytest

from mbv import (
    branch_count,
    build_graph,
    generate_random_connected,
    is_spanning_tree,
    obligatory_branch_bound,
    spanning_tree,
)
from mbv.graph import _lowpoint
from mbv.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    LoopEdgeError,
    NotASpanningTreeError,
)


def test_build_graph_normalizes(p4):
    assert p4.n == 4
    assert p4.edges == ((0, 1), (1, 2), (2, 3))
    assert p4.adjacency == ((1,), (0, 2), (1, 3), (2,))
    assert p4.degree(1) == 2


def test_build_graph_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build_graph(3, [(0, 0)])


def test_build_graph_rejects_duplicate():
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1), (1, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(2, [(0, 2)])
    with pytest.raises(IndexOutOfRangeError):
        build_graph(2, [(-1, 1)])
    with pytest.raises(IndexOutOfRangeError):
        build_graph(-3, [])


def test_connected_components(p4, c5):
    assert _lowpoint(p4.n, p4.adjacency).count == 1
    assert _lowpoint(c5.n, c5.adjacency).count == 1
    g = build_graph(5, [(0, 1), (2, 3)])
    assert _lowpoint(g.n, g.adjacency).count == 3
    assert _lowpoint(0, ()).count == 0


def _articulation(scan):
    """Articulation points of a connected graph mapped to their split counts."""
    return {v: pieces for v, pieces in enumerate(scan.pieces) if pieces >= 2}


def test_lowpoint_star(star):
    scan = _lowpoint(star.n, star.adjacency)
    assert scan.count == 1
    assert _articulation(scan) == {0: 3}
    assert set(scan.bridges) == {(0, 1), (0, 2), (0, 3)}
    lb = obligatory_branch_bound(star)
    assert lb.split_counts == {0: 3}
    assert lb.bridges == {(0, 1), (0, 2), (0, 3)}


def test_lowpoint_cycle(c5):
    scan = _lowpoint(c5.n, c5.adjacency)
    assert _articulation(scan) == {}
    assert scan.bridges == []
    assert obligatory_branch_bound(c5).bridges == frozenset()


def test_lowpoint_two_triangles(two_triangles):
    scan = _lowpoint(two_triangles.n, two_triangles.adjacency)
    assert _articulation(scan) == {2: 2, 3: 2}
    assert scan.bridges == [(2, 3)]
    lb = obligatory_branch_bound(two_triangles)
    assert lb.split_counts == {}
    assert lb.bridges == {(2, 3)}


def _components_without_vertex(g, v):
    seen = {v}
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def _components_without_edge(g, e):
    seen = set()
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if (x, y) == e or (y, x) == e:
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def _kernel_cases():
    rng = random.Random(7)
    for trial in range(60):  # any density, connected or not
        n = rng.randrange(2, 13)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        yield build_graph(n, rng.sample(pool, m))
    for trial in range(40):
        # several connected blocks among isolated vertices, shuffled: the
        # shape of the decomposition's split graph
        sizes = [rng.randrange(1, 7) for _ in range(rng.randrange(1, 4))]
        n = sum(sizes) + rng.randrange(0, 5)
        perm = list(range(n))
        rng.shuffle(perm)
        edges, base = [], 0
        for k in sizes:
            m = min(k * (k - 1) // 2, k - 1 + rng.randrange(0, 4))
            part = generate_random_connected(k, m, rng.randrange(10**6))
            edges += [(perm[base + u], perm[base + v]) for u, v in part.edges]
            base += k
        yield build_graph(n, edges)


def test_lowpoint_matches_deletion_recount():
    # cross-check the lowpoint scan against brute-force deletion recounts:
    # component count, split counts, bridges, classes
    for g in _kernel_cases():
        n = g.n
        scan = _lowpoint(n, g.adjacency)
        base = _components_without_vertex(g, -1)
        assert scan.count == base
        for v in range(n):
            assert scan.pieces[v] == _components_without_vertex(g, v) - base + 1
        bridges = {e for e in g.edges if _components_without_edge(g, e) > base}
        assert sorted(scan.bridges) == sorted(bridges)
        classes = {frozenset(_reachable(g, v, bridges)) for v in range(n)}
        assert sorted(map(sorted, scan.classes)) == sorted(sorted(c) for c in classes if len(c) > 1)


def _reachable(g, s, deleted):
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if deleted and ((x, y) in deleted or (y, x) in deleted):
                continue
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def test_bridge_endpoints_are_articulation_points():
    # an endpoint of degree >= 2 with two incident bridges, or one bridge plus
    # any non-bridge edge, must be an articulation point
    rng = random.Random(71)
    for trial in range(40):
        n = rng.randrange(4, 13)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 6))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        scan = _lowpoint(n, g.adjacency)
        for v in range(n):
            if g.degree(v) < 2:
                continue
            incident = [e for e in scan.bridges if v in e]
            if len(incident) >= 2 or (incident and g.degree(v) > len(incident)):
                assert scan.pieces[v] >= 2


def test_is_spanning_tree(p4, c5):
    assert is_spanning_tree(p4, p4.edges)
    assert not is_spanning_tree(c5, c5.edges)
    assert is_spanning_tree(c5, c5.edges[1:])


def test_is_spanning_tree_edge_cases(p4):
    assert is_spanning_tree(build_graph(1, ()), ())
    assert not is_spanning_tree(build_graph(0, ()), ())
    # n-1 edges, but a triangle leaves vertex 3 isolated
    k4_minus = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert not is_spanning_tree(k4_minus, [(0, 1), (1, 2), (0, 2)])
    assert is_spanning_tree(p4, [(1, 0), (3, 2), (2, 1)])
    assert not is_spanning_tree(p4, [(0, 1), (1, 2)])
    assert not is_spanning_tree(p4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    # an endpoint outside [0, n) is no vertex: -1 must not wrap to the last one
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert not is_spanning_tree(p3, [(0, -1), (1, 2)])
    assert not is_spanning_tree(p3, [(0, 9)])
    assert not is_spanning_tree(p3, [(3, 1), (1, 2)])
    # pairs that connect every vertex but are not all edges of g: (0, 2) is none
    assert not is_spanning_tree(p4, [(0, 2), (2, 1), (1, 3)])


def test_spanning_tree_keeps_normalized_tuples(p4):
    tree = spanning_tree(p4, [(1, 0)] + list(p4.edges[1:]))
    assert tree.edges == frozenset(p4.edges)
    kept = {id(e) for e in tree.edges}
    assert all(id(e) in kept for e in p4.edges[1:])


def test_spanning_tree_implies_connected_and_sized():
    for seed in range(20):
        g = generate_random_connected(9, 12, seed)
        tree = spanning_tree(g, next_tree_edges(g))
        assert len(tree.edges) == g.n - 1
        assert _lowpoint(g.n, build_graph(g.n, tree.edges).adjacency).count == 1


def next_tree_edges(g):
    # greedy forest: the lexicographically first spanning tree
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = []
    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            picked.append((u, v))
    return picked


def test_branch_count(p4, star, spider):
    assert branch_count(4, p4.edges) == 0
    assert branch_count(4, star.edges) == 1
    assert branch_count(7, spider.edges) == 1
    # an end outside [0, n) is refused; a negative one would index deg from the end
    for edge in ((0, 5), (0, -1), (2, 0)):
        with pytest.raises(IndexOutOfRangeError, match=r"outside vertex range \[0, 2\)"):
            branch_count(2, [(0, 1), edge])


def test_branch_count_relabel_invariant():
    rng = random.Random(3)
    for _ in range(20):
        g = generate_random_connected(8, 10, rng.randrange(10**6))
        tree = next_tree_edges(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in tree]
        assert branch_count(g.n, tree) == branch_count(g.n, relabeled)


def test_spanning_tree_certifier_rejects(c5):
    with pytest.raises(NotASpanningTreeError):
        spanning_tree(c5, c5.edges)  # too many edges
    with pytest.raises(NotASpanningTreeError):
        spanning_tree(c5, [(0, 1), (1, 2), (2, 3), (1, 3)])  # not a subset / cycle
    # a spanning tree of K5 with a non-edge, and edges with an endpoint
    # outside [0, 5), fail the subset check before the span check
    for edges in (
        [(0, 1), (0, 2), (2, 3), (3, 4)],
        [(0, 1), (1, 2), (2, 3), (3, 5)],
        [(-1, 0), (0, 1), (1, 2), (2, 3)],
    ):
        with pytest.raises(NotASpanningTreeError, match="subset"):
            spanning_tree(c5, edges)
    # a path of C5 with one edge listed again, flipped: the set is a tree,
    # the list is not
    with pytest.raises(NotASpanningTreeError, match="repeats"):
        spanning_tree(c5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 0)])
