import random
import time
from collections import Counter
from heapq import heappush

import pytest

import mbv.heuristics
from mbv import (
    Component,
    best_heuristic,
    branch_count,
    brute_force_optimum,
    build_graph,
    decompose,
    generate_random_connected,
    is_spanning_tree,
    multi_path_expanding,
    obligatory_branch_bound,
    path_expanding,
    spanning_tree,
)
from mbv.errors import DisconnectedInputError
from mbv.heuristics import HeuristicState

from conftest import whole_component


def lb_of(g):
    return obligatory_branch_bound(g)


def _join(state, v):
    """Add v to the tree the way both builders do inline.

    Only v itself is pushed: a neighbor's count falls, which raises its key,
    and ``restart()`` re-keys that neighbor's entry when it reaches the top.
    """
    n, base, unvisited = state.graph.n, state.base, state.unvisited
    state.in_tree[v] = True
    for x in state.graph.adjacency[v]:
        unvisited[x] -= 1
    if unvisited[v]:
        heappush(state.restarts, base[v] - unvisited[v] * n)


def _add_edge(state, u, v):
    """Add tree edge (u, v) between tree vertices the way both builders do inline."""
    n, base, unvisited = state.graph.n, state.base, state.unvisited
    state.tree_edges.append((u, v) if u < v else (v, u))
    for x in (u, v):
        d = state.tree_degree[x] = state.tree_degree[x] + 1
        if d == 3 and base[x] >= n * n:  # tier 2 drops to 1
            base[x] -= n * n
            if unvisited[x]:
                heappush(state.restarts, base[x] - unvisited[x] * n)


def _priority(lb, component):
    """Obligatory vertices and split copies, from the bound and the component."""
    split = {v for v, keep in enumerate(component.countable) if not keep} if component else set()
    return set(lb.obligatory) | split


def test_start_restart_prefers_obligatory(star):
    lb = lb_of(star)
    state = HeuristicState(star, lb)
    assert state.start() == 0
    assert state.in_tree[0]


def test_start_restart_tie_breaks_by_id(c5):
    lb = lb_of(c5)
    state = HeuristicState(c5, lb)
    assert state.start() == 0


def test_start_restart_after_one_path(star):
    lb = lb_of(star)
    state = HeuristicState(star, lb)
    assert state.start() == 0
    _join(state, 1)
    _add_edge(state, 0, 1)
    assert state.restart() == 0


def test_start_restart_no_candidates(p4):
    state = HeuristicState(p4, lb_of(p4))
    assert state.start() == 1
    for v in (0, 2, 3):
        _join(state, v)
    with pytest.raises(DisconnectedInputError, match="growth stopped at 0 of 3 tree edges"):
        state.restart()
    edgeless = HeuristicState(build_graph(2, []), None)
    with pytest.raises(DisconnectedInputError, match="growth stopped at 0 of 1 tree edges"):
        edgeless.start()


def _scan_select(state, restrict_to_tree, priority):
    """The start-restart rule as one plain scan: the reference for the heaps."""
    unvisited = state.unvisited
    pool = [
        v for v in range(state.graph.n)
        if unvisited[v] > 0 and (state.in_tree[v] or not restrict_to_tree)
    ]
    for tier in (
        [v for v in pool if v in priority],
        [v for v in pool if state.tree_degree[v] > 2],
        pool,
    ):
        if tier:
            return min(tier, key=lambda v: (-unvisited[v], v))
    return None


def test_heap_restart_matches_scan_rule(monkeypatch):
    seen = Counter()
    priority = set()

    def checked(real, restrict_to_tree):
        def method(state):
            want = _scan_select(state, restrict_to_tree, priority)
            got = real(state)
            assert got == want
            if restrict_to_tree:
                tier = "priority" if got in priority else (
                    "branch" if state.tree_degree[got] > 2 else "any"
                )
                seen[tier] += 1
            else:
                seen["start"] += 1
            return got
        return method

    monkeypatch.setattr(HeuristicState, "start", checked(HeuristicState.start, False))
    monkeypatch.setattr(HeuristicState, "restart", checked(HeuristicState.restart, True))
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randrange(5, 150)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, n))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = lb_of(g)
        # decomposed components give multi-vertex components extra degree at
        # most one, so a hand-made one also starts vertices above two
        piece = tuple([int(rng.random() < 0.1) for _ in range(n)])
        extra = [0] * n
        for v in rng.sample(range(n), n // 4):
            extra[v] = rng.randrange(1, 5)
        made = whole_component(g, piece, extra)
        runs = [(g, lb, None), (g, lb, made)]
        for comp in decompose(g, lb).components:
            if comp.graph.n > 1:
                runs.append((comp.graph, lb_of(comp.graph), comp))
                seen["split copy"] += not all(comp.countable)
                seen["extra degree"] += any(comp.extra_degree)
        seen["obligatory"] += lb.value > 0
        for graph, graph_lb, comp in runs:
            priority.clear()
            priority.update(_priority(graph_lb, comp))
            for heuristic in (path_expanding, multi_path_expanding):
                assert is_spanning_tree(graph, heuristic(graph, graph_lb, comp).edges)
    # starts were checked, every tier answered restarts, and the components
    # exercised their semantics
    kinds = ("start", "priority", "branch", "any", "split copy", "extra degree", "obligatory")
    assert all(seen[k] > 0 for k in kinds), seen


def test_heuristics_read_counts_linearly(monkeypatch):
    # an operation count, not a timing: the heap builders read the unvisited
    # counts about 3.0 (path) and 3.6 (multi) times per vertex and edge, while
    # a restart that scans the open tree vertices reads them 48 and 20 times
    # per vertex and edge on this graph, and more as n grows
    class CountingList(list):
        reads = 0

        def __getitem__(self, i):
            CountingList.reads += 1
            return list.__getitem__(self, i)

    init = HeuristicState.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.unvisited = CountingList(self.unvisited)

    monkeypatch.setattr(HeuristicState, "__init__", counting_init)
    g = generate_random_connected(4000, 4800, 1)
    lb = lb_of(g)
    for heuristic in (path_expanding, multi_path_expanding):
        CountingList.reads = 0
        assert is_spanning_tree(g, heuristic(g, lb).edges)
        assert g.n <= CountingList.reads <= 8 * (g.n + g.m), heuristic.__name__


def test_restart_heap_pushes_at_most_one_entry_per_vertex(monkeypatch):
    # an operation count: a vertex is pushed when it enters the tree and when
    # its tier drops, never when its count falls, since restart() re-keys a
    # lagging entry in place; pushing on every fall took 5,049 pushes here
    heaps, pushes = [], Counter()
    init = HeuristicState.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        heaps.append(self.restarts)

    def counting_push(heap, item):
        pushes[any(heap is h for h in heaps)] += 1
        heappush(heap, item)

    monkeypatch.setattr(HeuristicState, "__init__", recording_init)
    monkeypatch.setattr(mbv.heuristics, "heappush", counting_push)
    g = generate_random_connected(4000, 4800, 1)
    lb = lb_of(g)
    for heuristic in (path_expanding, multi_path_expanding):
        heaps.clear()
        pushes.clear()
        assert is_spanning_tree(g, heuristic(g, lb).edges)
        assert 0 < pushes[True] <= g.n, (heuristic.__name__, pushes)


def test_restart_key_tracks_tier():
    # the key base drops a tier exactly once, when a non-priority vertex's tree
    # degree first goes above two; the key must equal the rule recomputed
    rng = random.Random(41)
    seen = Counter()
    for _ in range(60):
        n = rng.randrange(4, 40)
        g = generate_random_connected(n, min(n * (n - 1) // 2, n - 1 + rng.randrange(0, n)),
                                      rng.randrange(10**6))
        piece = tuple([int(rng.random() < 0.15) for _ in range(n)])
        extra = [0] * n
        for v in rng.sample(range(n), n // 3):
            extra[v] = rng.randrange(1, 4)
        comp = whole_component(g, piece, extra)
        lb = lb_of(g)
        priority = _priority(lb, comp)
        state = HeuristicState(g, lb, comp)
        edges = list(g.edges)
        rng.shuffle(edges)
        for u, v in edges[: rng.randrange(len(edges) + 1)]:
            for x in (u, v):
                if not state.in_tree[x]:
                    _join(state, x)
            _add_edge(state, u, v)
            for w in range(n):
                tier = 0 if w in priority else 1 if state.tree_degree[w] > 2 else 2
                key = state.base[w] - state.unvisited[w] * n
                assert key == (tier * n - state.unvisited[w]) * n + w
        for w in range(n):
            seen["priority above two"] += w in priority and state.tree_degree[w] > 2
            seen["extra at least two"] += extra[w] >= 2 and w not in priority
            seen["dropped to tier 1"] += (
                w not in priority and extra[w] <= 2 and state.tree_degree[w] > 2
            )
    assert all(seen[k] > 0 for k in (
        "priority above two", "extra at least two", "dropped to tier 1")), seen


def test_path_expanding_cycle(c5):
    tree = path_expanding(c5, lb_of(c5))
    assert tree.branches == 0
    assert is_spanning_tree(c5, tree.edges)


def test_path_expanding_star(star):
    tree = path_expanding(star, lb_of(star))
    assert tree.edges == frozenset(star.edges)
    assert tree.branches == 1


def test_path_expanding_k4_trace(k4):
    # deterministic hand trace under smallest-id tie-breaking
    tree = path_expanding(k4, lb_of(k4))
    assert tree.edges == {(0, 1), (1, 2), (2, 3)}
    assert tree.branches == 0


def test_multi_path_cycle(c5):
    tree = multi_path_expanding(c5, lb_of(c5))
    assert tree.branches == 0


def test_multi_path_star(star):
    tree = multi_path_expanding(star, lb_of(star))
    assert tree.edges == frozenset(star.edges)
    assert tree.branches == 1


def test_multi_path_path_identity(p4):
    tree = multi_path_expanding(p4, lb_of(p4))
    assert tree.edges == frozenset(p4.edges)
    assert tree.branches == 0


def test_best_heuristic(c5, k24, spider):
    assert best_heuristic(c5, lb_of(c5)).branches == 0
    value = best_heuristic(k24, lb_of(k24)).branches
    assert value >= brute_force_optimum(k24).optimum == 1
    assert best_heuristic(spider, lb_of(spider)).branches == 1


def test_single_vertex():
    g = build_graph(1, [])
    assert path_expanding(g, lb_of(g)).edges == frozenset()
    assert multi_path_expanding(g, lb_of(g)).edges == frozenset()


def test_disconnected_rejected():
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    cases = (
        (two_edges, obligatory_branch_bound(build_graph(2, [(0, 1)])), "stopped at 1 of 3"),
        (build_graph(0, []), None, "but the graph has no vertices"),  # the bound's wording
    )
    for g, lb, why in cases:
        for heuristic in (path_expanding, multi_path_expanding, best_heuristic):
            with pytest.raises(DisconnectedInputError, match=why):
                heuristic(g, lb)


def test_trees_valid_and_above_bound():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randrange(5, 40)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, 8))
        g = generate_random_connected(n, m, rng.randrange(10**6))
        lb = lb_of(g)
        # obligatory vertices are never retired from the candidate pool
        state = HeuristicState(g, lb)
        assert all(state.base[v] == v for v in lb.obligatory)
        for heuristic in (path_expanding, multi_path_expanding):
            tree = heuristic(g, lb)
            assert is_spanning_tree(g, tree.edges)
            # every tree keeps at least two leaves, so branches <= n - 2
            assert lb.value <= tree.branches <= n - 2


def test_determinism():
    for seed in (1, 2, 3):
        g = generate_random_connected(40, 50, seed)
        lb = lb_of(g)
        assert path_expanding(g, lb).edges == path_expanding(g, lb).edges
        assert multi_path_expanding(g, lb).edges == multi_path_expanding(g, lb).edges


def test_overlay_runs_on_components():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    lb = lb_of(g)
    comp = whole_component(g, extra=(0, 0, 1))
    for heuristic in (path_expanding, multi_path_expanding, best_heuristic):
        tree = heuristic(g, lb, comp)
        assert is_spanning_tree(g, tree.edges)
        # a path keeping vertex 2 off the middle has no component branches
        assert spanning_tree(g, tree.edges, comp).branches == tree.branches == 0


def test_overlay_exempt_absorbs_degree():
    star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    lb = lb_of(star)
    comp = Component(star, (9, 1, 2, 3, 4), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0),
                     {e: e for e in star.edges})
    tree = multi_path_expanding(star, lb, comp)
    assert spanning_tree(star, tree.edges, comp).branches == tree.branches == 0
    assert branch_count(star.n, tree.edges) == 1  # a plain count still sees the center


def test_runtime_doubling_n_stays_under_12x():
    # loose guard, not a strict benchmark: doubling n must not blow up; the
    # operation count in test_heuristics_read_counts_linearly is the tight one
    def run(n, seed):
        g = generate_random_connected(n, int(1.2 * n), seed)
        lb = lb_of(g)
        t0 = time.perf_counter()
        path_expanding(g, lb)
        multi_path_expanding(g, lb)
        return time.perf_counter() - t0

    small = min(run(400, s) for s in (1, 2, 3))
    big = min(run(800, s) for s in (1, 2, 3))
    assert big < 12 * small + 0.05
