"""Timings corrected for the speed the machine has during a run.

On a shared machine the same solve can take 20 % longer in one minute than in
the next. Between timed operations the stopwatch times a fixed pure-Python
graph kernel that does not use mbv (adjacency build, iterative bridge DFS,
union-find on a 120-vertex graph: the kind of work the solver does, with a
working set as small as the solver's). Each operation's time is scaled by
``REFERENCE_S`` over the kernel time around it, so a scaled time reads as the
time the operation would take on a machine where the kernel takes
``REFERENCE_S``. Raw times are kept next to the scaled ones.
"""
from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

# nominal kernel time; on the 2-core x86-64 VM (Python 3.11) of the committed
# baseline one sample took 5-10 ms, so scaled times there read 1-2x raw
REFERENCE_S = 0.01
REPEATS = 60  # kernel passes per sample
SAMPLE_EVERY_S = 0.5  # after a call, one more sample per this many seconds it took
MAX_SAMPLES = 9


def _kernel_graph(n: int = 120, m: int = 156, seed: int = 1):
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return n, sorted(edges)


def _kernel(n: int, edges) -> None:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ei, (u, v) in enumerate(edges):
        adj[u].append((v, ei))
        adj[v].append((u, ei))
    entry = [-1] * n
    low = [0] * n
    bridges = set()
    timer = 0
    for r in range(n):
        if entry[r] != -1:
            continue
        entry[r] = low[r] = timer
        timer += 1
        stack = [(r, -1, iter(adj[r]))]
        while stack:
            v, parent_edge, it = stack[-1]
            for w, ei in it:
                if ei == parent_edge:
                    continue
                if entry[w] == -1:
                    entry[w] = low[w] = timer
                    timer += 1
                    stack.append((w, ei, iter(adj[w])))
                    break
                if entry[w] < low[v]:
                    low[v] = entry[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > entry[p]:
                        bridges.add(parent_edge)
    parent = list(range(n))
    for ei, (u, v) in enumerate(edges):
        if ei in bridges:
            continue
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v


class Stopwatch:
    """Times calls and samples the kernel between them."""

    def __init__(self):
        self._graph = _kernel_graph()
        self.kernel_s: list[float] = []
        self._last = self._sample()

    def _sample(self, count: int = 1) -> float:
        """Median of ``count`` kernel timings.

        The collector is off meanwhile: the kernel makes no cycles, and a
        collection of the caller's heap would time the heap, not the machine.
        """
        times = []
        gc.disable()
        try:
            for _ in range(count):
                t0 = perf_counter()
                for _ in range(REPEATS):
                    _kernel(*self._graph)
                times.append(perf_counter() - t0)
        finally:
            gc.enable()
        self.kernel_s.extend(times)
        self._last = statistics.median(times)
        return self._last

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, exception or None, wall s, scale).

        ``scale`` is ``REFERENCE_S`` over the mean of the kernel samples taken
        just before and just after the call.
        """
        before = self._last
        # objects that exist now (inputs, earlier results, spans) are left out
        # of later collections, so the call's collector work does not grow
        # with what the benchmark keeps
        gc.freeze()
        t0 = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # the caller counts a raising operation as failed
            result, error = None, exc
        wall = perf_counter() - t0
        # long calls get more samples, so the kernel's own noise stays small
        after = self._sample(min(MAX_SAMPLES, 1 + int(wall / SAMPLE_EVERY_S)))
        return result, error, wall, REFERENCE_S / ((before + after) / 2)
