"""In-memory spans around the mbv functions each layer calls through.

The tracer replaces module attributes that mbv looks up at call time, so the
program itself is not edited: ``solve_with_decomposition`` finds the wrapped
``decompose`` in ``mbv.solver``'s globals, ``best_heuristic`` finds the wrapped
``path_expanding`` in ``mbv.heuristics``, and ``decompose`` finds the wrapped
``build_graph`` in ``mbv.decompose``. Spans stay in memory as
(name, start, end, parent, workload, instance, info) and are written out once
the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, what to keep from the result)
TARGETS = (
    ("mbv.solver", "obligatory_branch_bound", "bound", None),
    ("mbv.solver", "decompose", "decompose", lambda d: {"components": len(d.components)}),
    ("mbv.solver", "best_heuristic", "heuristics.best", lambda t: {"branches": t.branches}),
    ("mbv.solver", "solve_component", "solver.solve_component",
     lambda r: {"nodes": r.nodes_explored}),
    ("mbv.solver", "recombine", "decompose.recombine", None),
    ("mbv.solver", "spanning_tree", "graph.spanning_tree", None),
    ("mbv.heuristics", "path_expanding", "heuristics.path", None),
    ("mbv.heuristics", "multi_path_expanding", "heuristics.multi", None),
    # the package's ``decompose`` attribute is the function, so go through sys.modules
    ("mbv.decompose", "build_graph", "graph.build_graph", None),
)

NAME, START, END, PARENT, WORKLOAD, INSTANCE, INFO = range(7)


class Tracer:
    """Collects nested spans; ``instance`` tags the spans opened while it is set."""

    def __init__(self, workload: str):
        self.workload = workload
        self.instance: int | None = None
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.workload, self.instance, None])
        self._open.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording a span per call; ``note`` keeps figures from its result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if note is not None:
                self.spans[idx][INFO] = note(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        patched = []
        try:
            for module_name, attr, name, note in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, name, note))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals from one traced pass.

    Layer figures count only spans under ``solve.enhanced`` roots, except the
    ``solver.plain_*`` figures, which come from ``solve.plain`` roots. A span's
    self time is its duration minus its direct children's durations.
    """
    dur = [s[END] - s[START] for s in spans]
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):  # parents are always recorded before children
        p = s[PARENT]
        root[i] = i if p is None else root[p]
        if p is not None:
            child_time[p] += dur[i]

    def under(algo: str, name: str) -> list[int]:
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and spans[root[i]][NAME] == algo]

    enh_roots = [i for i, s in enumerate(spans) if s[NAME] == "solve.enhanced"]
    plain_roots = [i for i, s in enumerate(spans) if s[NAME] == "solve.plain"]
    enh_wall = sum(dur[i] for i in enh_roots)

    def total(name: str) -> float:
        return sum(dur[i] for i in under("solve.enhanced", name))

    path_s, multi_s = total("heuristics.path"), total("heuristics.multi")
    components = under("solve.enhanced", "solver.solve_component")
    search_s = sum(dur[i] - child_time[i] for i in components)
    nodes = sum(spans[i][INFO]["nodes"] for i in components)
    plain_search_s = sum(dur[i] - child_time[i] for i in plain_roots)
    plain_nodes = sum(spans[i][INFO]["nodes"] for i in plain_roots)
    # the whole-graph warm start is the heuristic called directly by the solve
    warm_excess = sum(
        spans[i][INFO]["branches"] - spans[spans[i][PARENT]][INFO]["upper_bound"]
        for i in under("solve.enhanced", "heuristics.best")
        if spans[i][PARENT] in enh_roots
    )
    parse = [i for i, s in enumerate(spans) if s[NAME] == "io.parse"]
    return {
        "io.parse_s": sum(dur[i] for i in parse),
        "bound.s": total("bound"),
        "bound.calls": len(under("solve.enhanced", "bound")),
        "decompose.s": total("decompose"),
        "decompose.components": sum(
            spans[i][INFO]["components"] for i in under("solve.enhanced", "decompose")
        ),
        "decompose.recombine_s": total("decompose.recombine"),
        "graph.build_graph_calls": len(under("solve.enhanced", "graph.build_graph")),
        "graph.build_graph_s": total("graph.build_graph"),
        "graph.spanning_tree_s": total("graph.spanning_tree"),
        "heuristics.path_s": path_s,
        "heuristics.multi_s": multi_s,
        "heuristics.calls": len(under("solve.enhanced", "heuristics.path"))
        + len(under("solve.enhanced", "heuristics.multi")),
        "heuristics.share": (path_s + multi_s) / enh_wall if enh_wall else 0.0,
        "heuristics.warm_excess": warm_excess,
        "solver.search_s": search_s,
        "solver.search_share": search_s / enh_wall if enh_wall else 0.0,
        "solver.nodes": nodes,
        "solver.nodes_per_s": nodes / search_s if search_s else 0.0,
        "solver.plain_search_s": plain_search_s,
        "solver.plain_nodes": plain_nodes,
        "solver.plain_nodes_per_s": plain_nodes / plain_search_s if plain_search_s else 0.0,
        "trace.spans": len(spans),
    }
