"""Split a connected graph into independently solvable components.

Two reductions are applied in one pass, both read from the lower bound's
scan of the input graph (``obligatory_branch_bound``), which is the only scan
of the input:

* every obligatory branch vertex v is replaced by one stub vertex per
  component of the graph without v, each stub keeping the edges into its own
  component;
* every bridge is deleted, crediting each original endpoint with one unit of
  extra degree, because a bridge sits in every spanning tree anyway.

Splitting never breaks a cycle (a cycle through v enters and leaves within a
single component of the graph without v), so the bridge set of the split graph
is exactly the image of the bridges the bound found on the input. Labeling
the split graph's components needs no second lowpoint scan, only one
union-find pass over its edges. The surviving pieces are returned as ordinary
graphs with dense local ids; provenance is the only mapping back.

Most pieces are single vertices (a lone bridge leg, an isolated split copy).
Such a piece never counts: a non-obligatory vertex has at most two bridges and
a split copy is never scored. So every single-vertex component shares one
validated one-vertex graph and one empty edge map, carries only its
provenance and extra degree, and is never solved: its tree is the empty edge
set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bound import LowerBoundResult, graph_fingerprint
from .errors import NotASpanningTreeError, StaleBoundError
from .graph import Edge, Graph, SpanningTree, build_graph, is_spanning_tree, spanning_tree

# the graph of every single-vertex component, and the maps they share and
# never change: a non-obligatory vertex with three bridges would split into
# three pieces, so a single original vertex carries at most two
_POINT = build_graph(1, ())
_NO_EDGES: Mapping[Edge, Edge] = {}
_POINT_EXTRA: tuple[Mapping[int, int], ...] = ({}, {0: 1}, {0: 2})


@dataclass(frozen=True, slots=True)
class Original(object):
    """A component vertex that is an input-graph vertex."""

    vertex: int


@dataclass(frozen=True, slots=True)
class SplitCopy(object):
    """A stub created for one piece of the graph without an obligatory branch.

    ``piece`` is the 1-based index of that piece; for a fixed source vertex the
    copies are exactly piece = 1..split_count.
    """

    vertex: int
    piece: int


Provenance = Original | SplitCopy


@dataclass(frozen=True, slots=True)
class Component:
    """One connected piece of the decomposed graph, with its own objective.

    A component spanning tree is scored by counting the ``countable`` local
    vertices (the originals; split copies never count) whose tree degree plus
    ``extra_degree`` exceeds two. ``extra_degree`` holds, for original
    vertices only, the number of deleted bridges that were incident to them.
    ``spanning_tree``, the heuristics and the exact search read both from here.

    Every single-vertex component of a decomposition shares one graph, the
    empty edge map and an extra-degree map, none of them ever changed; the
    enhanced solve gives it the empty tree, never reading ``countable``.
    """

    graph: Graph
    provenance: tuple[Provenance, ...]
    extra_degree: Mapping[int, int]
    edge_origin: Mapping[Edge, Edge]

    @property
    def countable(self) -> tuple[bool, ...]:
        """Per local vertex, whether it counts: originals do, split copies never."""
        return tuple([isinstance(p, Original) for p in self.provenance])


@dataclass(frozen=True)
class Decomposition:
    """All components plus the data needed to stitch solutions back together."""

    source: Graph
    components: tuple[Component, ...]
    obligatory: LowerBoundResult
    cut_edges: frozenset[Edge]


def decompose(g: Graph, lb: LowerBoundResult) -> Decomposition:
    """Apply both reductions to the connected graph ``lb`` was computed on.

    A component may legally be a single split copy or a single original vertex
    of degree zero; that happens when a leg hanging off an obligatory branch is
    a lone bridge.
    """
    if lb.fingerprint != graph_fingerprint(g):
        raise StaleBoundError("lower bound was computed on a different graph")
    n = g.n
    obligatory = lb.obligatory
    bridges = lb.bridges
    piece_of = lb.piece_of

    # split ids: surviving originals first, then copies; sid[v] is the id of
    # v itself, or of its first copy when v is obligatory
    sid = [0] * n
    node_origin: list[Provenance] = []
    for v in range(n):
        if v not in obligatory:
            sid[v] = len(node_origin)
            node_origin.append(Original(v))
    for v in sorted(obligatory):
        sid[v] = len(node_origin)
        node_origin.extend(SplitCopy(v, p) for p in range(1, lb.split_counts[v] + 1))
    n_split = len(node_origin)

    # every kept edge's split endpoints lo < hi, and the input edge; a
    # union-find links the larger root under the smaller one as it goes, so
    # parent[x] <= x and a component's root is its smallest id
    lo, hi, kept = [], [], []
    parent = list(range(n_split))
    for e in g.edges:
        if e in bridges:
            continue
        u, w = e
        a, b = sid[u], sid[w]
        if u in piece_of:
            a += piece_of[u][w] - 1
        if w in piece_of:
            b += piece_of[w][u] - 1
        if a > b:
            a, b = b, a
        lo.append(a)
        hi.append(b)
        kept.append(e)
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a > b:
            a, b = b, a
        parent[b] = a
    # in id order every smaller id already points at its root, so members
    # come out ascending and local ids keep that order
    local = [0] * n_split
    members: dict[int, list[int]] = {}  # root -> ids of a multi-vertex component
    for x in range(n_split):
        r = parent[x] = parent[parent[x]]
        if r != x:
            ids = members.get(r) or members.setdefault(r, [r])
            local[x] = len(ids)
            ids.append(x)
    edges_of: dict[int, tuple[list[Edge], list[Edge]]] = {r: ([], []) for r in members}
    for a, b, e in zip(lo, hi, kept):
        pairs, origins = edges_of[parent[a]]
        pairs.append((local[a], local[b]))
        origins.append(e)

    bridge_deg = [0] * n
    for u, w in bridges:
        bridge_deg[u] += 1
        bridge_deg[w] += 1
    components = []
    for r in range(n_split):
        if parent[r] != r:
            continue
        if r not in members:
            p = node_origin[r]
            d = bridge_deg[p.vertex] if isinstance(p, Original) else 0
            components.append(Component(_POINT, (p,), _POINT_EXTRA[d], _NO_EDGES))
            continue
        provenance = tuple(node_origin[x] for x in members[r])
        extra = {}
        for i, p in enumerate(provenance):
            if isinstance(p, Original) and bridge_deg[p.vertex]:
                extra[i] = bridge_deg[p.vertex]
        pairs, origins = edges_of[r]
        cg = build_graph(len(provenance), pairs)
        components.append(Component(cg, provenance, extra, dict(zip(pairs, origins))))

    return Decomposition(g, tuple(components), lb, bridges)


def recombine(d: Decomposition, component_trees) -> SpanningTree:
    """Stitch per-component spanning trees and the deleted bridges back together.

    The result is a spanning tree of the source graph whose branch count equals
    the number of obligatory vertices plus the component branch counts. An
    empty edge set for a single-vertex component is its tree as it stands;
    every other edge set must be edges of its component that span it, or
    NotASpanningTreeError is raised.
    """
    trees = list(component_trees)
    if len(trees) != len(d.components):
        raise NotASpanningTreeError(
            f"expected {len(d.components)} component trees, got {len(trees)}"
        )
    edges: set[Edge] = set(d.cut_edges)
    for k, (comp, te) in enumerate(zip(d.components, trees)):
        if comp.graph.n == 1 and not te:
            continue
        if not is_spanning_tree(comp.graph, te):
            raise NotASpanningTreeError(f"component {k}: edge set is not a spanning tree")
        edges.update(comp.edge_origin[(u, v) if u < v else (v, u)] for u, v in te)
    return spanning_tree(d.source, edges)
