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
is exactly the image of the bridges the bound found on the input. The split
graph is scanned once more, only to label its components. The surviving pieces
are returned as ordinary graphs with dense local ids; provenance is the only
mapping back.

Most pieces are single vertices (a lone bridge leg, an isolated split copy).
Such a piece never counts: a non-obligatory vertex has at most two bridges and
a split copy is never scored. So every single-vertex component shares one
validated one-vertex graph, carries only its provenance and extra degree, and
is never solved: its tree is the empty edge set.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bound import LowerBoundResult, graph_fingerprint
from .errors import NotASpanningTreeError, StaleBoundError
from .graph import (
    Edge,
    Graph,
    SpanningTree,
    _lowpoint,
    build_graph,
    is_spanning_tree,
    spanning_tree,
)

# the graph of every single-vertex component
_POINT = build_graph(1, ())


@dataclass(frozen=True)
class Original(object):
    """A component vertex that is an input-graph vertex."""

    vertex: int


@dataclass(frozen=True)
class SplitCopy(object):
    """A stub created for one piece of the graph without an obligatory branch.

    ``piece`` is the 1-based index of that piece; for a fixed source vertex the
    copies are exactly piece = 1..split_count.
    """

    vertex: int
    piece: int


Provenance = Original | SplitCopy


@dataclass(frozen=True)
class Component:
    """One connected piece of the decomposed graph, with its own objective.

    A component spanning tree is scored by counting the ``countable`` local
    vertices (the originals; split copies never count) whose tree degree plus
    ``extra_degree`` exceeds two. ``extra_degree`` holds, for original
    vertices only, the number of deleted bridges that were incident to them.
    ``spanning_tree``, the heuristics and the exact search read both from here.

    Every single-vertex component of a decomposition shares one graph and has
    no edges to map; the enhanced solve gives it the empty tree unsolved.
    """

    graph: Graph
    provenance: tuple[Provenance, ...]
    extra_degree: dict[int, int]
    edge_origin: dict[Edge, Edge]

    @property
    def countable(self) -> tuple[bool, ...]:
        return tuple(isinstance(p, Original) for p in self.provenance)


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

    # assign ids in the split graph: surviving originals first, then copies
    node_origin: list[Provenance] = []
    orig_id: dict[int, int] = {}
    copy_id: dict[tuple[int, int], int] = {}
    for v in range(n):
        if v not in obligatory:
            orig_id[v] = len(node_origin)
            node_origin.append(Original(v))
    for v in sorted(obligatory):
        for p in range(1, lb.split_counts[v] + 1):
            copy_id[(v, p)] = len(node_origin)
            node_origin.append(SplitCopy(v, p))
    n_split = len(node_origin)

    def mapped(x: int, other: int) -> int:
        if x not in obligatory:
            return orig_id[x]
        return copy_id[(x, piece_of[x][other])]

    split_adj: list[list[int]] = [[] for _ in range(n_split)]
    origin_of: dict[Edge, Edge] = {}
    for e in g.edges:
        if e in bridges:
            continue
        u, w = e
        a, b = mapped(u, w), mapped(w, u)
        split_adj[a].append(b)
        split_adj[b].append(a)
        origin_of[(a, b) if a < b else (b, a)] = e

    bridge_deg = [0] * n
    for u, w in bridges:
        bridge_deg[u] += 1
        bridge_deg[w] += 1

    split = _lowpoint(n_split, split_adj)
    members: list[list[int]] = [[] for _ in range(split.count)]
    for x in range(n_split):
        members[split.component_of[x]].append(x)

    components = []
    for ids in members:  # ascending: ids were scanned in order
        if len(ids) == 1:
            p = node_origin[ids[0]]
            d = bridge_deg[p.vertex] if isinstance(p, Original) else 0
            components.append(Component(_POINT, (p,), {0: d} if d else {}, {}))
            continue
        # local ids keep the order of split ids, so x < y gives a local pair in order
        local = {x: i for i, x in enumerate(ids)}
        local_edges = []
        edge_origin: dict[Edge, Edge] = {}
        for x in ids:
            a = local[x]
            for y in split_adj[x]:
                if x < y:
                    e = (a, local[y])
                    local_edges.append(e)
                    edge_origin[e] = origin_of[(x, y)]
        cg = build_graph(len(ids), local_edges)
        provenance = tuple(node_origin[x] for x in ids)
        extra = {}
        for i, p in enumerate(provenance):
            if isinstance(p, Original) and bridge_deg[p.vertex]:
                extra[i] = bridge_deg[p.vertex]
        components.append(Component(cg, provenance, extra, edge_origin))

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
        origin = comp.edge_origin
        for u, v in te:
            e = origin.get((u, v) if u < v else (v, u))
            if e is None:
                raise NotASpanningTreeError(f"component {k}: ({u}, {v}) is not an edge")
            edges.add(e)
    return spanning_tree(d.source, edges)
