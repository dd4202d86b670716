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
graphs with dense local ids. Each local vertex is described by three ints:
the input vertex it comes from (``origin``), its piece (``piece``: 0 for the
vertex itself, 1..split_count for a stub of an obligatory vertex) and the
number of deleted bridges at it (``extra_degree``); with the edge map the
first two are the only mapping back.

Most pieces are single vertices (a lone bridge leg, an isolated split copy).
Such a piece never counts: a non-obligatory vertex has at most two bridges and
a split copy is never scored. So every single-vertex component shares one
validated one-vertex graph and one empty edge map, and its extra degree d is
read off one shared table ``((0,), (1,), (2,))``, whose first entry is also
the piece tuple ``(0,)`` of an original; it carries only its origin, piece
and extra degree, and is never solved: its tree is the empty edge set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bound import LowerBoundResult
from .errors import NotASpanningTreeError, StaleBoundError
from .graph import Edge, Graph, SpanningTree, build_graph, spanning_tree

# the graph of every single-vertex component, and the edge map and tuples
# they share and never change: a non-obligatory vertex with three bridges
# would split into three pieces, so a single original vertex carries at most
# two; entry 0 is also the piece tuple of an original
_POINT = build_graph(1, ())
_NO_EDGES: Mapping[Edge, Edge] = {}
_POINT_INTS = ((0,), (1,), (2,))


@dataclass(frozen=True, slots=True)
class Component:
    """One connected piece of the decomposed graph, with its own objective.

    Local vertex i comes from input vertex ``origin[i]``. ``piece[i]`` is 0
    when it is that vertex itself (an original) and the 1-based piece of the
    graph without ``origin[i]`` when it is a split copy of an obligatory
    vertex; a vertex's copies are exactly pieces 1..split_count.

    A component spanning tree is scored by counting the ``countable`` local
    vertices (the originals; split copies never count) whose tree degree plus
    ``extra_degree`` exceeds two. ``extra_degree[i]`` is the number of deleted
    bridges that were incident to local vertex i, always 0 for a split copy.
    It is at most 1 in a multi-vertex component and at most 2 in a
    single-vertex one: a vertex with b bridges and any other edge leaves at
    least b + 1 pieces without it, so b >= 2 there would make it obligatory.
    ``spanning_tree``, the heuristics and the exact search read both from here.

    ``edge_origin`` maps each local edge to its input edge, and is the map
    ``graph`` was built from: ``decompose`` collects it once and hands its
    keys to ``build_graph``. The input edge could be read off ``origin``, but
    it is stored because its values are the input graph's own edge tuples, so
    a recombined tree shares them rather than holding new tuples of its own.

    Every single-vertex component of a decomposition shares one graph, the
    empty edge map and its extra-degree tuple, and an original one the piece
    tuple ``(0,)``, none of them ever changed; the enhanced solve gives it the
    empty tree, never reading ``countable``.
    """

    graph: Graph
    origin: tuple[int, ...]
    piece: tuple[int, ...]
    extra_degree: tuple[int, ...]
    edge_origin: Mapping[Edge, Edge]

    @property
    def countable(self) -> tuple[bool, ...]:
        """Per local vertex, whether it counts: originals (piece 0) do, copies never."""
        return tuple([p == 0 for p in self.piece])


@dataclass(frozen=True)
class Decomposition:
    """All components plus the data needed to stitch solutions back together."""

    source: Graph
    components: tuple[Component, ...]
    cut_edges: frozenset[Edge]


def decompose(g: Graph, lb: LowerBoundResult) -> Decomposition:
    """Apply both reductions to the connected graph ``lb`` was computed on.

    A component may legally be a single split copy or a single original vertex
    of degree zero; that happens when a leg hanging off an obligatory branch is
    a lone bridge. A bound computed on a graph that is not equal to g raises
    StaleBoundError; the bound of g itself passes at once.
    """
    if lb.graph != g:
        raise StaleBoundError("lower bound was computed on a different graph")
    n = g.n
    obligatory = lb.obligatory
    bridges = lb.bridges
    piece_of = lb.piece_of

    # split ids: surviving originals first, then copies; sid[v] is the id of
    # v itself, or of its first copy when v is obligatory
    sid = [0] * n
    origin: list[int] = []
    for v in range(n):
        if v not in obligatory:
            sid[v] = len(origin)
            origin.append(v)
    piece = [0] * len(origin)
    for v in sorted(obligatory):
        sid[v] = len(origin)
        k = lb.split_counts[v]
        origin += [v] * k
        piece += range(1, k + 1)
    n_split = len(origin)
    # one unit of extra degree per deleted bridge, on its original ends only
    extra_of = [0] * n_split
    for e in bridges:
        for v in e:
            if v not in obligatory:
                extra_of[sid[v]] += 1

    # every kept edge as its split endpoints a < b and the input edge; a
    # union-find links the larger root under the smaller one as it goes, so
    # parent[x] <= x and a component's root is its smallest id
    kept = []
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
        kept.append((a, b, e))
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
    # each multi-vertex component's edge map, local pair -> input edge
    edges_of: dict[int, dict[Edge, Edge]] = {r: {} for r in members}
    for a, b, e in kept:
        edges_of[parent[a]][local[a], local[b]] = e

    components = []
    for r in range(n_split):
        if parent[r] != r:
            continue
        if r not in members:
            p = piece[r]
            components.append(Component(_POINT, (origin[r],), (p,) if p else _POINT_INTS[0],
                                        _POINT_INTS[extra_of[r]], _NO_EDGES))
            continue
        ids = members[r]
        edge_origin = edges_of[r]
        components.append(Component(build_graph(len(ids), edge_origin),
                                    tuple([origin[x] for x in ids]),
                                    tuple([piece[x] for x in ids]),
                                    tuple([extra_of[x] for x in ids]), edge_origin))

    return Decomposition(g, tuple(components), bridges)


def _component_count(lb: LowerBoundResult) -> int:
    """How many components ``decompose`` makes from ``lb``, read off the bound.

    The input graph is one component. Splitting obligatory vertex v into its
    ``split_counts[v]`` pieces adds ``split_counts[v] - 1``, and deleting a
    bridge adds one: splitting never breaks a cycle and deleting an edge never
    makes one, so each bridge still separates its two sides when it goes.
    """
    return 1 + sum(lb.split_counts.values()) - lb.value + len(lb.bridges)


def recombine(d: Decomposition, component_trees) -> SpanningTree:
    """Stitch per-component spanning trees and the deleted bridges back together.

    The result is a spanning tree of the source graph whose branch count equals
    the number of obligatory vertices plus the component branch counts. Each
    component's pairs are mapped to input edges, a pair that is no edge of its
    component raising NotASpanningTreeError, and the mapped edges with the cut
    edges are certified once, as one list, so a repeated edge fails too.

    For a decomposition built by ``decompose`` that one certificate holds
    exactly when every part spans its component. A tree path between two
    vertices of a component could leave it only by a bridge or at an
    obligatory vertex, and could not come back without crossing that bridge or
    vertex again; so a spanning tree of the source restricts to a spanning
    tree of every part.
    """
    trees = list(component_trees)
    if len(trees) != len(d.components):
        raise NotASpanningTreeError(
            f"expected {len(d.components)} component trees, got {len(trees)}"
        )
    edges = list(d.cut_edges)
    for k, (comp, te) in enumerate(zip(d.components, trees)):
        for u, v in te:
            e = comp.edge_origin.get((u, v) if u < v else (v, u))
            if e is None:
                raise NotASpanningTreeError(f"component {k}: ({u}, {v}) is not an edge of it")
            edges.append(e)
    return spanning_tree(d.source, edges)
