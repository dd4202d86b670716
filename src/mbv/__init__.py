"""Minimum branch vertices spanning trees.

Library for finding spanning trees with as few vertices of degree greater than
two as possible: a linear-time combinatorial lower bound, a graph decomposition
that breaks instances into independent components, two constructive heuristics,
an exact branch-and-bound solver, and a brute-force oracle for desk-scale
verification.
"""
from . import errors
from .bench import Report, bench, bench_graph, summarize
from .bound import LowerBoundResult, obligatory_branch_bound
from .decompose import (
    Component,
    Decomposition,
    Original,
    SplitCopy,
    decompose,
    recombine,
)
from .graph import (
    Graph,
    SpanningTree,
    branch_count,
    build_graph,
    is_spanning_tree,
    spanning_tree,
)
from .heuristics import (
    best_heuristic,
    multi_path_expanding,
    path_expanding,
)
from .io import (
    generate_random_connected,
    load_graph,
    parse_dimacs,
    parse_instance,
    write_dimacs,
    write_instance,
)
from .oracle import OracleResult, brute_force_optimum, enumerate_spanning_trees
from .solver import (
    SolveOptions,
    SolveReport,
    solve_component,
    solve_plain,
    solve_with_decomposition,
)

__all__ = [
    "Component",
    "Decomposition",
    "Graph",
    "LowerBoundResult",
    "OracleResult",
    "Original",
    "Report",
    "SolveOptions",
    "SolveReport",
    "SpanningTree",
    "SplitCopy",
    "bench",
    "bench_graph",
    "best_heuristic",
    "branch_count",
    "brute_force_optimum",
    "build_graph",
    "decompose",
    "enumerate_spanning_trees",
    "errors",
    "generate_random_connected",
    "is_spanning_tree",
    "load_graph",
    "multi_path_expanding",
    "obligatory_branch_bound",
    "parse_dimacs",
    "parse_instance",
    "path_expanding",
    "recombine",
    "solve_component",
    "solve_plain",
    "solve_with_decomposition",
    "spanning_tree",
    "summarize",
    "write_dimacs",
    "write_instance",
]
