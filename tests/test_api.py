import mbv

# the public surface; a name added to or dropped from mbv.__all__ must be
# changed here too, so every change to the API is deliberate
PUBLIC = [
    "Component",
    "Decomposition",
    "Graph",
    "HeuristicState",
    "LowerBoundResult",
    "OracleResult",
    "Original",
    "Report",
    "SolveOptions",
    "SolveReport",
    "SpanningTree",
    "SplitCopy",
    "UnionFind",
    "bench",
    "bench_graph",
    "best_heuristic",
    "branch_count",
    "brute_force_optimum",
    "build_graph",
    "connected_components",
    "decompose",
    "enumerate_spanning_trees",
    "errors",
    "generate_random_connected",
    "graph_fingerprint",
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
    "start_restart_select",
    "summarize",
    "write_dimacs",
    "write_instance",
]


def test_public_surface_is_pinned():
    assert mbv.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(mbv, name), name
