import re
from pathlib import Path

import mbv

# the public surface; a name added to or dropped from mbv.__all__ must be
# changed here too, so every change to the API is deliberate
PUBLIC = [
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


def test_public_surface_is_pinned():
    assert mbv.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(mbv, name), name


def test_scaling_script_uses_only_public_names():
    # scripts/bench_scaling.py reads the package as ``mbv.<name>``; a trim of
    # the public surface must not break it
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_scaling.py"
    used = set(re.findall(r"\bmbv\.([A-Za-z_]\w*)", script.read_text(encoding="utf-8")))
    assert used  # the pattern still finds the script's calls
    assert used <= set(mbv.__all__), used - set(mbv.__all__)
