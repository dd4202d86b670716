import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import mbv

ROOT = Path(__file__).resolve().parents[1]

# the public surface; a name added to or dropped from mbv.__all__ must be
# changed here too, so every change to the API is deliberate
PUBLIC = [
    "Component",
    "Decomposition",
    "Graph",
    "LowerBoundResult",
    "OracleResult",
    "Report",
    "SolveOptions",
    "SolveReport",
    "SpanningTree",
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


def test_solve_options_fields_are_pinned():
    # the search's settable controls; a knob added here must be added on purpose
    assert [f.name for f in dataclasses.fields(mbv.SolveOptions)] == ["time_limit", "node_limit"]


def test_bench_parameters_are_pinned():
    # bench runs its instances in order in this process; a knob added here
    # must be added on purpose
    assert list(inspect.signature(mbv.bench).parameters) == ["paths", "time_limit"]


def test_scaling_script_uses_only_public_names():
    # scripts/bench_scaling.py reads the package as ``mbv.<name>``; a trim of
    # the public surface must not break it
    script = ROOT / "scripts" / "bench_scaling.py"
    used = set(re.findall(r"\bmbv\.([A-Za-z_]\w*)", script.read_text(encoding="utf-8")))
    assert used  # the pattern still finds the script's calls
    assert used <= set(mbv.__all__), used - set(mbv.__all__)


def test_benchmark_uses_only_public_names_and_existing_attributes():
    # perfbench/harness.py imports public names and perfbench/tracing.py wraps
    # module attributes by name; both are read as source, never imported, so
    # a trim of either fails here rather than in a benchmark run
    harness = ast.parse((ROOT / "perfbench" / "harness.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(harness)
                if isinstance(node, ast.ImportFrom) and node.module == "mbv"
                for alias in node.names}
    assert imported
    assert imported <= set(mbv.__all__), imported - set(mbv.__all__)
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tracing.body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS")
    traced = [(ast.literal_eval(t.elts[0]), ast.literal_eval(t.elts[1])) for t in targets.elts]
    assert traced
    for module_name, attr in traced:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
