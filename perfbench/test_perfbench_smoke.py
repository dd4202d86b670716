"""Smoke test of the benchmark: a scaled-down run of every workload emits every
metric BENCHMARK.json names, with its unit, and the gate catches a bad tree.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from mbv import generate_random_connected, solve_with_decomposition  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "exact_sparse": dict(n=12, m=14, count=3, cli_calls=1),
    "anytime_large": dict(n=300, m=360, count=1, cli_calls=1),
    "exact_budget": dict(n=20, m=26, count=2, node_limit=50, cli_calls=1),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert set(SMALL) == set(harness.WORKLOADS)


def test_scaled_down_run_emits_every_metric(tmp_path):
    for name, small in SMALL.items():
        work = replace(harness.WORKLOADS[name], **small)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run(work, seed=0, seconds=0, trace=trace, out_dir=tmp_path)
            assert result["correct"], (name, trace, result["failures"])
            assert result["attempted"] >= 1 and result["failed"] == 0
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in SPEC[key]], (name, trace)
            for m in SPEC[key]:
                assert metrics[m["name"]]["unit"] == m["unit"], (name, m["name"])
                assert isinstance(metrics[m["name"]]["value"], (int, float))


def _swap_one_edge(g, tree_edges):
    """Replace one tree edge by a graph edge that does not reconnect the tree."""
    tree = set(tree_edges)
    for cut in sorted(tree):
        side = {cut[0]}
        stack = [cut[0]]
        while stack:
            v = stack.pop()
            for e in tree - {cut}:
                if v in e:
                    w = e[0] + e[1] - v
                    if w not in side:
                        side.add(w)
                        stack.append(w)
        for e in g.edges:
            if e not in tree and (e[0] in side) == (e[1] in side):
                return frozenset(tree - {cut} | {e})
    raise AssertionError("no swap leaves a non-tree")


def test_gate_counts_a_corrupted_tree():
    work = replace(harness.WORKLOADS["exact_sparse"], **SMALL["exact_sparse"])
    g = generate_random_connected(12, 16, 1)
    report = solve_with_decomposition(g)
    good = harness.Op("enhanced", 0, 0.0, report)
    assert harness.gate(work, [g], [good]) == {}

    bad_tree = replace(report.tree, edges=_swap_one_edge(g, report.tree.edges))
    bad = harness.Op("enhanced", 0, 0.0, replace(report, tree=bad_tree))
    failures = harness.gate(work, [g], [good, bad])
    assert list(failures) == [1]
