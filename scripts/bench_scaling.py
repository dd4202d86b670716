"""Time generation, the bound, the decomposition, both heuristics and both node-limited solves at growing n.

Usage (from the repository root):

    python scripts/bench_scaling.py --label change
    python scripts/bench_scaling.py --label parent --src OTHER/src

Each call imports ``mbv`` from ``--src`` (default: this checkout's ``src``)
and, for every n in ``SIZES``, times ``generate_random_connected(n, 1.2 n,
SEED)`` itself, then ``obligatory_branch_bound``, ``decompose``,
``path_expanding`` and ``multi_path_expanding`` (the last three given that
bound), ``solve_with_decomposition(node_limit=1)`` and
``solve_plain(node_limit=1)`` on the graph it returns. It keeps the minimum
of ``REPEAT`` runs, and counts the components and the
single-vertex ones. The timings go under ``runs[label]`` in BENCH_scaling.json
at the repository root; the other keys there are kept. Each solve times its
whole pipeline. The record carries the interpreter and the core count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_scaling.json"
SIZES = (1000, 10000, 100000)
SEED = 1
REPEAT = 3


def min_time(fn) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return round(best, 4)


def measure() -> dict:
    import mbv

    opts = mbv.SolveOptions(node_limit=1)
    out = {}
    for n in SIZES:
        g = mbv.generate_random_connected(n, int(1.2 * n), SEED)
        lb = mbv.obligatory_branch_bound(g)
        components = mbv.decompose(g, lb).components
        row = {
            "m": g.m,
            "components": len(components),
            "single_vertex_components": sum(1 for c in components if c.graph.n == 1),
        }
        cases = (
            ("generate_s", lambda: mbv.generate_random_connected(n, int(1.2 * n), SEED)),
            ("bound_s", lambda: mbv.obligatory_branch_bound(g)),
            ("decompose_s", lambda: mbv.decompose(g, lb)),
            ("path_expanding_s", lambda: mbv.path_expanding(g, lb)),
            ("multi_path_expanding_s", lambda: mbv.multi_path_expanding(g, lb)),
            ("solve_node_limit_1_s", lambda: mbv.solve_with_decomposition(g, opts)),
            ("solve_plain_node_limit_1_s", lambda: mbv.solve_plain(g, opts)),
        )
        for key, fn in cases:
            row[key] = min_time(fn)
            print(f"n={n} {key}={row[key]}", file=sys.stderr, flush=True)
        out[str(n)] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key under 'runs', e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the mbv package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    timings = measure()

    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    doc["setup"] = {
        "graphs": "generate_random_connected(n, int(1.2 * n), seed)",
        "seed": SEED,
        "timing": f"min of {REPEAT} runs, seconds",
    }
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "sizes": timings,
    }
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
