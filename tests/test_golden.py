"""Golden outputs: CLI bytes, decomposition files, heuristic trees and node counts.

The expected values in ``golden/outputs.json`` were recorded from the
implementation and pin its observable behaviour: the exact stdout of the
reporting commands (only ``elapsed=`` is masked), the table, records and JSON
of ``mbv bench`` (times masked), every file ``mbv decompose`` writes, one
digest per heuristic over the trees it builds on many graphs and their
components, and the node counts and bounds of both exact algorithms. A
refactor that keeps behaviour keeps all of them.

To re-record after an intended behaviour change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import re
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from mbv import (
    SolveOptions,
    decompose,
    generate_random_connected,
    multi_path_expanding,
    obligatory_branch_bound,
    path_expanding,
    solve_plain,
    solve_with_decomposition,
    write_instance,
)
from mbv.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden") / "outputs.json"

# (name, n, m, seed); g30 has obligatory vertices and bridges, g16 is the
# criterion-9 instance
CLI_INSTANCES = (("g16", 16, 19, 77), ("g20", 20, 23, 5), ("g30", 30, 34, 1))
CLI_COMMANDS = (
    ("stats", ()),
    ("heur", ("--alg", "best", "--tree")),
    ("solve", ("--tree",)),
    ("solve", ("--no-decompose", "--tree")),
)
# criterion-7 instances solved to proof, and one budgeted solve at n=100
SEARCH_CASES = tuple((60, 66, s, None) for s in range(2000, 2005)) + ((100, 130, 4000, 1000),)
# (n, m, seed) for the heuristic digests: 120 graphs, n from 5 to 1195 with
# most of them small (so the run stays short), at three edge densities
HEURISTIC_CASES = tuple(
    (n, n + n // (3 + i % 3 * 3), 7000 + i)
    for i, n in enumerate(5 + i * i // 12 for i in range(120))
)


def _cli(argv) -> str:
    out = StringIO()
    with redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    return f"exit={code}\n" + re.sub(r"elapsed=\S+", "elapsed=*", out.getvalue())


def _mask_bench_times(text: str) -> str:
    """Mask the timing-dependent values of bench records and its JSON document."""
    text = re.sub(r"(elapsed_\w+)=\S+", r"\1=*", text)
    text = re.sub(r'("(?:enhanced|plain)_time": )[^,\n]+', r"\1*", text)
    return re.sub(
        r'"elapsed": \{[^}]*\}', lambda m: re.sub(r'(\n *"\w+": )[^,\n]+', r"\1*", m.group()), text
    )


def _bench_outputs(work: Path) -> dict:
    """``mbv bench`` over the CLI instances, one unparsable and one non-UTF-8 file."""
    bench_dir = work / "bench"
    bench_dir.mkdir()
    for name, n, m, seed in CLI_INSTANCES:
        text = write_instance(generate_random_connected(n, m, seed))
        (bench_dir / f"{name}.graph").write_text(text, encoding="utf-8")
    (bench_dir / "broken.graph").write_text('3 "x"\n', encoding="utf-8")
    (bench_dir / "latin1.graph").write_bytes("2 1\n1 2 # caf\u00e9\n".encode("latin-1"))
    doc = work / "bench.json"
    stdout = _cli(("bench", bench_dir, "--records", "-", "--json", doc))
    return {
        key: _mask_bench_times(text).replace(str(bench_dir), "DIR")
        for key, text in (
            ("bench --records -", stdout),
            ("bench --json", doc.read_text(encoding="utf-8")),
        )
    }


def _heuristic_digests() -> dict:
    """Per heuristic: how many trees it built and a hash of their sorted edges.

    Each case graph is run whole and then every multi-vertex component of its
    decomposition is run under ``component=``.
    """
    digests = {"path": hashlib.sha256(), "multi": hashlib.sha256()}
    runs = 0
    for n, m, seed in HEURISTIC_CASES:
        g = generate_random_connected(n, m, seed)
        lb = obligatory_branch_bound(g)
        jobs = [(g, lb, None)] + [
            (c.graph, obligatory_branch_bound(c.graph), c)
            for c in decompose(g, lb).components
            if c.graph.n > 1
        ]
        for graph, bound, component in jobs:
            runs += 1
            for name, heuristic in (("path", path_expanding), ("multi", multi_path_expanding)):
                tree = heuristic(graph, bound, component)
                digests[name].update(repr(sorted(tree.edges)).encode())
    return {f"heuristic {name} trees": [runs, h.hexdigest()] for name, h in digests.items()}


def record(work: Path) -> dict:
    """Every pinned output, computed by the current implementation."""
    outputs = {}
    for name, n, m, seed in CLI_INSTANCES:
        inst = work / f"{name}.graph"
        inst.write_text(write_instance(generate_random_connected(n, m, seed)), encoding="utf-8")
        for command, flags in CLI_COMMANDS:
            key = " ".join((command, name) + flags)
            outputs[key] = _cli((command, inst) + flags)
        out_dir = work / f"{name}-parts"
        outputs[f"decompose {name}"] = _cli(("decompose", inst, "--out-dir", out_dir)).replace(
            str(out_dir), "OUT"
        )
        for path in sorted(out_dir.iterdir()):
            outputs[f"decompose {name} {path.name}"] = path.read_text(encoding="utf-8")
    outputs.update(_bench_outputs(work))
    for n, m, seed, limit in SEARCH_CASES:
        g = generate_random_connected(n, m, seed)
        opts = SolveOptions(node_limit=limit)
        for algorithm, solve in (("enhanced", solve_with_decomposition), ("plain", solve_plain)):
            r = solve(g, opts)
            outputs[f"search n={n} m={m} seed={seed} limit={limit} {algorithm}"] = [
                r.nodes_explored,
                r.lower_bound,
                r.upper_bound,
            ]
    outputs.update(_heuristic_digests())
    return outputs


def test_golden_outputs(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} outputs to {GOLDEN}", file=sys.stderr)
