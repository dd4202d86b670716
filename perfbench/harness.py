"""Seeded workloads, the correctness gate and the metrics of the mbv benchmark.

Every input comes from ``generate_random_connected``: instance ``i`` of base
seed ``s`` is ``generate_random_connected(n, m, seed_base + 1000 * s + i)``,
so base seed 0 reproduces the seeds the acceptance tests use (criterion 7 is
seeds 2000-2029 at n=60, m=66). No workload has a time limit; limits are node
budgets, so every count, bound and tree repeats exactly and only timings vary.
One process, no pool: the library runs in this process and the CLI as one
subprocess at a time.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from mbv import (
    SolveOptions,
    SolveReport,
    branch_count,
    decompose,
    generate_random_connected,
    is_spanning_tree,
    load_graph,
    obligatory_branch_bound,
    solve_plain,
    solve_with_decomposition,
    write_instance,
)

from calibration import Stopwatch
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 60  # a run must end within 180 s
# seeds the committed baseline was measured on, and a set kept back for claims
DEFAULT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = tuple(range(101, 111))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    count: int  # instances per pass
    seed_base: int
    node_limit: int | None  # None: both algorithms solve to proof
    cli: str  # mbv subcommand, run ``cli_calls`` times over the instance files in turn
    cli_calls: int

    def instance_seeds(self, seed: int) -> list[int]:
        return [self.seed_base + 1000 * seed + i for i in range(self.count)]


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists is in BENCHMARK.json and README.md
        Workload("exact_sparse", 60, 66, 20, 2000, None, "solve", 12),
        Workload("anytime_large", 15000, 18000, 8, 7, 1, "stats", 12),
        Workload("exact_budget", 100, 130, 20, 3000, 1000, "stats", 20),
    )
}


@dataclass
class Op:
    """One timed operation: a library solve or a CLI subprocess."""

    kind: str  # "enhanced", "plain" or "cli"
    instance: int
    wall: float
    result: SolveReport | dict | None = None
    error: str | None = None
    scale: float = 1.0  # machine-speed correction, see calibration.py

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


# ---------------------------------------------------------------- set-up


def _python(*argv: str) -> subprocess.CompletedProcess:
    """This interpreter in a subprocess that imports mbv from the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # run() kills the child on timeout and waits for it
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S, cwd=ROOT,
    )


def set_up(work: Workload, seed: int, out_dir: Path):
    """Import mbv in a fresh interpreter, generate the instances, write them as
    files and read them back."""
    proc = _python("-c", "import mbv")
    if proc.returncode != 0:
        raise RuntimeError(f"import mbv failed: {proc.stderr[-500:]}")
    inst_dir = out_dir / f"{work.name}-seed{seed}"
    inst_dir.mkdir(parents=True, exist_ok=True)
    graphs, paths = [], []
    for i, s in enumerate(work.instance_seeds(seed)):
        g = generate_random_connected(work.n, work.m, s)
        path = inst_dir / f"inst_{i:03d}.graph"
        path.write_text(write_instance(g), encoding="utf-8")
        if load_graph(str(path)).edges != g.edges:
            raise RuntimeError(f"{path}: instance file does not read back")
        graphs.append(g)
        paths.append(path)
    return graphs, paths


# ---------------------------------------------------------------- timed pass


def _timed(watch: Stopwatch, kind: str, instance: int, fn, *args) -> Op:
    result, exc, wall, scale = watch.time(fn, *args)
    error = None if exc is None else f"{type(exc).__name__}: {exc}"
    return Op(kind, instance, wall, result, error, scale)


def _mbv_cli(*argv: str) -> subprocess.CompletedProcess:
    return _python("-m", "mbv.cli", *argv)


def _cli_call(subcommand: str, path: Path) -> dict:
    proc = _mbv_cli(subcommand, str(path))
    first = proc.stdout.split("\n", 1)[0]
    fields = dict(tok.split("=", 1) for tok in first.split() if "=" in tok)
    return {"returncode": proc.returncode, "fields": fields, "stderr": proc.stderr[-500:]}


def _solve_note(report: SolveReport) -> dict:
    return {"upper_bound": report.upper_bound, "nodes": report.nodes_explored}


def run_pass(work: Workload, graphs, paths, watch: Stopwatch,
             tracer: Tracer | None = None) -> list[Op]:
    """Solve every instance with both algorithms, then run the CLI on the files."""
    opts = SolveOptions(node_limit=work.node_limit)
    solvers = (("enhanced", solve_with_decomposition), ("plain", solve_plain))
    if tracer is not None:
        solvers = tuple((kind, tracer.wrap(fn, f"solve.{kind}", _solve_note))
                        for kind, fn in solvers)
    ops = []
    for i, g in enumerate(graphs):
        if tracer is not None:
            tracer.instance = i
        for kind, solve in solvers:
            ops.append(_timed(watch, kind, i, solve, g, opts))
    for k in range(work.cli_calls):
        i = k % len(paths)
        ops.append(_timed(watch, "cli", i, _cli_call, work.cli, paths[i]))
    return ops


# ---------------------------------------------------------------- gate


def check_solve(g, report: SolveReport) -> list[str]:
    """Problems with one solve's answer; empty when it is sound."""
    problems = []
    edges = report.tree.edges
    edge_set = set(g.edges)
    if not all(e in edge_set for e in edges) or not is_spanning_tree(g, edges):
        problems.append("tree is not a spanning tree of the input")
    elif branch_count(g.n, edges) != report.upper_bound:
        problems.append(
            f"tree has {branch_count(g.n, edges)} branches, upper_bound={report.upper_bound}"
        )
    if report.lower_bound > report.upper_bound:
        problems.append(f"lower_bound {report.lower_bound} > upper_bound {report.upper_bound}")
    return problems


def gate(work: Workload, graphs, ops: list[Op]) -> dict[int, str]:
    """Check every operation outside the timed region; maps op index to reason."""
    failed: dict[int, str] = {}
    by_key = {(op.kind, op.instance): k for k, op in enumerate(ops)}
    stats_expected: dict[int, tuple[int, int]] = {}
    for k, op in enumerate(ops):
        if op.error is not None:
            failed[k] = op.error
        elif op.kind in ("enhanced", "plain"):
            problems = check_solve(graphs[op.instance], op.result)
            if problems:
                failed[k] = "; ".join(problems)
    for i in range(len(graphs)):
        ke, kp = by_key.get(("enhanced", i)), by_key.get(("plain", i))
        if ke is None or kp is None or ke in failed or kp in failed:
            continue
        enh, plain = ops[ke].result, ops[kp].result
        if work.node_limit is None:
            ok = enh.optimal and plain.optimal and enh.upper_bound == plain.upper_bound
            reason = "algorithms disagree on the proved optimum"
        else:
            ok = enh.lower_bound <= plain.upper_bound and plain.lower_bound <= enh.upper_bound
            reason = "one algorithm's lower bound exceeds the other's upper bound"
        if not ok:
            failed[ke] = failed[kp] = reason
    for k, op in enumerate(ops):
        if op.kind != "cli" or k in failed:
            continue
        fields = op.result["fields"]
        if work.cli == "solve":
            ke = by_key.get(("enhanced", op.instance))
            if ke is None or ke in failed:
                failed[k] = "no sound library answer to compare the CLI with"
                continue
            enh = ops[ke].result
            want = {"upper_bound": str(enh.upper_bound)}
            code = 0 if enh.optimal else 2
        else:
            if op.instance not in stats_expected:
                g = graphs[op.instance]
                lb = obligatory_branch_bound(g)
                stats_expected[op.instance] = (lb.value, len(decompose(g, lb).components))
            value, components = stats_expected[op.instance]
            want = {"lower_bound": str(value), "components": str(components)}
            code = 0
        got = {key: fields.get(key) for key in want}
        if op.result["returncode"] != code or got != want:
            failed[k] = (f"cli exit {op.result['returncode']} {got}, expected exit {code} {want}; "
                         f"stderr: {op.result['stderr']}")
    return failed


# ---------------------------------------------------------------- metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms_per_node(ops: list[Op], kind: str) -> list[float]:
    return [1000.0 * op.scaled / max(op.result.nodes_explored, 1)
            for op in ops if op.kind == kind and op.result is not None]


def _cli_overhead(op: Op) -> float:
    """CLI wall time less the solve time the command reports itself, scaled."""
    return (op.wall - float(op.result["fields"].get("elapsed", 0.0))) * op.scale


def end_to_end(setup: list[Op], passes, failed_count: int, attempted: int):
    """End-to-end values, every time scaled for machine speed, and the number
    of samples behind each."""
    ops = [op for _, pass_ops in passes for op in pass_ops]
    first = [op for op in passes[0][1] if op.kind == "enhanced" and op.result is not None]
    ub = sum(op.result.upper_bound for op in first)
    lb = sum(op.result.lower_bound for op in first)
    enh, plain = _ms_per_node(ops, "enhanced"), _ms_per_node(ops, "plain")
    cli = [_cli_overhead(op) for op in ops if op.kind == "cli" and op.result is not None]
    values = {
        "setup_s": (_median(op.scaled for op in setup), len(setup)),
        "solve_ms_per_node_p50": (_median(enh), len(enh)),
        "plain_ms_per_node_p50": (_median(plain), len(plain)),
        "cli_overhead_s_p50": (_median(cli), len(cli)),
        "branches_sum": (ub, len(first)),
        "lb_ub_ratio": (lb / ub if ub else 0.0, len(first)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ok_frac": ((attempted - failed_count) / attempted, attempted),
    }
    return ({k: v for k, (v, _) in values.items()}, {k: n for k, (_, n) in values.items()})


def _timing_summary(walls: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"samples": len(walls), "p50": _median(walls)}
    if len(walls) > 20:
        p = int(100 * (1 - 10 / len(walls)))
        out[f"p{p}"] = statistics.quantiles(walls, n=100)[p - 1]
    return out


# ---------------------------------------------------------------- run


def _environment(seed: int, work: Workload) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": sys.version.split()[0],
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "instance_seeds": work.instance_seeds(seed),
        "n": work.n, "m": work.m, "node_limit": work.node_limit,
    }


def run(work: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run; returns the full result with the summary keys on top."""
    out_dir.mkdir(parents=True, exist_ok=True)
    watch = Stopwatch()
    setup = []
    for _ in range(SETUP_REPEATS):
        op = _timed(watch, "setup", -1, set_up, work, seed, out_dir)
        if op.error is not None:
            raise RuntimeError(f"set-up failed: {op.error}")
        graphs, paths = op.result
        op.result = None  # keep one copy of the inputs alive, not one per set-up
        setup.append(op)

    passes: list[tuple[float, list[Op]]] = []
    tracer = None
    if trace:
        t0 = perf_counter()
        ops = run_pass(work, graphs, paths, watch)
        passes.append((perf_counter() - t0, ops))
        tracer = Tracer(work.name)
        with tracer.installed():
            t0 = perf_counter()
            ops = run_pass(work, graphs, paths, watch, tracer)
            passes.append((perf_counter() - t0, ops))
        for i, path in enumerate(paths):
            tracer.instance = i
            with tracer.span("io.parse"):
                load_graph(str(path))
    else:
        start = perf_counter()
        while True:  # whole passes only; start one more only if it should fit
            t0 = perf_counter()
            ops = run_pass(work, graphs, paths, watch)
            passes.append((perf_counter() - t0, ops))
            if perf_counter() + passes[-1][0] > start + seconds:
                break

    gc.unfreeze()  # the stopwatch froze the heap before each operation
    all_ops = [op for _, ops in passes for op in ops]
    failures: dict[int, str] = {}
    offset = 0
    for _, ops in passes:
        for k, reason in gate(work, graphs, ops).items():
            failures[offset + k] = reason
        offset += len(ops)
    attempted = len(all_ops)
    if trace:
        startup = []
        for _ in range(3):
            t0 = perf_counter()
            proc = _mbv_cli("--help")
            startup.append(perf_counter() - t0)
            if proc.returncode != 0:
                failures[attempted] = f"mbv --help exit {proc.returncode}"
            attempted += 1
        layers = layer_metrics(tracer.spans)
        layers["cli.startup_s"] = _median(startup)
        layers["trace.untraced_workload_s"] = passes[0][0]
        layers["trace.workload_s"] = passes[1][0]
        layers["trace.overhead_s"] = passes[1][0] - passes[0][0]
        tracer.write(out_dir / f"{work.name}-seed{seed}-spans.jsonl")
        values, key = layers, "per_layer"
        samples = {"spans": len(tracer.spans), "cli.startup_s": len(startup)}
    else:
        values, samples = end_to_end(setup, passes, len(failures), attempted)
        key = "end_to_end"
    # names, order and units come from BENCHMARK.json
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[key]}

    kinds = ("enhanced", "plain", "cli")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "workload": work.name,
        "environment": _environment(seed, work),
        "samples": samples,
        "passes": len(passes),
        "pass_s": [wall for wall, _ in passes],
        "setup_s": [op.wall for op in setup],
        "kernel_s_p50": statistics.median(watch.kernel_s),
        "raw_wall_s": {k: _timing_summary([op.wall for op in all_ops if op.kind == k])
                       for k in kinds},
        "scaled_wall_s": {k: _timing_summary([op.scaled for op in all_ops if op.kind == k])
                          for k in kinds},
        "failures": {str(k): reason for k, reason in sorted(failures.items())},
    }
    name = f"{work.name}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result
