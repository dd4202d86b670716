"""Benchmark harness: run the full pipeline over instance files and report.

Per instance the harness measures the reduction (obligatory branches and cut
edges removed), both constructive heuristics, and both exact algorithms under
equal time limits. Results serialize as one line-oriented key=value record per
instance and, optionally, one JSON document per run; both are deterministic
apart from the elapsed_* fields.

The process pool, logging and json are imported where they are used: every
mbv command imports this module through the package, and only the bench
runner needs them.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from .bound import obligatory_branch_bound
from .decompose import decompose
from .errors import MbvError
from .graph import Graph
from .heuristics import multi_path_expanding, path_expanding
from .io import load_graph
from .solver import SolveOptions, solve_plain, solve_with_decomposition


@dataclass
class Report:
    """One instance's reduction, heuristic, and exact-solve results.

    The top-level bound columns describe the decomposition-enhanced solve;
    the plain_* columns describe the whole-graph solve under the same limits.
    """

    instance: str
    n: int = 0
    m: int = 0
    ob: int = 0
    ce: int = 0
    heur_path: int = 0
    heur_multipath: int = 0
    heur_best: int = 0
    lower_bound: float = 0.0
    upper_bound: int = 0
    gap_percent: float = 0.0
    optimal: bool = False
    plain_lower_bound: float = 0.0
    plain_upper_bound: int = 0
    plain_gap_percent: float = 0.0
    plain_optimal: bool = False
    elapsed: dict = field(default_factory=dict)
    error: str | None = None


def bench_graph(name: str, g: Graph, time_limit: float | None = None) -> Report:
    """Run reduction statistics, both heuristics, and both solvers on one graph."""
    r = Report(instance=name, n=g.n, m=g.m)
    opts = SolveOptions(time_limit=time_limit)

    t = perf_counter()
    lb = obligatory_branch_bound(g)
    r.elapsed["bound"] = perf_counter() - t
    r.ob = lb.value

    t = perf_counter()
    d = decompose(g, lb)
    r.elapsed["decompose"] = perf_counter() - t
    r.ce = len(d.cut_edges)

    t = perf_counter()
    path_tree = path_expanding(g, lb)
    multi_tree = multi_path_expanding(g, lb)
    r.elapsed["heuristics"] = perf_counter() - t
    r.heur_path = path_tree.branches
    r.heur_multipath = multi_tree.branches
    r.heur_best = min(r.heur_path, r.heur_multipath)

    enhanced = solve_with_decomposition(g, opts)
    r.elapsed["enhanced"] = enhanced.elapsed
    r.lower_bound = enhanced.lower_bound
    r.upper_bound = enhanced.upper_bound
    r.gap_percent = enhanced.gap_percent
    r.optimal = enhanced.optimal

    plain = solve_plain(g, opts)
    r.elapsed["plain"] = plain.elapsed
    r.plain_lower_bound = plain.lower_bound
    r.plain_upper_bound = plain.upper_bound
    r.plain_gap_percent = plain.gap_percent
    r.plain_optimal = plain.optimal
    return r


def _bench_path(path: str, time_limit: float | None) -> Report:
    import logging

    log = logging.getLogger("mbv.bench")
    log.info("benchmarking %s", path)
    name = Path(path).stem
    try:
        g = load_graph(path)
        return bench_graph(name, g, time_limit)
    except (MbvError, OSError) as exc:
        log.warning("instance %s failed: %s", name, exc)
        return Report(instance=name, error=str(exc))


def bench(paths, time_limit: float | None = None, jobs: int = 1) -> list[Report]:
    """Benchmark every instance file; per-instance errors are recorded, not raised."""
    ordered = sorted(str(p) for p in paths)
    if jobs > 1 and len(ordered) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts every worker up front, so never ask for idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(ordered))) as pool:
            return list(pool.map(_bench_path, ordered, [time_limit] * len(ordered)))
    return [_bench_path(p, time_limit) for p in ordered]


def collect_instances(directory: str) -> list[str]:
    """All regular non-hidden files in a directory, sorted."""
    base = Path(directory)
    return sorted(
        str(p) for p in base.iterdir() if p.is_file() and not p.name.startswith(".")
    )


def _record_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def to_record(r: Report) -> str:
    """One machine-readable key=value line; elapsed_* fields are timing-dependent.

    The fields are Report's in declaration order, then elapsed_* by phase name,
    then the error if there is one.
    """
    parts = [
        f"{f.name}={_record_value(getattr(r, f.name))}"
        for f in dataclasses.fields(Report)
        if f.name not in ("elapsed", "error")
    ]
    parts += [f"elapsed_{phase}={r.elapsed[phase]:.6f}" for phase in sorted(r.elapsed)]
    if r.error is not None:
        escaped = r.error.replace('"', "'")
        parts.append(f'error="{escaped}"')
    return " ".join(parts)


def summarize(reports: list[Report]) -> dict:
    """Aggregate reduction and timing statistics over the successful reports."""
    good = [r for r in reports if r.error is None]
    total_n = sum(r.n for r in good)
    total_m = sum(r.m for r in good)
    return {
        "instances": len(reports),
        "failed": len(reports) - len(good),
        "ob_percent": 100.0 * sum(r.ob for r in good) / total_n if total_n else 0.0,
        "ce_percent": 100.0 * sum(r.ce for r in good) / total_m if total_m else 0.0,
        "optimal": sum(1 for r in good if r.optimal),
        "plain_optimal": sum(1 for r in good if r.plain_optimal),
        "enhanced_time": sum(r.elapsed.get("enhanced", 0.0) for r in good),
        "plain_time": sum(r.elapsed.get("plain", 0.0) for r in good),
    }


def to_json(reports: list[Report]) -> str:
    import json

    doc = {
        "reports": [dataclasses.asdict(r) for r in reports],
        "summary": summarize(reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# (header, alignment, Report field, number format); a bool prints yes/no
_TABLE_COLUMNS = (
    ("instance", "<24", "instance", ""),
    ("n", ">6", "n", ""),
    ("m", ">6", "m", ""),
    ("OB", ">5", "ob", ""),
    ("CE", ">5", "ce", ""),
    ("path", ">5", "heur_path", ""),
    ("multi", ">5", "heur_multipath", ""),
    ("LB", ">8", "lower_bound", ".2f"),
    ("UB", ">5", "upper_bound", ""),
    ("gap%", ">6", "gap_percent", ".1f"),
    ("opt", ">4", "optimal", ""),
    ("pLB", ">8", "plain_lower_bound", ".2f"),
    ("pUB", ">5", "plain_upper_bound", ""),
    ("pgap%", ">6", "plain_gap_percent", ".1f"),
    ("popt", ">4", "plain_optimal", ""),
)


def _table_cell(value, align: str, number: str) -> str:
    text = ("yes" if value else "no") if isinstance(value, bool) else format(value, number)
    return format(text, align)


def render_table(reports: list[Report]) -> str:
    """Human-readable summary table."""
    header = " ".join(format(name, align) for name, align, _, _ in _TABLE_COLUMNS)
    lines = [header, "-" * len(header)]
    for r in reports:
        if r.error is not None:
            lines.append(f"{r.instance:<24} error: {r.error}")
            continue
        row = (_table_cell(getattr(r, attr), align, num) for _, align, attr, num in _TABLE_COLUMNS)
        lines.append(" ".join(row))
    s = summarize(reports)
    lines.append(
        f"instances={s['instances']} failed={s['failed']} "
        f"ob_avg={s['ob_percent']:.1f}% ce_avg={s['ce_percent']:.1f}% "
        f"optimal={s['optimal']} plain_optimal={s['plain_optimal']}"
    )
    return "\n".join(lines) + "\n"
