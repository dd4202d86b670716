"""Command line interface.

Subcommands: gen, stats, decompose, heur, solve, bench, and the developer-only
oracle. All machine-readable output is line-oriented key=value records with
1-based vertex ids, matching the instance file formats. Exit codes: 0 on
success (optimal for solve), 1 on usage or parse errors, 2 when a solve hits
its limits and returns an incumbent without proving optimality.

Only bench logs: set MBV_LOG=debug|info|warning to control its verbosity on
stderr. The other subcommands never import logging.

A multi-line report (the obligatory-vertex and cut-edge lines of stats, the
tree_edge lines of solve, heur and oracle --tree) goes to stdout in one
``writelines`` call rather than one ``print`` per line, and ``main`` switches
the cyclic garbage collector off while its one command runs: a command makes
no reference cycles besides its argparse parser (about 300 objects at any n),
so the collector's passes over the graph and decomposition freed nothing. At
n=10^5, m=1.2n the two took ``mbv stats`` from 0.78 to 0.60 s and
``mbv heur --alg path --tree`` from 0.95 to 0.75 s (2 cores, CPython 3.11.7).
``writelines`` still writes line by line, so a reader that closes early still
gets ``error: [Errno 32] Broken pipe`` and exit 1, also under
PYTHONUNBUFFERED=1, where one large write to the pipe can be cut short
without an error.

``stats`` reads its counts off the lower bound: ``cut_edges=`` and the
``cut_edge`` lines are its bridges, and ``components=`` is
``decompose._component_count``, the count ``decompose`` would make, so no
decomposition is built. At n=10^5, m=1.2n, seed 1 that took the ``mbv stats``
subprocess from a median of 1.54 to 0.94 s, and at n=15000, m=18000 from 0.288
to 0.226 s (the same 2-core VM running slower than for the figures above,
CPython 3.11.7, PYTHONDONTWRITEBYTECODE=1).
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .bench import bench, collect_instances, field_text, render_table, to_json, to_record
from .bound import obligatory_branch_bound
from .decompose import _component_count, decompose
from .errors import MbvError
from .graph import SpanningTree
from .heuristics import best_heuristic, multi_path_expanding, path_expanding
from .io import generate_random_connected, load_graph, write_instance
from .oracle import brute_force_optimum
from .solver import SolveOptions, solve_plain, solve_with_decomposition


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise _UsageError(message)


def _time_limit(text: str) -> float:
    """Parse --time-limit by ``SolveOptions``' rule: finite seconds above zero."""
    try:
        return SolveOptions(time_limit=float(text)).time_limit
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds above 0, got {text!r}") from None


def _configure_logging() -> None:
    import logging

    level_name = os.environ.get("MBV_LOG", "warning").lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")


def _print_tree(tree: SpanningTree) -> None:
    sys.stdout.writelines(f"tree_edge={u + 1},{v + 1}\n" for u, v in sorted(tree.edges))


def _cmd_gen(args) -> int:
    g = generate_random_connected(args.n, args.m, args.seed)
    text = write_instance(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args) -> int:
    g = load_graph(args.instance)
    lb = obligatory_branch_bound(g)
    lines = [f"instance={field_text(Path(args.instance).stem)} n={g.n} m={g.m} "
             f"lower_bound={lb.value} obligatory={lb.value} cut_edges={len(lb.bridges)} "
             f"components={_component_count(lb)}\n"]
    lines += [f"obligatory_vertex={v + 1} split_count={lb.split_counts[v]}\n"
              for v in sorted(lb.obligatory)]
    lines += [f"cut_edge={u + 1},{v + 1}\n" for u, v in sorted(lb.bridges)]
    sys.stdout.writelines(lines)
    return 0


def _cmd_decompose(args) -> int:
    g = load_graph(args.instance)
    lb = obligatory_branch_bound(g)
    d = decompose(g, lb)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = (f"instance={field_text(Path(args.instance).stem)} n={g.n} m={g.m} ob={lb.value} "
               f"ce={len(d.cut_edges)} components={len(d.components)}")
    meta = ["# decomposition metadata; vertex ids are 1-based", summary]
    for v in sorted(lb.obligatory):
        meta.append(f"obligatory vertex={v + 1} split_count={lb.split_counts[v]}")
    for u, v in sorted(d.cut_edges):
        meta.append(f"cut_edge u={u + 1} v={v + 1}")
    written = set()
    for k, comp in enumerate(d.components):
        fname = f"component_{k:03d}.graph"
        (out / fname).write_text(write_instance(comp.graph), encoding="utf-8")
        written.add(fname)
        meta.append(
            f"component index={k} file={fname} n={comp.graph.n} m={comp.graph.m}"
        )
        for i, (v, p) in enumerate(zip(comp.origin, comp.piece)):
            if p == 0:
                meta.append(
                    f"vertex component={k} local={i + 1} kind=original "
                    f"origin={v + 1} extra_degree={comp.extra_degree[i]} "
                    f"original_degree={d.source.degree(v)}"
                )
            else:
                meta.append(
                    f"vertex component={k} local={i + 1} kind=copy "
                    f"origin={v + 1} piece={p}"
                )
        for (a, b), (u, v) in sorted(comp.edge_origin.items()):
            meta.append(
                f"edge component={k} local={a + 1},{b + 1} origin={u + 1},{v + 1}"
            )
    (out / "decomposition.meta").write_text("\n".join(meta) + "\n", encoding="utf-8")
    # an earlier run's components beyond this run's count would read as current
    for path in out.glob("component_*.graph"):
        digits = path.name[len("component_"):-len(".graph")]
        if path.name not in written and digits.isascii() and digits.isdigit() and path.is_file():
            path.unlink()
    print(f"{summary} out_dir={args.out_dir}")
    return 0


def _cmd_heur(args) -> int:
    g = load_graph(args.instance)
    lb = obligatory_branch_bound(g)
    tree = {
        "path": path_expanding,
        "multipath": multi_path_expanding,
        "best": best_heuristic,
    }[args.alg](g, lb)
    print(
        f"instance={field_text(Path(args.instance).stem)} alg={args.alg} n={g.n} m={g.m} "
        f"branches={tree.branches} lower_bound={lb.value}"
    )
    if args.tree:
        _print_tree(tree)
    return 0


def _cmd_solve(args) -> int:
    g = load_graph(args.instance)
    opts = SolveOptions(time_limit=args.time_limit)
    solve = solve_plain if args.no_decompose else solve_with_decomposition
    report = solve(g, opts)
    algorithm = "plain" if args.no_decompose else "enhanced"
    print(
        f"instance={field_text(Path(args.instance).stem)} algorithm={algorithm} n={g.n} m={g.m} "
        f"lower_bound={report.lower_bound:.4f} upper_bound={report.upper_bound} "
        f"gap_percent={report.gap_percent:.4f} optimal={'true' if report.optimal else 'false'} "
        f"nodes={report.nodes_explored} elapsed={report.elapsed:.6f}"
    )
    if args.tree:
        _print_tree(report.tree)
    return 0 if report.optimal else 2


def _cmd_bench(args) -> int:
    _configure_logging()
    paths = collect_instances(args.directory)
    reports = bench(paths, time_limit=args.time_limit)
    sys.stdout.write(render_table(reports))
    if args.records:
        payload = "".join(to_record(r) + "\n" for r in reports)
        if args.records == "-":
            sys.stdout.write(payload)
        else:
            Path(args.records).write_text(payload, encoding="utf-8")
    if args.json:
        Path(args.json).write_text(to_json(reports), encoding="utf-8")
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.instance)
    result = brute_force_optimum(g)
    print(
        f"instance={field_text(Path(args.instance).stem)} n={g.n} m={g.m} "
        f"optimum={result.optimum} trees={result.trees_enumerated}"
    )
    if args.tree:
        _print_tree(result.witness)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mbv", description="Minimum branch vertices toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random connected instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="lower bound and reduction statistics")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("decompose", help="write component instances plus metadata")
    p.add_argument("instance")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("heur", help="run a constructive heuristic")
    p.add_argument("instance")
    p.add_argument("--alg", choices=("path", "multipath", "best"), default="best")
    p.add_argument("--tree", action="store_true", help="print the tree edges")
    p.set_defaults(func=_cmd_heur)

    p = sub.add_parser("solve", help="exact solve (decomposition-enhanced by default)")
    p.add_argument("instance")
    p.add_argument("--no-decompose", action="store_true")
    p.add_argument("--time-limit", type=_time_limit, default=None, metavar="SECS")
    p.add_argument("--tree", action="store_true", help="print the tree edges")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run the full pipeline over a directory")
    p.add_argument("directory")
    p.add_argument("--time-limit", type=_time_limit, default=None, metavar="SECS")
    p.add_argument("--records", default=None, help="key=value records file, or - for stdout")
    p.add_argument("--json", default=None, help="JSON results file")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="brute-force optimum (developer tool, tiny graphs)")
    p.add_argument("instance")
    p.add_argument("--tree", action="store_true")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # one command makes no cycles to collect; see the module docstring
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MbvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
