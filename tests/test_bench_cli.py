import errno
import gc
import io
import json
import logging
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mbv import (
    bench,
    build_graph,
    decompose,
    generate_random_connected,
    obligatory_branch_bound,
    write_instance,
)
from mbv.bench import (
    Report,
    bench_graph,
    collect_instances,
    render_table,
    summarize,
    to_json,
    to_record,
)
from mbv import cli
from mbv.cli import main


def make_dir(tmp_path, count=3, n=14, m=17):
    d = tmp_path / "instances"
    d.mkdir()
    for i in range(count):
        g = generate_random_connected(n, m, seed=100 + i)
        (d / f"inst_{i}.graph").write_text(write_instance(g), encoding="utf-8")
    return d


def test_bench_reports(tmp_path):
    d = make_dir(tmp_path)
    reports = bench(collect_instances(str(d)), time_limit=30.0)
    assert len(reports) == 3
    for r in reports:
        assert r.error is None
        assert r.optimal and r.plain_optimal
        assert r.upper_bound == r.plain_upper_bound
        assert r.heur_best == min(r.heur_path, r.heur_multipath)
        assert r.heur_best >= r.upper_bound
        assert set(r.elapsed) == {"bound", "decompose", "heuristics", "enhanced", "plain"}


def test_bench_records_round_trip(tmp_path):
    d = make_dir(tmp_path, count=2)
    reports = bench(collect_instances(str(d)))
    for r in reports:
        record = to_record(r)
        fields = dict(part.split("=", 1) for part in record.split())
        assert fields["instance"] == r.instance
        assert int(fields["upper_bound"]) == r.upper_bound
        recomputed = (
            100.0
            * (float(fields["upper_bound"]) - float(fields["lower_bound"]))
            / float(fields["upper_bound"])
            if float(fields["upper_bound"]) > 0
            else 0.0
        )
        assert abs(recomputed - float(fields["gap_percent"])) < 0.1


def test_bench_summary_consistency(tmp_path):
    d = make_dir(tmp_path)
    reports = bench(collect_instances(str(d)))
    s = summarize(reports)
    total_n = sum(r.n for r in reports)
    total_m = sum(r.m for r in reports)
    assert s["ob_percent"] == pytest.approx(100.0 * sum(r.ob for r in reports) / total_n)
    assert s["ce_percent"] == pytest.approx(100.0 * sum(r.ce for r in reports) / total_m)
    assert "instances" in render_table(reports)
    doc = json.loads(to_json(reports))
    assert len(doc["reports"]) == 3
    assert doc["summary"]["failed"] == 0


def test_bench_continues_past_bad_instance(tmp_path):
    d = make_dir(tmp_path, count=2)
    (d / "broken.graph").write_text("not a header\n", encoding="utf-8")
    reports = bench(collect_instances(str(d)))
    assert len(reports) == 3
    bad = [r for r in reports if r.error is not None]
    assert len(bad) == 1
    assert bad[0].instance == "broken"


def test_bench_records_non_utf8_instance(tmp_path):
    d = make_dir(tmp_path, count=1)
    (d / "binary.graph").write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    reports = bench(collect_instances(str(d)))
    assert [r.instance for r in reports] == ["binary", "inst_0"]
    assert "not UTF-8" in reports[0].error
    assert reports[1].error is None and reports[1].optimal
    # a failed instance's record holds no measured field, not even a zero
    assert to_record(reports[0]) == f'instance=binary error="{reports[0].error}"'
    assert json.loads(to_json(reports))["reports"][0] == {
        "error": reports[0].error,
        "instance": "binary",
    }
    rows = render_table(reports).splitlines()
    assert rows[2].startswith("binary") and f"error: {reports[0].error}" in rows[2]


def test_bench_table_fits_a_long_instance_name():
    g = generate_random_connected(8, 9, seed=1)
    long_name = "a_thirty_character_name_here_x"
    assert len(long_name) == 30
    reports = [bench_graph(long_name, g), bench_graph("short", g), Report("broken", error="bad")]
    header, _, long_row, short_row, error_row, _ = render_table(reports).splitlines()
    # the instance column is as wide as the longest name, error rows included
    assert header.startswith(f"{'instance':<30} ") and long_row.startswith(f"{long_name} ")
    assert error_row == f"{'broken':<30} error: bad"

    def column_ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)]

    # every column after the instance names is right-aligned, so a cell sits
    # under its header exactly when the two end in the same place
    assert column_ends(long_row)[1:] == column_ends(short_row)[1:] == column_ends(header)[1:]
    assert len(long_row) == len(short_row) == len(header)


def test_bench_logs_each_instance(tmp_path, caplog):
    d = make_dir(tmp_path, count=2, n=8, m=9)
    with caplog.at_level(logging.INFO, logger="mbv.bench"):
        bench(collect_instances(str(d)))
    logged = [r.getMessage() for r in caplog.records]
    assert logged == [f"benchmarking {d / name}" for name in ("inst_0.graph", "inst_1.graph")]


def test_bench_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    assert bench(collect_instances(str(d))) == []


def test_bench_graph_values_match_direct(tmp_path):
    g = generate_random_connected(12, 14, seed=5)
    r = bench_graph("x", g)
    assert r.n == 12 and r.m == 14
    assert r.optimal and r.plain_optimal
    assert r.upper_bound == r.plain_upper_bound


# --- CLI ---


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_gen_stats_heur_solve_oracle(tmp_path, capsys):
    inst = tmp_path / "g.graph"
    code, out, _ = run_cli(capsys, "gen", "--n", "10", "--m", "13", "--seed", "7", "--out", str(inst))
    assert code == 0
    assert inst.exists()

    code, out, _ = run_cli(capsys, "stats", str(inst))
    assert code == 0
    assert "lower_bound=" in out

    code, out, _ = run_cli(capsys, "heur", str(inst), "--alg", "best", "--tree")
    assert code == 0
    assert out.count("tree_edge=") == 9

    code, out, _ = run_cli(capsys, "solve", str(inst))
    assert code == 0
    assert "optimal=true" in out

    code, out, _ = run_cli(capsys, "solve", str(inst), "--no-decompose")
    assert code == 0

    code, out, _ = run_cli(capsys, "oracle", str(inst))
    assert code == 0
    assert "optimum=" in out


def _stats_report(capsys, tmp_path, g):
    """``mbv stats`` of g: its components= and cut_edges= counts and cut_edge= lines."""
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(g), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", str(inst))
    assert (code, err) == (0, "")
    first, *rest = out.splitlines()
    fields = dict(field.split("=") for field in first.split())
    return (int(fields["components"]), int(fields["cut_edges"]),
            [line for line in rest if line.startswith("cut_edge=")])


def test_stats_counts_match_the_decomposition(tmp_path, capsys, k24, two_triangles):
    # stats reads its counts off the bound; decompose builds the components
    graphs = [build_graph(1, ()), build_graph(2, [(0, 1)]),
              build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
              build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
              build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), k24, two_triangles]
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randrange(5, 41)
        m = min(n * (n - 1) // 2, n - 1 + rng.randrange(0, n // 2 + 1))
        graphs.append(generate_random_connected(n, m, rng.randrange(10**6)))
    split = 0
    for g in graphs:
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        split += lb.value > 0 and len(lb.bridges) > 0
        cut = [f"cut_edge={u + 1},{v + 1}" for u, v in sorted(d.cut_edges)]
        assert _stats_report(capsys, tmp_path, g) == (len(d.components), len(d.cut_edges), cut)
    assert split >= 10  # many graphs exercise both reductions at once


def test_cli_solve_agrees_with_oracle(tmp_path, capsys):
    inst = tmp_path / "g.graph"
    run_cli(capsys, "gen", "--n", "9", "--m", "12", "--seed", "3", "--out", str(inst))
    code, out, _ = run_cli(capsys, "oracle", str(inst))
    optimum = int(re.search(r"optimum=(\d+)", out).group(1))
    code, out, _ = run_cli(capsys, "solve", str(inst))
    assert int(re.search(r"upper_bound=(\d+)", out).group(1)) == optimum


def test_cli_decompose_writes_components(tmp_path, capsys):
    inst = tmp_path / "g.graph"
    run_cli(capsys, "gen", "--n", "14", "--m", "16", "--seed", "11", "--out", str(inst))
    out_dir = tmp_path / "parts"
    code, out, _ = run_cli(capsys, "decompose", str(inst), "--out-dir", str(out_dir))
    assert code == 0
    meta = (out_dir / "decomposition.meta").read_text(encoding="utf-8")
    k = int(re.search(r"components=(\d+)", meta).group(1))
    files = sorted(out_dir.glob("component_*.graph"))
    assert len(files) == k
    assert "cut_edge" in meta or "ce=0" in meta


def test_cli_decompose_removes_an_earlier_runs_components(tmp_path, capsys):
    # 22 components and then 4 into one directory: what is left is what the
    # meta lists, and only component_<digits>.graph files are ever removed
    out_dir = tmp_path / "parts"
    counts = []
    for n, m, seed in ((30, 33, 3), (6, 7, 1)):
        inst = tmp_path / f"g{n}.graph"
        inst.write_text(write_instance(generate_random_connected(n, m, seed)), encoding="utf-8")
        assert run_cli(capsys, "decompose", str(inst), "--out-dir", str(out_dir))[0] == 0
        meta = (out_dir / "decomposition.meta").read_text(encoding="utf-8")
        listed = re.findall(r" file=(\S+)", meta)
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(listed + ["decomposition.meta"])
        counts.append(len(listed))
    assert counts == [22, 4]
    kept = ["component_00x.graph", "component_001.txt", "notes.txt"]
    for name in kept:
        (out_dir / name).write_text("keep\n", encoding="utf-8")
    (out_dir / "component_999.graph").write_text("stale\n", encoding="utf-8")
    assert run_cli(capsys, "decompose", str(inst), "--out-dir", str(out_dir))[0] == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        listed + kept + ["decomposition.meta"])


def test_cli_timeout_exit_code(tmp_path, capsys):
    inst = tmp_path / "k24.graph"
    from mbv import build_graph

    k24 = build_graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)])
    inst.write_text(write_instance(k24), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", str(inst), "--no-decompose", "--time-limit", "0.000000001")
    assert code == 2
    assert "optimal=false" in out


def test_cli_huge_time_limit(tmp_path, capsys):
    # a limit near the float maximum must survive being split across components
    cycle = tmp_path / "c6.graph"
    cycle.write_text("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", str(cycle), "--time-limit", "1e308")
    assert code == 0 and "upper_bound=0 " in out and "optimal=true" in out
    code, out, _ = run_cli(capsys, "bench", str(tmp_path), "--time-limit", "1e308")
    assert code == 0 and "failed=0" in out


@pytest.mark.parametrize("name, field, parsed", [
    ("my graph.txt", 'instance="my graph"', "my graph"),
    ("a=b.graph", 'instance="a=b"', "a=b"),
    ('say "hi".graph', "instance=\"say 'hi'\"", "say 'hi'"),
    ("a\nb.graph", 'instance="a b"', "a b"),
    ("plain.graph", "instance=plain", "plain"),
])
def test_instance_name_is_one_field(tmp_path, capsys, name, field, parsed):
    # a stem holding whitespace, '=' or '"' is quoted, with each line break a
    # space, so a field parser still reads one instance field on the report's
    # first line; a plain stem is written bare as before
    d = tmp_path / "d"
    d.mkdir()
    inst = d / name
    inst.write_text(write_instance(generate_random_connected(6, 7, seed=1)), encoding="utf-8")
    commands = [["stats"], ["solve"], ["heur"], ["oracle"],
                ["decompose", "--out-dir", str(tmp_path / "parts")]]
    firsts = []
    for argv in commands:
        code, out, _ = run_cli(capsys, argv[0], str(inst), *argv[1:])
        assert code == 0
        firsts.append(out.split("\n", 1)[0])
    code, out, _ = run_cli(capsys, "bench", str(d), "--records", "-")
    assert code == 0
    firsts.append(out.splitlines()[-1])
    firsts.append(to_record(Report(instance=inst.stem, error="unreadable")))
    for first in firsts:
        assert first.startswith(field + " ")
        fields = dict(tok.split("=", 1) for tok in shlex.split(first))
        assert fields["instance"] == parsed
    assert fields["error"] == "unreadable"


def test_solve_refuses_the_removed_cold_start_flag(tmp_path, capsys):
    # every solve starts from the heuristic tree; there is no switch for it
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(generate_random_connected(6, 7, seed=1)), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(inst), "--no-warm-start")
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --no-warm-start\n"


def test_bench_refuses_the_removed_jobs_flag(tmp_path, capsys):
    # bench runs its instances one at a time in one process; there is no pool to size
    code, out, err = run_cli(capsys, "bench", str(tmp_path), "--jobs", "2")
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --jobs 2\n"


def test_a_line_break_in_an_error_stays_on_one_line(tmp_path, capsys, caplog):
    # every character str.splitlines() breaks at is a space inside the quotes,
    # so a failed instance's record, its table row and its warning are one line
    d = tmp_path / "d"
    d.mkdir()
    (d / "e\nf.graph").write_text("\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="mbv.bench"):
        code, out, _ = run_cli(capsys, "bench", str(d), "--records", "-")
    assert code == 0
    error = f"{d}/e f.graph: empty instance"
    assert [r.getMessage() for r in caplog.records] == [f'instance "e f" failed: "{error}"']
    assert out.splitlines()[2:] == [f"{'e f':<24} error: {error}",
                                    "instances=1 failed=1 ob_avg=0.0% ce_avg=0.0% "
                                    "optimal=0 plain_optimal=0",
                                    f'instance="e f" error="{error}"']
    breaks = [chr(c) for c in range(0x110000) if len(f"x{chr(c)}y".splitlines()) > 1]
    assert len(breaks) == 10
    for ch in breaks:
        record = to_record(Report(instance=f"x{ch}y", error=f"bad{ch}\"line\""))
        assert record == 'instance="x y" error="bad \'line\'"'


def test_cli_usage_and_parse_errors(tmp_path, capsys):
    assert run_cli(capsys, "gen", "--n", "5")[0] == 1  # missing required options
    bad = tmp_path / "bad.graph"
    bad.write_text("oops\n", encoding="utf-8")
    assert run_cli(capsys, "stats", str(bad))[0] == 1
    assert run_cli(capsys, "stats", str(tmp_path / "missing.graph"))[0] == 1
    for header in ("-3 0\n", "3 -1\n", "p edge -3 0\n"):
        negative = tmp_path / "negative.graph"
        negative.write_text(header, encoding="utf-8")
        code, out, err = run_cli(capsys, "stats", str(negative))
        assert code == 1 and out == "" and err.startswith("error: negative count")
    assert run_cli(capsys, "gen", "--n", "4", "--m", "99", "--seed", "1")[0] == 1
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    for command in ("stats", "solve"):
        code, out, err = run_cli(capsys, command, str(binary))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "binary.graph" in err
    instance = tmp_path / "ok.graph"
    instance.write_text("3 2\n1 2\n2 3\n", encoding="utf-8")
    for limit in ("nan", "inf", "-inf", "-1", "0", "soon"):
        for argv in (("solve", str(instance)), ("bench", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv, f"--time-limit={limit}")
            assert code == 1 and out == ""
            assert err.startswith("usage error: argument --time-limit: must be a finite number")
    assert run_cli(capsys, "solve", str(instance), "--time-limit", "1e-9")[0] in (0, 2)
    disconnected = tmp_path / "disc.graph"
    disconnected.write_text("4 2\n1 2\n3 4\n", encoding="utf-8")
    assert run_cli(capsys, "stats", str(disconnected))[0] == 1
    assert run_cli(capsys, "solve", str(disconnected))[0] == 1
    wrong_format = tmp_path / "wrong.col"
    wrong_format.write_text("p col 3 2\ne 1 2\ne 2 3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", str(wrong_format))
    assert code == 1 and out == "" and err.startswith("error: expected 'p edge n m'")
    empty = tmp_path / "empty.graph"
    empty.write_text("0 0\n", encoding="utf-8")
    for command in ("stats", "solve"):
        code, out, err = run_cli(capsys, command, str(empty))
        assert code == 1 and out == ""
        assert err == "error: lower bound needs a connected graph, but the graph has no vertices\n"
    blank = tmp_path / "blank.graph"
    blank.write_text("\n  \n\n", encoding="utf-8")
    assert run_cli(capsys, "stats", str(blank)) == (1, "", f"error: {blank}: empty instance\n")


def test_cli_bench(tmp_path, capsys):
    d = make_dir(tmp_path, count=2, n=10, m=12)
    records = tmp_path / "records.txt"
    out_json = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "bench", str(d), "--records", str(records), "--json", str(out_json)
    )
    assert code == 0
    assert "instances=2" in out
    lines = records.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("instance=inst_") for line in lines)
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["summary"]["instances"] == 2


def test_cli_bench_empty_dir(tmp_path, capsys):
    d = tmp_path / "none"
    d.mkdir()
    code, out, _ = run_cli(capsys, "bench", str(d), "--records", "-")
    assert code == 0


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code, *argv, **env):
    """Run ``code`` in a new interpreter that imports mbv from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True,
        text=True,
        timeout=60,
    )


_STARTUP_PROBE = """
import sys
HEAVY = ("concurrent.futures", "multiprocessing", "logging", "json")
before = set(sys.modules)
def loaded(stage):
    print(stage, *[m for m in HEAVY if m in sys.modules and m not in before], file=sys.stderr)
import mbv
loaded("import")
from mbv.cli import main
for command in ("solve", "stats"):
    main([command, sys.argv[1]])
    loaded(command)
"""


def test_cli_commands_start_without_the_bench_runners_modules(tmp_path):
    # logging and json serve only ``mbv bench``, and no command starts a
    # process pool; every other command would pay for importing them at start-up
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(generate_random_connected(12, 15, seed=1)), encoding="utf-8")
    proc = _fresh_python(_STARTUP_PROBE, inst)
    assert proc.stderr.splitlines() == ["import", "solve", "stats"]


def test_cli_bench_logs_each_instance_in_file_order(tmp_path):
    d = make_dir(tmp_path, count=2, n=8, m=9)
    proc = _fresh_python(
        "import sys; from mbv.cli import main; sys.exit(main(sys.argv[1:]))",
        "bench", d, MBV_LOG="info",
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        f"mbv.bench: benchmarking {d / name}" for name in ("inst_0.graph", "inst_1.graph")
    ]


@pytest.mark.parametrize("collecting", [True, False])
def test_cli_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(generate_random_connected(12, 15, seed=1)), encoding="utf-8")
    bad = tmp_path / "bad.graph"
    bad.write_text("oops\n", encoding="utf-8")
    during = []
    real_load = cli.load_graph

    def load_graph(path):
        during.append(gc.isenabled())
        return real_load(path)

    monkeypatch.setattr(cli, "load_graph", load_graph)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        # a success, a usage error and an MbvError
        for argv, code in ((["stats", str(inst)], 0), (["gen", "--n", "5"], 1),
                           (["stats", str(bad)], 1)):
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


class _PipeClosedAfterOneLine(io.StringIO):
    """A stdout whose reader goes away once it has read the first line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)


@pytest.mark.parametrize("argv", [["stats"], ["heur", "--alg", "path", "--tree"]])
def test_cli_report_to_a_closed_pipe_is_an_error(tmp_path, capsys, monkeypatch, argv):
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(generate_random_connected(200, 240, seed=1)), encoding="utf-8")
    stdout = _PipeClosedAfterOneLine()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main([argv[0], str(inst), *argv[1:]])
    assert code == 1 and stdout.getvalue().startswith("instance=g ")
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_cli_large_report_to_a_reader_that_closes_early(tmp_path, unbuffered):
    # about 280 KB of tree_edge lines, far more than a pipe holds; under
    # PYTHONUNBUFFERED=1 stdout writes straight to the pipe, so a report
    # handed over in one write would lose its tail without an error
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(generate_random_connected(14000, 16800, seed=1)),
                    encoding="utf-8")
    err = tmp_path / "err.txt"
    with err.open("w", encoding="utf-8") as err_file:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mbv.cli", "heur", str(inst), "--alg", "path", "--tree"],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=err_file,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert first.startswith(b"instance=g alg=path n=14000 ")
    assert (code, err.read_text(encoding="utf-8")) == (1, "error: [Errno 32] Broken pipe\n")
