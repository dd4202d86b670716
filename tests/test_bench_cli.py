import concurrent.futures
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mbv import bench, generate_random_connected, write_instance
from mbv.bench import bench_graph, collect_instances, render_table, summarize, to_json, to_record
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
    assert 'error="' in to_record(reports[0])
    rows = render_table(reports).splitlines()
    assert rows[2].startswith("binary") and f"error: {reports[0].error}" in rows[2]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool size, starts nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        _SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_bench_pool_never_exceeds_instance_count(tmp_path, monkeypatch):
    # bench imports the pool class where it starts one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.sizes = []
    d = make_dir(tmp_path, count=3, n=8, m=9)
    reports = bench(collect_instances(str(d)), jobs=64)
    assert _SerialPool.sizes == [3]
    assert [r.instance for r in reports] == ["inst_0", "inst_1", "inst_2"]
    bench(collect_instances(str(d)), jobs=2)
    assert _SerialPool.sizes == [3, 2]


def test_bench_logs_each_instance_with_or_without_a_pool(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    d = make_dir(tmp_path, count=2, n=8, m=9)
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="mbv.bench"):
            bench(collect_instances(str(d)), jobs=jobs)
        logged = [r.getMessage() for r in caplog.records]
        assert logged == [f"benchmarking {d / name}" for name in ("inst_0.graph", "inst_1.graph")]


def test_bench_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    assert bench(collect_instances(str(d))) == []


def test_bench_worker_pool(tmp_path):
    d = make_dir(tmp_path, count=2, n=10, m=12)
    serial = bench(collect_instances(str(d)), jobs=1)
    parallel = bench(collect_instances(str(d)), jobs=2)
    assert [r.instance for r in serial] == [r.instance for r in parallel]
    assert [r.upper_bound for r in serial] == [r.upper_bound for r in parallel]


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

    code, out, _ = run_cli(capsys, "solve", str(inst), "--no-decompose", "--no-warm-start")
    assert code == 0

    code, out, _ = run_cli(capsys, "oracle", str(inst))
    assert code == 0
    assert "optimum=" in out


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
    assert run_cli(capsys, "bench", str(tmp_path), "--jobs", "0")[0] == 1
    assert run_cli(capsys, "bench", str(tmp_path), "--jobs", "-2")[0] == 1
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
    # the process pool, logging and json serve only ``mbv bench``; every
    # other command would pay for importing them at start-up
    inst = tmp_path / "g.graph"
    inst.write_text(write_instance(generate_random_connected(12, 15, seed=1)), encoding="utf-8")
    proc = _fresh_python(_STARTUP_PROBE, inst)
    assert proc.stderr.splitlines() == ["import", "solve", "stats"]


def test_cli_bench_logs_each_instance_from_pool_workers(tmp_path):
    d = make_dir(tmp_path, count=2, n=8, m=9)
    proc = _fresh_python(
        "import sys; from mbv.cli import main; sys.exit(main(sys.argv[1:]))",
        "bench", d, "--jobs", "2", MBV_LOG="info",
    )
    assert proc.returncode == 0
    assert sorted(proc.stderr.splitlines()) == [
        f"mbv.bench: benchmarking {d / name}" for name in ("inst_0.graph", "inst_1.graph")
    ]
