"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 8 needs the original benchmark instance files and is skipped unless
MBV_INSTANCE_DIR points at a directory containing them.
"""
import os
import re
import time
from pathlib import Path

import pytest

from mbv import (
    SolveOptions,
    branch_count,
    brute_force_optimum,
    build_graph,
    decompose,
    enumerate_spanning_trees,
    generate_random_connected,
    is_spanning_tree,
    load_graph,
    multi_path_expanding,
    obligatory_branch_bound,
    path_expanding,
    recombine,
    solve_component,
    solve_plain,
    solve_with_decomposition,
    write_instance,
)
from mbv.cli import main as cli_main


def verdict(num, ok, detail):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def suite_instances():
    out = []
    for i in range(200):
        n = 5 + i % 6
        m = min(n * (n - 1) // 2, (n - 1) + i % 7)
        out.append(generate_random_connected(n, m, seed=10_000 + i))
    return out


@pytest.fixture(scope="module")
def solved_suite():
    t0 = time.perf_counter()
    rows = []
    for g in suite_instances():
        rows.append(
            {
                "g": g,
                "oracle": brute_force_optimum(g),
                "plain": solve_plain(g),
                "enhanced": solve_with_decomposition(g),
            }
        )
    return rows, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(solved_suite):
    rows, elapsed = solved_suite
    failures = 0
    for row in rows:
        g, oracle, plain, enhanced = row["g"], row["oracle"], row["plain"], row["enhanced"]
        ok = (
            plain.optimal
            and enhanced.optimal
            and plain.upper_bound == enhanced.upper_bound == oracle.optimum
            and is_spanning_tree(g, plain.tree.edges)
            and is_spanning_tree(g, enhanced.tree.edges)
            and plain.tree.branches == oracle.optimum
            and branch_count(g.n, enhanced.tree.edges) == oracle.optimum
            and is_spanning_tree(g, oracle.witness.edges)
        )
        failures += not ok
    verdict(
        1,
        failures == 0 and elapsed < 60.0,
        f"plain = enhanced = oracle on {len(rows)} instances "
        f"({failures} mismatches, solved + checked in {elapsed:.1f}s)",
    )


def test_criterion_2_decomposition_identity(solved_suite):
    rows, _ = solved_suite
    failures = 0
    for row in rows:
        g = row["g"]
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        reports = [solve_component(c) for c in d.components]
        total = lb.value + sum(r.upper_bound for r in reports)
        tree = recombine(d, [r.tree.edges for r in reports])
        ok = (
            all(r.optimal for r in reports)
            and total == row["plain"].upper_bound
            and tree.branches == total
        )
        failures += not ok
    verdict(
        2,
        failures == 0,
        f"obligatory count plus component optima equals the plain optimum on "
        f"{len(rows)} instances ({failures} mismatches)",
    )


def test_criterion_3_bound_soundness_and_necessity(solved_suite):
    rows, _ = solved_suite
    failures = 0
    for row in rows:
        g = row["g"]
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        if lb.value > row["oracle"].optimum:
            failures += 1
            continue
        bad = []

        def check(tree):
            for v in lb.obligatory:
                if sum(1 for a, b in tree if v in (a, b)) < 3:
                    bad.append(("degree", v))
            if not d.cut_edges <= tree:
                bad.append(("bridge", None))

        enumerate_spanning_trees(g, check)
        failures += bool(bad)
    verdict(
        3,
        failures == 0,
        f"bound below optimum; obligatory degree >= 3 and every cut edge present "
        f"in 100% of enumerated trees on {len(rows)} instances "
        f"({failures} violations)",
    )


def test_criterion_4_non_tightness_witness():
    t0 = time.perf_counter()
    k24 = build_graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)])
    lb = obligatory_branch_bound(k24)
    optimum = brute_force_optimum(k24).optimum
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        lb.value == 0 and optimum == 1 and elapsed < 1.0,
        f"K_2,4 lower bound {lb.value} < optimum {optimum} in {elapsed:.3f}s",
    )


def test_criterion_5_heuristic_validity_and_quality():
    t0 = time.perf_counter()
    invalid = 0
    small_total = 0
    small_close = 0
    for i in range(1000):
        bucket = i % 10
        if bucket < 6:
            n = 5 + i % 8
        elif bucket < 9:
            n = 20 + 3 * (i % 60)
        else:
            n = 1000 - 9 * (i // 10 % 100)  # 100 sizes from 1000 down to 109
        m = min(n * (n - 1) // 2, n - 1 + i % 6)
        g = generate_random_connected(n, m, seed=50_000 + i)
        lb = obligatory_branch_bound(g)
        trees = [path_expanding(g, lb), multi_path_expanding(g, lb)]
        for tree in trees:
            if not is_spanning_tree(g, tree.edges) or tree.branches < lb.value:
                invalid += 1
        if bucket < 6:
            small_total += 1
            best = min(t.branches for t in trees)
            if best <= brute_force_optimum(g).optimum + 2:
                small_close += 1
    elapsed = time.perf_counter() - t0
    ratio = small_close / small_total
    verdict(
        5,
        invalid == 0 and ratio >= 0.90 and elapsed < 120.0,
        f"1000 instances, {invalid} invalid trees; best heuristic within +2 of "
        f"optimum on {100 * ratio:.1f}% of {small_total} enumerable instances "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_preprocessing_speed():
    g = generate_random_connected(1000, 1200, seed=42)
    obligatory_branch_bound(g)  # warm the code paths once
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        lb = obligatory_branch_bound(g)
        decompose(g, lb)
        path_expanding(g, lb)
        multi_path_expanding(g, lb)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    verdict(
        6,
        best < 0.1,
        f"bound + decompose + both heuristics on n=1000 m=1200 in {1000 * best:.1f} ms",
    )


def test_criterion_7_enhanced_faster_trend():
    total_enhanced = total_plain = 0.0
    mismatches = 0
    for i in range(30):
        g = generate_random_connected(60, 66, seed=2000 + i)
        opts = SolveOptions(time_limit=10.0)
        enhanced = solve_with_decomposition(g, opts)
        plain = solve_plain(g, opts)
        total_enhanced += enhanced.elapsed
        total_plain += plain.elapsed
        if not (enhanced.optimal and plain.optimal and enhanced.upper_bound == plain.upper_bound):
            mismatches += 1
    verdict(
        7,
        mismatches == 0 and total_enhanced <= total_plain,
        f"30 instances at n=60: enhanced {total_enhanced:.1f}s vs plain "
        f"{total_plain:.1f}s, {mismatches} optimum mismatches",
    )


def _find_instances(root, pattern):
    return sorted(p for p in Path(root).rglob("*") if p.is_file() and re.match(pattern, p.name))


def test_criterion_8_published_benchmarks():
    root = os.environ.get("MBV_INSTANCE_DIR")
    if not root or not Path(root).is_dir():
        pytest.skip("original benchmark instance files not available (set MBV_INSTANCE_DIR)")
    checked = []
    spd = _find_instances(root, r"Spd_RF2_400_519_4731")
    if spd:
        g = load_graph(str(spd[0]))
        lb = obligatory_branch_bound(g)
        d = decompose(g, lb)
        report = solve_with_decomposition(g, SolveOptions(time_limit=600.0))
        ok = lb.value == 52 and len(d.cut_edges) == 155 and report.optimal and report.upper_bound == 70
        checked.append(("Spd_RF2_400_519_4731", ok))
    # these families are known to admit branch-free spanning trees
    branch_free = _find_instances(root, r"(steind1[1-5]|le450_.*)")
    for path in branch_free:
        g = load_graph(str(path))
        report = solve_with_decomposition(g, SolveOptions(time_limit=600.0))
        checked.append((path.name, report.optimal and report.upper_bound == 0))
    if not checked:
        pytest.skip("no recognized benchmark files under MBV_INSTANCE_DIR")
    bad = [name for name, ok in checked if not ok]
    verdict(8, not bad, f"published benchmark values reproduced on {len(checked)} files, failures: {bad}")


def _strip_timing(text):
    return re.sub(r"\S*elapsed\S*=\S+", "", text)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    inst = tmp_path / "d.graph"
    g = generate_random_connected(16, 19, seed=77)
    inst.write_text(write_instance(g), encoding="utf-8")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for i in range(2):
        h = generate_random_connected(10, 12, seed=300 + i)
        (bench_dir / f"b{i}.graph").write_text(write_instance(h), encoding="utf-8")

    commands = [
        ("gen", ["gen", "--n", "12", "--m", "15", "--seed", "4"]),
        ("stats", ["stats", str(inst)]),
        ("heur", ["heur", str(inst), "--alg", "best", "--tree"]),
        ("solve", ["solve", str(inst), "--tree"]),
        ("solve-plain", ["solve", str(inst), "--no-decompose", "--tree"]),
        ("oracle", ["oracle", str(inst), "--tree"]),
        ("bench", ["bench", str(bench_dir), "--records", "-"]),
    ]
    diffs = []
    for name, argv in commands:
        outs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, f"{name} exited {code}: {captured.err}"
            outs.append(_strip_timing(captured.out))
        if outs[0] != outs[1]:
            diffs.append(name)

    # decompose writes files; the two runs must produce identical bytes
    for run in ("a", "b"):
        code = cli_main(["decompose", str(inst), "--out-dir", str(tmp_path / run)])
        capsys.readouterr()
        assert code == 0
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    if [p.name for p in files_a] != [p.name for p in files_b] or any(
        a.read_bytes() != b.read_bytes() for a, b in zip(files_a, files_b)
    ):
        diffs.append("decompose-files")
    verdict(9, not diffs, f"byte-identical reruns for all subcommands, diffs: {diffs}")
