"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import random
import time

import numpy as np
import pytest
from conftest import grid_graph, random_connected_graph

from graphshrink import (
    DistanceMatrix,
    SolveParams,
    UNBOUNDED,
    apsp_dijkstra,
    disassemble,
    edge_delta,
    floyd_warshall,
    path_weight,
    reconstruct_path,
    remove_and_preserve,
    solve,
    write_dimacs,
)
from graphshrink.cli import main as cli_main

PARAM_SETTINGS = [
    SolveParams(),                                   # everything unbounded
    SolveParams(d_max=3, i_max=0, n_min=1),
    # n_min filled per instance: SolveParams(d_max=2, n_min=max(1, n // 2))
]

N_INSTANCES = 200


def _instance(idx: int):
    rng = random.Random(idx)
    n = rng.randint(4, 120)
    wmax = 0 if idx % 10 == 0 else 1000  # every tenth instance: all-zero weights
    return random_connected_graph(n, seed=idx, wmax=wmax)


@pytest.fixture(scope="module")
def solved_instances():
    """(graph, oracle matrix, {setting: result}) for the criterion-1 corpus."""
    out = []
    for idx in range(N_INSTANCES):
        g = _instance(idx)
        n = g.n_original
        settings = PARAM_SETTINGS + [
            SolveParams(d_max=2, i_max=UNBOUNDED, n_min=max(1, n // 2))]
        fw = floyd_warshall(g)
        results = [solve(g, prm) for prm in settings]
        out.append((g, fw, results))
    return out


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_oracle_equivalence(solved_instances):
    t0 = time.perf_counter()
    failures = 0
    for g, fw, results in solved_instances:
        m_dj, _ = apsp_dijkstra(g)
        if not np.array_equal(fw.cells, m_dj.cells):
            failures += 1
            continue
        for result in results:
            if not np.array_equal(result.distances.cells, fw.cells):
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: pipeline matches Floyd-Warshall and all-sources Dijkstra "
        f"exactly on {N_INSTANCES} instances x 3 parameter settings",
        failures == 0,
        f"{failures} mismatching instances, checked in {elapsed:.1f}s")


def test_criterion_2_path_soundness(solved_instances):
    bad = 0
    for idx, (g, _, results) in enumerate(solved_instances):
        rng = random.Random(10_000 + idx)
        n = g.n_original
        for result in results:
            for _ in range(50):
                i, j = rng.sample(range(1, n + 1), 2)
                path = reconstruct_path(result.precedence, g, i, j)
                if path_weight(g, path) != result.distances.get(i, j):
                    bad += 1
    _report(
        "criterion 2: reconstructed paths are adjacent in the input graph and "
        "their weights equal the matrix distances (50 pairs/instance/setting)",
        bad == 0, f"{bad} unsound paths")


def test_criterion_3_per_step_distance_preservation():
    def apsp_rows(g):
        m, _ = apsp_dijkstra(g)
        present = sorted(g.adj)
        return {(i, j): m.cells[i, j] for i in present for j in present}

    violations = 0
    for seed in range(30):
        g = random_connected_graph(60, seed + 3000)
        plan = disassemble(g.copy(), SolveParams())
        replay = g.copy()
        before = apsp_rows(replay)
        for rec in plan.records[:50]:
            remove_and_preserve(replay, rec.vertex)
            after = apsp_rows(replay)
            survivors = sorted(replay.adj)
            for i in survivors:
                for j in survivors:
                    if after[(i, j)] != before[(i, j)]:
                        violations += 1
            before = after
    _report(
        "criterion 3: all survivor distances unchanged after each of the "
        "first 50 removals on 30 random n=60 graphs",
        violations == 0, f"{violations} changed distances")


def test_criterion_4_edge_delta_matches_realized_change():
    bad = 0
    for sample in range(100):
        rng = random.Random(sample + 4000)
        g = random_connected_graph(rng.randint(5, 60), sample + 4000)
        v = rng.choice(sorted(g.adj))
        predicted = edge_delta(g, v)
        m_before = g.m
        remove_and_preserve(g, v)
        if g.m - m_before != predicted:
            bad += 1
    _report(
        "criterion 4: edge_delta equals measured m(after) - m(before) on 100 "
        "random (graph, vertex) samples",
        bad == 0, f"{bad} mismatches")


def test_criterion_5_full_contraction():
    bad = 0
    for seed in range(40):
        g = random_connected_graph(random.Random(seed).randint(2, 90), seed + 5000)
        n = g.n_original
        seq = disassemble(g, SolveParams())
        if seq.residual.n_present != 1 or len(seq.records) != n - 1:
            bad += 1
    _report(
        "criterion 5: with unbounded d_max/i_max and n_min=1 every connected "
        "graph contracts to a single vertex with n-1 removal records",
        bad == 0, f"{bad} incomplete contractions")


@pytest.fixture(scope="module")
def bench_instance():
    return grid_graph(side=32, diag_frac=0.05, seed=7)


@pytest.fixture(scope="module")
def bench_run(bench_instance):
    g = bench_instance
    pa_times, db_times = [], []
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = solve(g)
        pa_times.append(time.perf_counter() - t0)
    m_db = None
    for _ in range(3):
        t0 = time.perf_counter()
        m_db, _ = apsp_dijkstra(g)
        db_times.append(time.perf_counter() - t0)
    return g, result, m_db, min(pa_times), min(db_times)


def test_criterion_6_speedup_at_desk_scale(bench_instance, bench_run):
    g, result, m_db, pa, db = bench_run
    equal = np.array_equal(result.distances.cells, m_db.cells)
    speedup = db / pa
    ok = equal and pa < db and speedup >= 3.0
    _report(
        "criterion 6: contraction pipeline beats all-sources Dijkstra by >= 3x "
        "on the 1024-vertex grid instance with exact matrix equality",
        ok,
        f"pa={pa:.3f}s db={db:.3f}s speedup={speedup:.1f} equal={equal}")


def test_criterion_7_removed_degree_bound(bench_run):
    _, result, _, _, _ = bench_run
    _report(
        "criterion 7: maximum degree among removed vertices <= 64 on the "
        "benchmark instance",
        result.max_removed_degree <= 64,
        f"max removed degree = {result.max_removed_degree}")


def test_criterion_8_determinism(tmp_path, bench_instance):
    src = tmp_path / "bench.gr"
    src.write_text(write_dimacs(bench_instance))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"dist_{tag}.txt"
        pred = tmp_path / f"pred_{tag}.txt"
        rc = cli_main(["solve", "--input", str(src),
                       "--out", str(out), "--pred", str(pred)])
        assert rc == 0
        outputs.append((out.read_bytes(), pred.read_bytes()))
    _report(
        "criterion 8: two cmd_solve runs with identical inputs produce "
        "byte-identical matrix files",
        outputs[0] == outputs[1])
