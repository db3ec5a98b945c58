"""Tests of the benchmark itself: its input generators, its correctness
gates and counts, its tolerance of renamed layer functions, and the shape
of its output."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if importlib.util.find_spec("graphshrink") is None:
    sys.path.append(str(ROOT / "src"))

import probe  # noqa: E402
import workloads  # noqa: E402


def _seed_generators():
    spec = importlib.util.spec_from_file_location("seed_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, args", [
    ("grid_graph", (48, 0.05, 1)),
    ("grid_graph", (32, 0.05, 7)),
    ("random_connected_graph", (1024, workloads.RANDOM_GRAPH_SEED, 1000, 2)),
    ("random_connected_graph", (300, 5, 1000, 2)),
])
def test_generators_reproduce_the_test_suite_instances(kind, args):
    expected = getattr(_seed_generators(), kind)(*args)
    n, edges = getattr(workloads, kind)(*args)
    assert n == expected.n_original
    assert edges == {(u, v): w for u, v, w in expected.edges()}


def _probe_json(capsys, fn, *args) -> dict:
    fn(*args)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _small_instance(work: Path, knobs: dict, capsys) -> None:
    n, edges = workloads.grid_graph(10, 0.05, 4)
    workloads.write_instance(work, n, edges, knobs, workloads.query_pairs(n, 4, 50))
    oracle = _probe_json(capsys, probe.mode_oracle, work)
    (work / "oracle.json").write_text(json.dumps(oracle))


@pytest.mark.parametrize("knobs", [{}, {"d_max": 3, "i_max": 0}])
def test_counts_and_outputs_repeat_exactly(tmp_path, capsys, knobs):
    _small_instance(tmp_path, knobs, capsys)
    first = _probe_json(capsys, probe.mode_trace, tmp_path, 0)
    second = _probe_json(capsys, probe.mode_trace, tmp_path, 0)
    measured = _probe_json(capsys, probe.mode_measure, tmp_path, 0)
    for run in (first, second, measured):
        assert run["failed"] == 0 and run["attempted"] > 0, run["errors"]
    assert first["counts"] == second["counts"] == measured["counts"]
    assert first["outputs"] == second["outputs"] == measured["outputs"]
    assert (first["counts"]["residual_order"] > 1) == bool(knobs)


def test_a_missing_layer_function_is_reported_unmeasured(tmp_path, capsys, monkeypatch):
    _small_instance(tmp_path, {}, capsys)
    renamed = [(owner, "assemble_renamed" if attr == "assemble" else attr, name)
               for owner, attr, name in probe.WRAPS]
    monkeypatch.setattr(probe, "WRAPS", renamed + [("graphshrink.no_such_module", "f", "x.f")])
    run = _probe_json(capsys, probe.mode_trace, tmp_path, 0)
    assert run["failed"] == 0
    assert run["unmeasured"] == ["assembly.assemble", "x.f"]
    assert run["layers"]["assembly.assemble_s"] is None
    assert run["layers"]["solver.self_s"] is None
    assert run["layers"]["disassembly.disassemble_s"] > 0
    import graphshrink.solver
    assert graphshrink.solver.disassemble.__module__ == "graphshrink.disassembly"


def test_run_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "random-full",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    assert last["metrics"]["microsolve.dijkstra_s"]["value"] == 0


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
