#!/usr/bin/env python3
"""graphshrink benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

One run generates the workload's instance from ``--seed``, computes the
``apsp_dijkstra`` reference in its own process, then measures the program in
fresh interpreters that import it from ``src/``:

* ``--trace 0``: ``setup_s`` from several fresh interpreters that import
  the CLI, parse the input and check connectivity, then a closed loop (one
  client, one operation at a time) of ``solve``, CLI ``solve --out
  --pred``, reading both matrices back, and path queries, repeated for
  ``--seconds``.  Each time metric is the median over the run's samples
  of the sample's time at reference speed (``reference.py``): on a shared
  machine the same code runs up to 60% slower for minutes at a time, and
  over ten seeds per workload on a 2-vCPU Xeon VM this scaling cut the
  run-to-run spread (quartile distance over median) of the time metrics
  from 0.09-0.35 to 0.06-0.19.  The raw median, min and max are printed
  beside each value.
* ``--trace 1``: one pass with timing spans around every layer boundary,
  reported as the per-layer metrics.

Every operation's output is checked against the oracle and the input
outside the timed regions.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the process exits
non-zero when any check fails.  Spans, counts and the run environment go to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, query_pairs, write_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
QUERY_COUNT = 2000
#: One run must finish well inside the 180 s a benchmark run is allowed.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _child(script: str, *args: str, deadline: float) -> dict:
    """Run a perfbench script in a fresh interpreter that imports the
    program from ``src/``; return the JSON object on its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {script} {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {args[0]} still running at the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints its report and returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workload = WORKLOADS[name]
    n, edges = workload.build(seed)
    work = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_instance(work, n, edges, workload.knobs, query_pairs(n, seed, QUERY_COUNT))
        oracle = _child("probe.py", "oracle", str(work), deadline=deadline)
        (work / "oracle.json").write_text(json.dumps(oracle))
        setups = []
        if not trace:
            setups = [_child("setup_probe.py", str(work / "graph.gr"), deadline=deadline)
                      for _ in range(SETUP_REPEATS)]
        probe = _child("probe.py", "trace" if trace else "measure", str(work),
                       str(seconds), deadline=deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = probe.get("samples", {"untraced_solve_s": probe.get("untraced_solve_s")})
    attempted = probe["attempted"] + len(setups)
    failed = probe["failed"] + sum(not s["connected"] for s in setups)
    if trace:
        values = dict(probe["layers"])
        values["baseline.apsp_dijkstra_s"] = oracle["apsp_dijkstra_s"]
        values["baseline.speedup"] = (
            oracle["apsp_dijkstra_s"] / statistics.median(probe["untraced_solve_s"]))
    else:
        samples["setup_s"] = [s["setup_s"] for s in setups]
        probe["scaled_samples"]["setup_s"] = [s["scaled_setup_s"] for s in setups]
        values = {key: statistics.median(vals)
                  for key, vals in probe["scaled_samples"].items() if vals}
        values["peak_rss_mb"] = probe["peak_rss_mb"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}

    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "n": n, "m": len(edges), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": probe["numpy"],
        "git_revision": _git_revision(), "platform": platform.platform(),
    }
    record = {"env": env, "counts": probe["counts"], "outputs": probe["outputs"],
              "unmeasured": probe.get("unmeasured", []), "errors": probe["errors"]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {**record, "metrics": metrics, "attempted": attempted, "failed": failed,
         "samples": samples, "scaled_samples": probe.get("scaled_samples", {}),
         "spans": probe.get("spans", [])}, indent=1))

    print(f"perfbench {name} seed={seed} trace={trace} n={n} m={len(edges)}: "
          f"{attempted} operations, {failed} failed")
    for key, metric in metrics.items():
        value = metric["value"]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        raw = samples.get(key)
        spread = (f"  ({len(raw)} samples; raw median {statistics.median(raw):.6g},"
                  f" min {min(raw):.6g}, max {max(raw):.6g})" if raw else "")
        print(f"  {key:34s} {shown:>14s} {metric['unit']}{spread}")
    print(f"  {'failed_frac':34s} {failed / attempted:>14.6g} ratio")
    for error in probe["errors"]:
        print(f"  FAIL {error}")
    print("record " + json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphshrink" / "__init__.py").is_file():
        print(f"error: no graphshrink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    results = {}
    try:
        for name, trace in runs:
            results[(name, trace)] = run_one(name, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for (name, _), r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
