"""Command-line front end: solve, verify, bench, subgraph, stats."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from .baseline import apsp_dijkstra
from .dimacs import parse_dimacs, write_dimacs
from .disassembly import UNBOUNDED, SolveParams
from .graph import Graph, extract_connected_subgraph
from .matrices import (
    read_distance_matrix,
    write_distance_matrix,
    write_precedence_matrix,
)
from .paths import first_bad_cell
from .solver import solve

DEFAULT_MAX_N = 15000
#: Order cap of `stats` and `subgraph`, which build the graph but no n x n
#: matrix; it admits the full USA road graph (23,947,347 vertices).
GRAPH_MAX_N = 30_000_000


class CliError(Exception):
    pass


def _int_or_inf(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return UNBOUNDED
    return int(text)


def _load_graph(args) -> Graph:
    path = Path(args.input)
    if not path.exists():
        raise CliError(f"input file not found: {path}")
    return parse_dimacs(path.read_bytes(), args.max_n)


def _check_output_dirs(*paths) -> None:
    for out in paths:
        if out and not Path(out).parent.is_dir():
            raise CliError(f"output directory not found: {Path(out).parent}")
        if out and Path(out).is_dir():
            raise CliError(f"output path is a directory: {out}")


def _same_file(a: str, b: str) -> bool:
    """Whether a and b name one file: one path once resolved, or two
    existing names of one file, such as hard links."""
    if Path(a).resolve() == Path(b).resolve():
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _write(path: str, writer, matrix) -> None:
    with open(path, "w") as fh:
        writer(matrix, fh)


def _write_matrices(result, out: str | None, pred: str | None) -> None:
    """Write D to `out` and P to `pred`, each when given.  With both, P is
    written on a second thread while this one writes D: the two writes
    share nothing, and most of each is numpy work and file writes, which
    release the GIL.  When both fail, D's error is the one raised."""
    if not (out and pred):
        if out:
            _write(out, write_distance_matrix, result.distances)
        if pred:
            _write(pred, write_precedence_matrix, result.precedence)
        return
    failed = []

    def write_pred():
        try:
            _write(pred, write_precedence_matrix, result.precedence)
        except Exception as exc:  # raised on the main thread unless D's write failed
            failed.append(exc)

    thread = threading.Thread(target=write_pred, name="graphshrink-pred")
    thread.start()
    try:
        _write(out, write_distance_matrix, result.distances)
    finally:
        thread.join()
    if failed:
        raise failed[0]


# -- subcommands -----------------------------------------------------------


def cmd_solve(args) -> int:
    _check_output_dirs(args.out, args.pred)
    if args.out and args.pred and _same_file(args.out, args.pred):
        raise CliError(f"--out and --pred name the same file: {args.out}")
    g = _load_graph(args)
    t0 = time.perf_counter()
    result = solve(g, args.params)
    t1 = time.perf_counter()
    _write_matrices(result, args.out, args.pred)
    t2 = time.perf_counter()
    st = g.stats()
    print(f"n={st.n} m={st.m} removals={result.removals} "
          f"shortcuts={result.shortcuts} "
          f"residual_order={result.residual_order} "
          f"max_removed_degree={result.max_removed_degree} "
          f"wall_seconds={t1 - t0:.3f} write_seconds={t2 - t1:.3f}")
    return 0


def cmd_verify(args) -> int:
    if args.expected and not Path(args.expected).is_file():
        what = "is a directory" if Path(args.expected).is_dir() else "not found"
        raise CliError(f"--expected {what}: {args.expected}")
    g = _load_graph(args)
    expected = args.expected and read_distance_matrix(
        Path(args.expected).read_bytes().decode("latin-1"))
    if expected and expected.order != g.n_original:
        raise CliError(f"expected matrix order {expected.order} != n {g.n_original}")
    result = solve(g, args.params)

    if expected:
        diff = np.argwhere(result.distances.cells[1:, 1:] != expected.cells[1:, 1:]) + 1
        if diff.size:
            i, j = map(int, diff[0])
            print(f"FAIL: cell ({i},{j}): pipeline={result.distances.get(i, j)} "
                  f"expected={expected.get(i, j)}", file=sys.stderr)
            return 1

    bad = first_bad_cell(g, result.distances, result.precedence)
    if bad is not None:
        print(f"FAIL: {bad[2]}", file=sys.stderr)
        return 1
    print(f"OK: n={g.n_original}, every distance and precedence cell certified")
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise CliError(f"--repeats must be at least 1, got {args.repeats}")
    _check_output_dirs(args.report)
    g = _load_graph(args)

    pa_times, db_times = [], []
    result = None
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        result = solve(g, args.params)
        pa_times.append(time.perf_counter() - t0)
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        m_db, _ = apsp_dijkstra(g)
        db_times.append(time.perf_counter() - t0)

    equal = np.array_equal(result.distances.cells[1:, 1:], m_db.cells[1:, 1:])
    st = g.stats()
    pa, db = min(pa_times), min(db_times)
    row = {
        "instance": Path(args.input).stem,
        "n": st.n,
        "m": st.m,
        "pa_seconds": f"{pa:.6f}",
        "db_seconds": f"{db:.6f}",
        "speedup": f"{db / pa:.3f}",
        "removals": result.removals,
        "residual_order": result.residual_order,
        "max_removed_degree": result.max_removed_degree,
        "matrices_equal": equal,
    }
    if args.report:
        path = Path(args.report)
        new_file = not path.exists()
        with open(path, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            if new_file:
                writer.writeheader()
            writer.writerow(row)
    print(",".join(map(str, row.values())))
    if not equal:
        print("FAIL: PA and DB matrices differ", file=sys.stderr)
        return 1
    return 0


def cmd_subgraph(args) -> int:
    _check_output_dirs(args.out)
    g = _load_graph(args)
    sub, _ = extract_connected_subgraph(g, args.size, args.seed)
    text = write_dimacs(sub)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    g = _load_graph(args)
    st = g.stats()
    print(f"{Path(args.input).stem},{st.n},{st.m},{float(st.avg_degree):.4f},{st.max_degree}")
    return 0


# -- argument wiring --------------------------------------------------------


def _add_input(sub: argparse.ArgumentParser, max_n: int = DEFAULT_MAX_N) -> None:
    sub.add_argument("--input", required=True, help="DIMACS 'p sp' graph file")
    sub.add_argument("--max-n", type=int, default=max_n,
                     help=f"refuse graphs larger than this (default {max_n})")


def _add_knobs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dmax", type=_int_or_inf, default=UNBOUNDED,
                     help="max degree of removable vertices (default inf)")
    sub.add_argument("--imax", type=_int_or_inf, default=UNBOUNDED,
                     help="max edge-count increase per removal (default inf)")
    sub.add_argument("--nmin", type=int, default=1,
                     help="target residual order (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphshrink",
        description="All-pairs shortest paths by graph contraction, with "
                    "certified verification and benchmarking.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="solve an instance, write matrices")
    _add_input(sp)
    _add_knobs(sp)
    sp.add_argument("--out", help="distance matrix output path")
    sp.add_argument("--pred", help="precedence matrix output path")
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("verify", help="solve, then certify each cell of D and P from the graph")
    _add_input(sp)
    _add_knobs(sp)
    sp.add_argument("--expected", help="distance matrix file to compare against")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("bench", help="time the pipeline against all-sources Dijkstra")
    _add_input(sp)
    _add_knobs(sp)
    sp.add_argument("--repeats", type=int, default=3, help="best-of runs (default 3)")
    sp.add_argument("--report", help="CSV report path (appended)")
    sp.set_defaults(func=cmd_bench)

    sp = subs.add_parser("subgraph", help="extract a connected BFS-ball subgraph")
    _add_input(sp, GRAPH_MAX_N)
    sp.add_argument("--seed", type=int, default=1, help="BFS start seed (default 1)")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--out", help="DIMACS output path (default stdout)")
    sp.set_defaults(func=cmd_subgraph)

    sp = subs.add_parser("stats", help="print instance,n,m,avg_degree,max_degree")
    _add_input(sp, GRAPH_MAX_N)
    sp.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "nmin" in args:  # solve, verify and bench: the knobs are refused before the input
            args.params = SolveParams(d_max=args.dmax, i_max=args.imax, n_min=args.nmin)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
