"""Command-line front end: solve, verify, bench, subgraph, stats."""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from pathlib import Path

import numpy as np

from .baseline import ORACLE_CAP, apsp_dijkstra, floyd_warshall
from .dimacs import parse_dimacs, write_dimacs
from .disassembly import UNBOUNDED, SolveParams
from .graph import Graph, extract_connected_subgraph
from .matrices import (
    read_distance_matrix,
    write_distance_matrix,
    write_precedence_matrix,
)
from .paths import first_bad_precedence, path_weight, reconstruct_path
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


def _params(args) -> SolveParams:
    return SolveParams(d_max=args.dmax, i_max=args.imax, n_min=args.nmin)


def _check_output_dirs(*paths) -> None:
    for out in paths:
        if out and not Path(out).parent.is_dir():
            raise CliError(f"output directory not found: {Path(out).parent}")


def _first_mismatch(a: np.ndarray, b: np.ndarray):
    diff = np.argwhere(a[1:, 1:] != b[1:, 1:])
    if diff.size == 0:
        return None
    i, j = int(diff[0][0]) + 1, int(diff[0][1]) + 1
    return i, j


# -- subcommands -----------------------------------------------------------


def cmd_solve(args) -> int:
    _check_output_dirs(args.out, args.pred)
    if args.out and args.pred and Path(args.out).resolve() == Path(args.pred).resolve():
        raise CliError(f"--out and --pred name the same file: {args.out}")
    g = _load_graph(args)
    t0 = time.perf_counter()
    result = solve(g, _params(args))
    t1 = time.perf_counter()
    if args.out:
        with open(args.out, "w") as fh:
            write_distance_matrix(result.distances, fh)
    if args.pred:
        with open(args.pred, "w") as fh:
            write_precedence_matrix(result.precedence, fh)
    t2 = time.perf_counter()
    st = g.stats()
    print(f"n={st.n} m={st.m} removals={result.removals} "
          f"shortcuts={result.shortcuts} "
          f"residual_order={result.residual_order} "
          f"max_removed_degree={result.max_removed_degree} "
          f"wall_seconds={t1 - t0:.3f} write_seconds={t2 - t1:.3f}")
    return 0


def _oracles(args, g: Graph):
    """(name, distance matrix) of each oracle in turn, each computed only
    when the previous one agreed."""
    if args.expected:
        expected = read_distance_matrix(Path(args.expected).read_text())
        if expected.order != g.n_original:
            raise CliError(f"expected matrix order {expected.order} != n {g.n_original}")
        yield "expected", expected
    yield "dijkstra", apsp_dijkstra(g)[0]
    if g.n_original <= ORACLE_CAP:
        yield "floyd_warshall", floyd_warshall(g)


def cmd_verify(args) -> int:
    if args.sample < 0:
        raise CliError(f"--sample must be at least 0, got {args.sample}")
    g = _load_graph(args)
    result = solve(g, _params(args))

    for name, m in _oracles(args, g):
        loc = _first_mismatch(result.distances.cells, m.cells)
        if loc is not None:
            i, j = loc
            print(f"FAIL: cell ({i},{j}): pipeline={result.distances.get(i, j)} "
                  f"{name}={m.get(i, j)}", file=sys.stderr)
            return 1

    bad = first_bad_precedence(g, result.distances, result.precedence)
    if bad is not None:
        i, j, q = bad
        d = result.distances.get
        w = g.adj.get(q, {}).get(j)
        why = (f"({q},{j}) is not an edge" if w is None else
               f"D[{i}][{q}] + w({q},{j}) = {d(i, q) + w} != D[{i}][{j}] = {d(i, j)}")
        print(f"FAIL: precedence cell ({i},{j}): last hop from {q}: {why}", file=sys.stderr)
        return 1

    rng = random.Random(args.seed)
    vertices = sorted(g.adj)
    walks = args.sample if len(vertices) > 1 else 0
    for _ in range(walks):
        i, j = rng.sample(vertices, 2)
        path = reconstruct_path(result.precedence, g, i, j)
        w = path_weight(g, path)
        if w != result.distances.get(i, j):
            print(f"FAIL: path ({i},{j}) weighs {w}, matrix says "
                  f"{result.distances.get(i, j)}", file=sys.stderr)
            return 1

    print(f"OK: n={g.n_original}, matrices agree, every precedence cell tight, "
          f"{walks} paths sound")
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise CliError(f"--repeats must be at least 1, got {args.repeats}")
    _check_output_dirs(args.report)
    g = _load_graph(args)
    params = _params(args)

    pa_times, db_times = [], []
    result = None
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        result = solve(g, params)
        pa_times.append(time.perf_counter() - t0)
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        m_db, _ = apsp_dijkstra(g)
        db_times.append(time.perf_counter() - t0)

    equal = _first_mismatch(result.distances.cells, m_db.cells) is None
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
                    "oracle verification and benchmarking.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="solve an instance, write matrices")
    _add_input(sp)
    _add_knobs(sp)
    sp.add_argument("--out", help="distance matrix output path")
    sp.add_argument("--pred", help="precedence matrix output path")
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("verify", help="solve, check distances against the oracles "
                                        "and every precedence cell against the graph")
    _add_input(sp)
    _add_knobs(sp)
    sp.add_argument("--seed", type=int, default=1, help="path-check sample seed (default 1)")
    sp.add_argument("--sample", type=int, default=50,
                    help="random vertex pairs to path-check (default 50); every "
                         "precedence cell is checked to end in a tight edge, but "
                         "only a walked path shows a zero-weight cycle")
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
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
