"""Seeded inputs for the benchmark workloads.

The generators repeat the random draws of ``tests/conftest.py``'s
``grid_graph`` and ``random_connected_graph`` exactly (``test_perfbench.py``
checks this), so the workloads stay on the instance ladder the test suite
uses.  They return plain edge dicts, not ``graphshrink.Graph`` objects: the
harness process never imports the program, and the program only ever sees
the DIMACS file written from these edges.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: {(u, v): w} with u < v, vertex ids 1..n.
Edges = dict[tuple[int, int], int]


def _add(edges: Edges, adj: list[set[int]], u: int, v: int, w: int) -> None:
    edges[(min(u, v), max(u, v))] = w
    adj[u].add(v)
    adj[v].add(u)


def grid_graph(side: int, diag_frac: float, seed: int) -> tuple[int, Edges]:
    """side x side grid with a few random diagonals, weights in [1, 100]."""
    rng = random.Random(seed)
    n = side * side
    edges: Edges = {}
    adj: list[set[int]] = [set() for _ in range(n + 1)]

    def vid(r: int, c: int) -> int:
        return r * side + c + 1

    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                _add(edges, adj, vid(r, c), vid(r, c + 1), rng.randint(1, 100))
            if r + 1 < side:
                _add(edges, adj, vid(r, c), vid(r + 1, c), rng.randint(1, 100))
    cells = [(r, c) for r in range(side - 1) for c in range(side - 1)]
    for r, c in rng.sample(cells, int(diag_frac * len(cells))):
        _add(edges, adj, vid(r, c), vid(r + 1, c + 1), rng.randint(1, 100))
    return n, edges


def random_connected_graph(n: int, seed: int, wmax: int = 1000,
                           extra_factor: int = 2) -> tuple[int, Edges]:
    """Shuffled random spanning tree plus up to extra_factor*n extra edges."""
    rng = random.Random(seed)
    edges: Edges = {}
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for i in range(1, n):
        _add(edges, adj, order[i], order[rng.randrange(i)], rng.randint(0, wmax))
    if n >= 2:
        for _ in range(rng.randint(0, extra_factor * n)):
            u, v = rng.sample(range(1, n + 1), 2)
            if v not in adj[u]:
                _add(edges, adj, u, v, rng.randint(0, wmax))
    return n, edges


#: The ladder's one random graph.  random_connected_graph draws its
#: extra-edge count uniformly from [0, 2n], so its solve time spans
#: 0.1-4.4 s across seeds at n=1024; a per-run graph seed would make the
#: seed, not the program, set the spread.  Seed 11 (m=2255, 14415
#: shortcuts, max removed degree 63) is the dense instance the workload was
#: sized on; the run seed still picks the query sample.
RANDOM_GRAPH_SEED = 11


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], tuple[int, Edges]]
    #: SolveParams fields; the matching CLI flags come from CLI_FLAGS.
    knobs: dict


CLI_FLAGS = {"d_max": "--dmax", "i_max": "--imax", "n_min": "--nmin"}

#: Why each workload exists is stated in BENCHMARK.json; in short:
WORKLOADS = {
    # road-like, full contraction: assembly dominates solve(), matrix text
    # I/O dominates the CLI, and microsolve idles (residual order 1)
    "grid-full": Workload(lambda seed: grid_graph(48, 0.05, seed), {}),
    # the paper's bounded knobs: residual order ~900, so the residual
    # Dijkstra and the P merge dominate; the only workload where the
    # i_max gate (edge_delta) runs
    "grid-bounded": Workload(lambda seed: grid_graph(32, 0.05, seed),
                             {"d_max": 3, "i_max": 0}),
    # not road-like: removed degree up to 63, so disassembly and its fill
    # dominate
    "random-full": Workload(
        lambda seed: random_connected_graph(1024, RANDOM_GRAPH_SEED, 1000, 2), {}),
}


def cli_knobs(knobs: dict) -> list[str]:
    return [arg for field, value in knobs.items()
            for arg in (CLI_FLAGS[field], str(value))]


def query_pairs(n: int, seed: int, count: int) -> list[tuple[int, int]]:
    """Fixed, seeded sample of ordered pairs (i, j) with i != j."""
    rng = random.Random(f"queries-{seed}")
    return [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(count)]


def dimacs_text(n: int, edges: Edges) -> str:
    """'p sp' file with each undirected edge as two arcs, ascending (u, v)."""
    lines = ["c perfbench instance", f"p sp {n} {2 * len(edges)}"]
    for (u, v), w in sorted(edges.items()):
        lines.append(f"a {u} {v} {w}")
        lines.append(f"a {v} {u} {w}")
    return "\n".join(lines) + "\n"


def write_instance(work: Path, n: int, edges: Edges, knobs: dict,
                   queries: list[tuple[int, int]]) -> None:
    """The files a probe reads: ``graph.gr``, the program's only input, and
    ``instance.json``, which the correctness checks use."""
    (work / "graph.gr").write_text(dimacs_text(n, edges))
    (work / "instance.json").write_text(json.dumps({
        "n": n,
        "edges": [[u, v, w] for (u, v), w in sorted(edges.items())],
        "queries": queries,
        "knobs": knobs,
    }))
