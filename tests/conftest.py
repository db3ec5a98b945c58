import random

import numpy as np

from graphshrink import UNSET, Graph, PrecedenceMatrix, apsp_dijkstra, disassemble
from graphshrink.assembly import precede_shortcuts


def contract(g: Graph, params):
    """Contract g in place, then write its shortcuts' predecessors into a
    fresh P, as solver.solve does before the residual solve."""
    seq = disassemble(g, params)
    p = PrecedenceMatrix(g.n_original)
    precede_shortcuts(seq, p)
    return seq, p


def reference_solve_residual(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix) -> None:
    """solve_residual's output from the independent baseline: apsp_dijkstra's
    distances, and its predecessor q of each (i, j) merged into P as P held
    it on entry: the stored P[i][j] when q == i, else P[q][j], or q when
    that is unset."""
    ids = sorted(g_r.adj)
    block = np.ix_(ids, ids)
    m, pred = apsp_dijkstra(g_r)
    d[block] = m.cells[block]
    source = np.array(ids)[:, None]
    q = np.where(pred.cells[block] == UNSET, source, pred.cells[block])
    entry = p.cells.copy()
    stored = entry[q, source.T]
    p.cells[block] = np.where(q == source, entry[block], np.where(stored != UNSET, stored, q))


def random_connected_graph(n: int, seed: int, wmax: int = 1000,
                           extra_factor: int = 2) -> Graph:
    """Random connected graph: shuffled spanning tree plus up to
    extra_factor*n extra edges, so m <= (1 + extra_factor) * n."""
    rng = random.Random(seed)
    g = Graph(n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for i in range(1, n):
        g.set_edge(order[i], order[rng.randrange(i)], rng.randint(0, wmax))
    if n >= 2:
        for _ in range(rng.randint(0, extra_factor * n)):
            u, v = rng.sample(range(1, n + 1), 2)
            if v not in g.adj[u]:
                g.set_edge(u, v, rng.randint(0, wmax))
    return g


def grid_graph(side: int = 32, diag_frac: float = 0.05, seed: int = 7) -> Graph:
    """side x side grid with a few random diagonals, weights in [1, 100];
    the road-network stand-in used by the benchmark tests."""
    g = Graph(side * side)
    rng = random.Random(seed)

    def vid(r: int, c: int) -> int:
        return r * side + c + 1

    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                g.set_edge(vid(r, c), vid(r, c + 1), rng.randint(1, 100))
            if r + 1 < side:
                g.set_edge(vid(r, c), vid(r + 1, c), rng.randint(1, 100))
    cells = [(r, c) for r in range(side - 1) for c in range(side - 1)]
    for r, c in rng.sample(cells, int(diag_frac * len(cells))):
        g.set_edge(vid(r, c), vid(r + 1, c + 1), rng.randint(1, 100))
    return g


def path_graph(weights: list[int]) -> Graph:
    """Path 1-2-...-k with the given edge weights."""
    g = Graph(len(weights) + 1)
    for i, w in enumerate(weights, start=1):
        g.set_edge(i, i + 1, w)
    return g


def cycle_graph(n: int) -> Graph:
    """Cycle 1-2-...-n-1 with unit weights."""
    g = Graph(n)
    for v in range(1, n + 1):
        g.set_edge(v, v % n + 1, 1)
    return g


def triangle_graph() -> Graph:
    """The running example: w(1,2) = w(2,3) = 1, w(1,3) = 5."""
    g = Graph(3)
    g.set_edge(1, 2, 1)
    g.set_edge(2, 3, 1)
    g.set_edge(1, 3, 5)
    return g
