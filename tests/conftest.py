import contextlib
import random

import numpy as np

from graphshrink import UNSET, Graph, PrecedenceMatrix, apsp_dijkstra, disassemble
from graphshrink.assembly import assemble, precede_shortcuts, restore_order
from graphshrink.microsolve import contract_core, solve_residual


@contextlib.contextmanager
def laid_out(order, d=None, p=None):
    """Yield copies of the id-order `d` and `p` (either may be None) laid
    out as solve lays out its matrices, and the layout's id -> position
    array: the ids of `order` at positions 1, 2, ..., every other id after
    them, ascending.  On leaving, also by an exception, every cell of the
    copies goes back to its id in d and p."""
    n = len(d if d is not None else p.cells) - 1
    ids = [0, *order, *sorted(set(range(1, n + 1)) - set(order))]  # position -> id
    pos = np.empty(n + 1, dtype=np.intp)
    pos[ids] = np.arange(n + 1)
    block = np.ix_(ids, ids)
    d_pos = None if d is None else d[block]
    p_pos = None
    if p is not None:
        p_pos = PrecedenceMatrix(n)
        p_pos.cells[...] = p.cells[block]
    try:
        yield d_pos, p_pos, pos
    finally:
        if d is not None:
            d[block] = d_pos
        if p is not None:
            p.cells[block] = p_pos.cells


def precede_shortcuts_by_id(seq, p: PrecedenceMatrix) -> None:
    """assembly.precede_shortcuts on an id-order P."""
    with laid_out(restore_order(seq), p=p) as (_, p_pos, pos):
        precede_shortcuts(seq, p_pos, pos)


def assemble_by_id(seq, d: np.ndarray, p: PrecedenceMatrix) -> None:
    """assembly.assemble on an id-order D and P."""
    with laid_out(restore_order(seq), d, p) as (d_pos, p_pos, pos):
        assemble(seq, d_pos, pos, p_pos)


def solve_residual_by_id(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix,
                         stage=solve_residual) -> None:
    """microsolve.solve_residual, or `stage` with its contract, on an
    id-order D and P: the residual contracted by contract_core and laid
    out in the core's restore order, as solve lays it out."""
    core = contract_core(g_r)
    with laid_out(restore_order(core), d, p) as (d_pos, p_pos, pos):
        stage(g_r, core, d_pos, p_pos, pos)


def contract(g: Graph, params):
    """Contract g in place, then write its shortcuts' predecessors into a
    fresh id-order P, as solver.solve does before the residual solve."""
    seq = disassemble(g, params)
    p = PrecedenceMatrix(g.n_original)
    precede_shortcuts_by_id(seq, p)
    return seq, p


def reference_solve_residual(g_r: Graph, core, d: np.ndarray, p: PrecedenceMatrix,
                             pos: np.ndarray) -> None:
    """solve_residual's output from the independent baseline, on the same
    layout (`pos`; `core` goes unused): apsp_dijkstra's distances, and its
    predecessor q of each (i, j) merged into P as P held it on entry: the
    stored P[i][j] when q == i, else P[q][j], or q when that is unset."""
    ids = sorted(g_r.adj)
    m, pred = apsp_dijkstra(g_r)
    block, at = np.ix_(ids, ids), np.ix_(pos[ids], pos[ids])
    d[at] = m.cells[block]
    source = np.array(ids)[:, None]
    q = np.where(pred.cells[block] == UNSET, source, pred.cells[block])
    entry = p.cells.copy()
    stored = entry[pos[q], pos[source.T]]
    p.cells[at] = np.where(q == source, entry[at], np.where(stored != UNSET, stored, q))


def core_caps(r: int) -> tuple[int, int, int]:
    """Core orders (microsolve._CORE_ORDER) that solve a residual of r > 1
    vertices by its inner contraction alone, by contraction to a core of
    about r / 2, and by the min-plus core alone."""
    return 1, max(2, r // 2), r + 1


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
