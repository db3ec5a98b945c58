"""Reference APSP solvers used as comparators and correctness oracles.

Deliberately shares no traversal code with the contraction pipeline (the
microsolve module has its own Dijkstra), so a bug in one side cannot
validate itself against the other.
"""

from __future__ import annotations

import heapq

from .graph import Graph, GraphError
from .matrices import UNREACHED, UNSET, DistanceMatrix, PrecedenceMatrix

#: floyd_warshall refuses larger graphs: O(n^3) work and dense matrices.
ORACLE_CAP = 512


def _sssp(adj: dict[int, dict[int, int]], source: int, n: int):
    # array-backed binary heap with lazy deletion; no decrease-key needed
    dist = [UNREACHED] * (n + 1)
    pred = [UNSET] * (n + 1)
    dist[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
    return dist, pred


def apsp_dijkstra(g: Graph) -> tuple[DistanceMatrix, PrecedenceMatrix]:
    """Binary-heap Dijkstra from every present vertex (the classic comparator).

    P rows use the shared convention: an entry is UNSET iff the predecessor
    is the source itself (the last hop is the direct edge).
    """
    if not g.is_connected():
        raise GraphError("apsp_dijkstra requires a connected graph")
    n = g.n_original
    m = DistanceMatrix(n)
    p = PrecedenceMatrix(n)
    for src in sorted(g.adj):
        dist, pred = _sssp(g.adj, src, n)
        # translate "predecessor == source" into the UNSET convention
        m.cells[src, :] = dist
        p.cells[src, :] = [UNSET if q == src else q for q in pred]
    return m, p


def floyd_warshall(g: Graph, cap: int = ORACLE_CAP) -> DistanceMatrix:
    """Independent brute-force oracle: n rounds of min-plus relaxation.

    The two inner loops of the classic triple loop run as one vectorized
    minimum per pivot.  Exact on integer weights (float64 sums stay below
    2^53 at the allowed sizes); unreached pairs are stored as UNREACHED.
    """
    import numpy as np

    present = sorted(g.adj)
    n_p = len(present)
    if n_p > cap:
        raise GraphError(f"floyd_warshall capped at {cap} vertices, got {n_p}")
    pos = {v: i for i, v in enumerate(present)}
    w = np.full((n_p, n_p), np.inf)
    np.fill_diagonal(w, 0.0)
    for u, nbrs in g.adj.items():
        iu = pos[u]
        for v, wt in nbrs.items():
            w[iu, pos[v]] = wt
    for k in range(n_p):
        np.minimum(w, w[:, k, None] + w[None, k, :], out=w)
    m = DistanceMatrix(g.n_original)
    ids = np.array(present)
    reached = np.isfinite(w)
    block = np.full(w.shape, UNREACHED, dtype=np.int64)
    block[reached] = w[reached]
    m.cells[np.ix_(ids, ids)] = block
    return m
