"""Reference APSP solvers used as comparators and correctness oracles.

Deliberately shares no traversal code with the contraction pipeline (the
microsolve module has its own Dijkstra), so a bug in one side cannot
validate itself against the other.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph, GraphError
from .matrices import UNREACHED, UNSET, DistanceMatrix, PrecedenceMatrix

#: floyd_warshall refuses larger graphs: O(n^3) work and dense matrices.
ORACLE_CAP = 512

#: floyd_warshall's missing-pair value: twice it is still below 2**63.
_NO_PATH = 2**62 - 1


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


def floyd_warshall(g: Graph) -> DistanceMatrix:
    """Independent brute-force oracle: n rounds of min-plus relaxation.

    The two inner loops of the classic triple loop run as one vectorized
    minimum per pivot, exactly in int64.  A missing pair holds _NO_PATH,
    and two of those still sum inside int64, so no pivot sum wraps.  No
    distance exceeds the sum of the edge weights, so a graph whose weights
    sum to _NO_PATH or more is refused with ValueError before anything is
    allocated; below that a sum through a missing pair never undercuts a
    real path.  Unreached pairs are stored as UNREACHED.
    """
    present = sorted(g.adj)
    n_p = len(present)
    if n_p > ORACLE_CAP:
        raise GraphError(f"floyd_warshall capped at {ORACLE_CAP} vertices, got {n_p}")
    total = sum(w for nbrs in g.adj.values() for w in nbrs.values()) // 2
    if total >= _NO_PATH:
        raise ValueError(f"edge weights sum to {total} >= 2**62 - 1: "
                         f"floyd_warshall's int64 sums could wrap")
    pos = {v: i for i, v in enumerate(present)}
    w = np.full((n_p, n_p), _NO_PATH, dtype=np.int64)
    np.fill_diagonal(w, 0)
    for u, nbrs in g.adj.items():
        iu = pos[u]
        for v, wt in nbrs.items():
            w[iu, pos[v]] = wt
    for k in range(n_p):
        np.minimum(w, w[:, k, None] + w[None, k, :], out=w)
    m = DistanceMatrix(g.n_original)
    ids = np.array(present)
    m.cells[np.ix_(ids, ids)] = np.where(w == _NO_PATH, UNREACHED, w)
    return m
