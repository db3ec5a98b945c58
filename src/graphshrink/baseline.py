"""Reference APSP solvers used as comparators and correctness oracles.

Deliberately shares no traversal code with the contraction pipeline,
which runs no Dijkstra, so a bug in one side cannot validate itself
against the other.  ``apsp_dijkstra`` runs the binary heap ``_sssp`` from
every vertex; ``dijkstra`` is this heap from one source; no pipeline stage
calls either.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import INF, Graph, GraphError
from .matrices import UNREACHED, UNSET, DistanceMatrix, PrecedenceMatrix

#: floyd_warshall refuses larger graphs: O(n^3) work and dense matrices.
ORACLE_CAP = 512

#: floyd_warshall's missing-pair value: twice it is still below 2**63.
_NO_PATH = 2**62 - 1


def _weight_sum(g: Graph) -> int:
    """Sum of the edge weights, each edge once."""
    return sum(w for nbrs in g.adj.values() for w in nbrs.values()) // 2


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


def dijkstra(g: Graph, source: int) -> tuple[dict[int, float], dict[int, int | None]]:
    """Single-source distances/predecessors over the present vertices.

    Predecessor of the source is None, unreachable vertices stay at INF.
    Edge weights summing to UNREACHED (2**63 - 1) or more are refused with
    ValueError.
    """
    g._require(source)
    total = _weight_sum(g)
    if total >= UNREACHED:
        raise ValueError(f"edge weights sum to {total} >= 2**63 - 1")
    dist, pred = _sssp(g.adj, source, g.n_original)
    return ({v: INF if dist[v] == UNREACHED else dist[v] for v in sorted(g.adj)},
            {v: None if pred[v] == UNSET else pred[v] for v in sorted(g.adj)})


def apsp_dijkstra(g: Graph) -> tuple[DistanceMatrix, PrecedenceMatrix]:
    """Binary-heap Dijkstra from every present vertex (the classic comparator).

    P rows use the shared convention: an entry is UNSET iff the predecessor
    is the source itself (the last hop is the direct edge).  Distances
    start from UNREACHED, so a graph whose edge weights sum to UNREACHED or
    more is refused with ValueError before anything is allocated.
    """
    total = _weight_sum(g)
    if total >= UNREACHED:
        raise ValueError(f"edge weights sum to {total} >= 2**63 - 1: "
                         f"apsp_dijkstra's distances could reach UNREACHED")
    g.require_connected()
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
    total = _weight_sum(g)
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
