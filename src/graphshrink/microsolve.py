"""Exact APSP on the residual graph and merge into the global matrices.

Python runs only the heap loop.  The residual's adjacency is built once as
lists over positions (position k holds the k-th smallest present id), and
a binary heap with lazy deletion runs from each source.  Each heap entry
packs (distance, position) into the one int ``distance * r + position``
(r = residual order), so the heap compares ints, not tuples, in exactly the
lexicographic order of the (distance, vertex id) tuples: every tie breaks
as in a tuple heap.  numpy does the rest, one block of about
``_BLOCK_CELLS`` cells (a run of sources) at a time: it decodes
the keys into the block's rows of the int64 distance matrix (the cells of
a DistanceMatrix, UNREACHED where there is no path) and merges the
block's predecessors into P in one pass.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import INF, Graph
from .matrices import UNREACHED, UNSET, PrecedenceMatrix

#: Cells in one block of sources.  8192 (64 KiB per int64 array) keeps the
#: block's arrays below the memory the rest of the solve already peaks at.
_BLOCK_CELLS = 1 << 13


def _array_adjacency(g: Graph) -> tuple[list[int], list[list[tuple[int, int]]], int]:
    """Present ids ascending, each one's (w * r + position, position) neighbor
    list in ``g.adj`` order, and the sum of the edge weights."""
    ids = sorted(g.adj)
    r = len(ids)
    pos = {v: k for k, v in enumerate(ids)}
    adj = [[(w * r + pos[v], pos[v]) for v, w in g.adj[u].items()] for u in ids]
    total = sum(w for nbrs in g.adj.values() for w in nbrs.values()) // 2
    return ids, adj, total


def _sssp(adj: list[list[tuple[int, int]]], source: int, unreached: int):
    """Keys ``dist * r + position`` and predecessor positions (-1: none)
    from position `source`; a vertex never reached keeps key `unreached`,
    which must exceed every reachable key."""
    r = len(adj)
    keys = [unreached] * r
    pred = [-1] * r
    keys[source] = source
    heap = [source]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        k = pop(heap)
        u = k % r
        if k > keys[u]:
            continue
        base = k - u  # dist[u] * r
        for step, v in adj[u]:
            nk = base + step
            if nk < keys[v]:
                keys[v] = nk
                pred[v] = u
                push(heap, nk)
    return keys, pred


def dijkstra(g: Graph, source: int) -> tuple[dict[int, float], dict[int, int | None]]:
    """Single-source distances/predecessors over the present vertices.

    Binary heap with lazy deletion; predecessor of the source is None,
    unreachable vertices stay at INF.
    """
    g._require(source)
    ids, adj, total = _array_adjacency(g)
    r = len(ids)
    unreached = (total + 1) * r
    keys, pred = _sssp(adj, ids.index(source), unreached)
    dist = {v: INF if k == unreached else (k - at) // r
            for at, (v, k) in enumerate(zip(ids, keys))}
    return dist, {v: None if q < 0 else ids[q] for v, q in zip(ids, pred)}


def solve_residual(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix) -> None:
    """Write the residual pairs' distances into the int64 matrix `d` and
    merge the residual predecessors into P.

    A one-vertex residual is a no-op (the diagonal is preset).  For every
    other reachable pair (i, j) whose residual predecessor q of j is not i
    itself, the entry is expanded through any contraction structure on the
    residual edge (q, j): P[i][j] becomes P[q][j] when that edge is itself
    a shortcut (P[q][j] set), plain q otherwise.  When q == i the last hop
    is the direct residual edge and the stored entry already applies.

    P is read live with no snapshot: the edge (q, j) lies on a shortest
    path, so it is a shortest q-j path and Dijkstra from q, which relaxes
    q's edges first, keeps q as j's predecessor; source q's merge therefore
    never rewrites P[q][j].  Unreachable cells get UNREACHED in `d` and
    keep their P.

    A shortest path uses each edge at most once, so distances stay below
    UNREACHED when the residual's edge weights sum below it; a sum that
    reaches it is refused with ValueError before any block is allocated or
    any cell written.
    """
    if len(g_r.adj) <= 1:
        return
    ids, adj, total = _array_adjacency(g_r)
    if total >= UNREACHED:
        raise ValueError(f"residual edge weights sum to {total} >= 2**63 - 1: "
                         f"distances could overflow int64")
    r = len(ids)
    unreached = (total + 1) * r
    # keys exceed int64 only for huge weights; exact Python ints then
    key_dtype = np.int64 if unreached < 2**63 else object
    vid = np.array(ids, dtype=p.cells.dtype)
    positions = np.arange(r)
    step = max(1, _BLOCK_CELLS // r)
    for lo in range(0, r, step):
        sources = range(lo, min(lo + step, r))
        keys = np.empty((len(sources), r), key_dtype)
        pred = np.empty((len(sources), r), np.int32)
        for row, s in enumerate(sources):
            keys[row], pred[row] = _sssp(adj, s, unreached)
        block = np.ix_(vid[lo:sources.stop], vid)
        d[block] = np.where(keys == unreached, UNREACHED, (keys - positions) // r)
        # P[i][j] <- P[q][j], or q when that is unset, where q = pred != i
        q = vid[pred]
        pqj = p.cells[q, vid]
        merge = (pred >= 0) & (pred != positions[lo:sources.stop, None])
        p.cells[block] = np.where(merge, np.where(pqj != UNSET, pqj, q), p.cells[block])
