"""Exact APSP on the residual graph and merge into the global matrices.

The residual block of D and P is filled one of two ways; the residual
itself picks which.

**By contraction**, when the residual is connected, every weight in it is
positive and twice its weight sum is below 2**63.  Residuals of
``solver.solve`` are connected with weights encoded as ``w * (n + 1) + 1``,
so only a sum that its shortcuts push past 2**62 sends them to the heap.
A full ``disassemble`` + ``assemble`` on a copy of the residual writes its
distances straight into the caller's matrix: they are unique, so any
exact method gives the same D.  The predecessors are then
read off those distances.  Call r the residual order and give the k-th
smallest present id position k.  With positive weights the heap (below)
pops vertices in strictly increasing ``(distance, position)`` order, and a
later pop never improves an earlier vertex; so Dijkstra's predecessor of v
from s is the *tight* neighbor u (``d[s,u] + w(u,v) == d[s,v]``) popped
first, the one with the least ``(d[s,u], position u)``.  numpy finds it as
one argmin per block of sources over a padded ``r x max_degree`` neighbor
array whose rows ascend by position, so the first occurrence breaks ties
to the least position.  A zero weight breaks that argument (a tight
neighbor may be popped after v), and the inner ``disassemble`` refuses a
disconnected graph: such residuals take the heap.

**By heap**, otherwise.  A binary heap with lazy deletion runs from one
source at a time over ``(distance, position)`` tuples, which pop in
exactly the order of (distance, vertex id), and writes that source's row
of D and merges its row of P.

Both paths take the residual's adjacency from ``_array_adjacency`` and
merge predecessors into P through ``_merge``; only the predecessor rule
works in blocks of sources (``_RULE_CELLS`` cells of its temporaries).
"""

from __future__ import annotations

import heapq

import numpy as np

from .assembly import assemble
from .disassembly import SolveParams, disassemble
from .graph import INF, Graph
from .matrices import UNREACHED, UNSET, PrecedenceMatrix

#: Cells (sources x r x max_degree) in one block of the predecessor rule.
#: On grid_graph(32) and (48) under d_max=3, i_max=0, 2**13 to 2**17 timed
#: alike within noise; 2**17 raised the peak RSS of a solve by 3.5 MB over
#: 2**13, 2**15 by 0.8 MB.
_RULE_CELLS = 1 << 15


def _array_adjacency(g: Graph) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Present ids ascending (id k-th smallest: position k) and, for each,
    its (position, weight) neighbor rows in ascending position."""
    ids = sorted(g.adj)
    pos = {v: k for k, v in enumerate(ids)}
    return ids, [[(pos[v], w) for v, w in sorted(g.adj[u].items())] for u in ids]


def _sssp(adj: list[list[tuple[int, int]]], source: int) -> tuple[list[int], list[int]]:
    """Distances and predecessor positions (-1: none) from position
    `source`; a vertex never reached keeps UNREACHED, so the distances are
    exact while the edge weights sum below it."""
    dist = [UNREACHED] * len(adj)
    pred = [-1] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        du, u = pop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            dv = du + w
            if dv < dist[v]:
                dist[v] = dv
                pred[v] = u
                push(heap, (dv, v))
    return dist, pred


def dijkstra(g: Graph, source: int) -> tuple[dict[int, float], dict[int, int | None]]:
    """Single-source distances/predecessors over the present vertices.

    Binary heap with lazy deletion; predecessor of the source is None,
    unreachable vertices stay at INF.  Edge weights summing to UNREACHED
    (2**63 - 1) or more are refused with ValueError.
    """
    g._require(source)
    ids, adj = _array_adjacency(g)
    total = sum(w for row in adj for _, w in row) // 2
    if total >= UNREACHED:
        raise ValueError(f"edge weights sum to {total} >= 2**63 - 1")
    dist, pred = _sssp(adj, ids.index(source))
    return ({v: INF if x == UNREACHED else x for v, x in zip(ids, dist)},
            {v: None if q < 0 else ids[q] for v, q in zip(ids, pred)})


def solve_residual(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix) -> None:
    """Write the residual pairs' distances into the int64 matrix `d` and
    merge the residual predecessors into P.

    A one-vertex residual is a no-op (the diagonal is preset).  For every
    other reachable pair (i, j) whose residual predecessor q of j is not i
    itself, the entry is expanded through any contraction structure on the
    residual edge (q, j): P[i][j] becomes P[q][j] when that edge is itself
    a shortcut (P[q][j] set), plain q otherwise.  When q == i the last hop
    is the direct residual edge and the stored entry already applies.
    Unreachable cells get UNREACHED in `d` and keep their P.

    The merge reads stored P only on residual edges, and reads the values
    P held on entry.  On the contraction path the inner assemble, the
    only inner stage that touches P, overwrites the residual block of P,
    so P is snapshot on the residual's edges first (the inner assemble
    happens to leave P on every shortest-path edge as it was; the
    snapshot keeps the merge from depending on that).  The heap path
    reads P live, which gives the same values: source q rewrites P[q][j]
    only when j's predecessor from q is not q, and an edge (q, j) read by
    the merge lies on a shortest path, so it is the shortest q-j path and
    Dijkstra from q, which relaxes q's edges first, keeps q.  `g_r` is
    left as it was.

    A shortest path uses each edge at most once, so distances stay below
    UNREACHED when the residual's edge weights sum below it; a sum that
    reaches it is refused with ValueError before any block is allocated or
    any cell written.  The contraction path also forms candidates of up to
    twice that sum, so it runs only where those fit int64.
    """
    if len(g_r.adj) <= 1:
        return
    weights = [w for nbrs in g_r.adj.values() for w in nbrs.values()]
    total = sum(weights) // 2
    if total >= UNREACHED:
        raise ValueError(f"residual edge weights sum to {total} >= 2**63 - 1: "
                         f"distances could overflow int64")
    if 2 * total < 2**63 and all(w > 0 for w in weights) and g_r.unreachable_pair() is None:
        _solve_by_contraction(g_r, d, p)
    else:
        _solve_by_heap(g_r, d, p)


def _merge(p: PrecedenceMatrix, block, keep: np.ndarray, stored: np.ndarray,
           q_ids: np.ndarray) -> None:
    """P[block] <- `stored` where `keep`, else the expansion of the last hop
    q: the stored P[q][j] when set, q itself otherwise."""
    p.cells[block] = np.where(keep | (stored != UNSET), stored, q_ids)


def _solve_by_heap(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix) -> None:
    ids, adj = _array_adjacency(g_r)
    vid = np.array(ids, dtype=p.cells.dtype)
    for s, i in enumerate(ids):
        dist, pred = _sssp(adj, s)
        d[i, vid] = dist
        pred = np.array(pred)
        q = vid[pred]
        keep = (pred < 0) | (pred == s)
        # a kept cell stays as it is; the others read P[q][j] live
        stored = np.where(keep, p.cells[i, vid], p.cells[q, vid])
        _merge(p, (i, vid), keep, stored, q)


def _solve_by_contraction(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix) -> None:
    ids, adj = _array_adjacency(g_r)
    r = len(ids)
    vid = np.array(ids, dtype=p.cells.dtype)
    width = max(map(len, adj))
    # pad each row with its own vertex at weight 1: d[s,v] + 1 != d[s,v],
    # so a pad slot is never tight
    slots = np.array([row + [(v, 1)] * (width - len(row)) for v, row in enumerate(adj)], np.int64)
    nbr, wt = slots[:, :, 0], slots[:, :, 1]
    # P[q][j] for each edge slot (q = nbr[j, k]), before the inner stages
    # write the residual block
    stored = p.cells[vid[nbr], vid[:, None]]
    diagonal = p.cells[vid, vid]

    d[vid, vid] = 0  # as the heap writes it; assemble never touches the diagonal
    assemble(disassemble(g_r.copy(), SolveParams()), d, p)

    positions = np.arange(r)
    step = max(1, _RULE_CELLS // (r * width))
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        block = np.ix_(vid[lo:hi], vid)
        dist = d[block]
        du = dist[:, nbr]  # d[s, u] for every slot u of every v
        du[du + wt != dist[:, :, None]] = UNREACHED
        k = du.argmin(axis=2)
        q = nbr[positions, k]
        source = positions[lo:hi, None]
        # the source has no predecessor; k there points at a non-tight slot
        keep = (q == source) | (positions == source)
        kept = np.where(positions == source, diagonal[lo:hi, None], stored[positions, k])
        _merge(p, block, keep, kept, vid[q])
