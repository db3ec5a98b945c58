"""Exact APSP on the residual graph and merge into the global matrices.

The residual is solved by the pipeline itself.  A full ``disassemble`` +
``assemble`` on a copy of the residual writes its distances straight into
the caller's matrix: they are unique, so any exact method gives the same
D.  The predecessors are then read off those distances.  Call r the
residual order and give the k-th smallest present id position k.  With
positive weights a binary-heap Dijkstra over ``(distance, position)``
pops vertices in strictly increasing order, and a later pop never
improves an earlier vertex; so its predecessor of v from s is the
*tight* neighbor u (``d[s,u] + w(u,v) == d[s,v]``) popped first, the one
with the least ``(d[s,u], position u)``.  numpy finds it as one argmin
per block of sources (``_RULE_CELLS`` cells of its temporaries) over a
padded ``r x max_degree`` neighbor array whose rows ascend by position,
so the first occurrence breaks ties to the least position.  A zero weight
breaks that argument (a tight neighbor may be popped after v), so
residuals with one are refused, and so are disconnected ones, which the
inner ``disassemble`` refuses.

``dijkstra`` is that heap, for one source, as a standalone helper; no
stage calls it.
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
    other pair (i, j) whose residual predecessor q of j is not i itself,
    the entry is expanded through any contraction structure on the
    residual edge (q, j): P[i][j] becomes P[q][j] when that edge is itself
    a shortcut (P[q][j] set), plain q otherwise.  When q == i the last hop
    is the direct residual edge and the stored entry already applies.

    The merge reads stored P only on residual edges, and reads the values
    P held on entry.  The inner assemble, the only inner stage that
    touches P, overwrites the residual block of P, so P is snapshot on the
    residual's edges first (the inner assemble happens to leave P on every
    shortest-path edge as it was; the snapshot keeps the merge from
    depending on that).  `g_r` is left as it was.

    Refused before any cell of `d` or P is written: edge weights summing
    to UNREACHED or more (ValueError: a shortest path uses each edge at
    most once, so below that every distance stays below UNREACHED), a
    zero-weight edge (ValueError) and a disconnected residual (GraphError,
    from the inner disassemble).  Weights summing past 2**62 can make a
    candidate sum wrap int64.  The inner assemble refuses a restore whose
    candidate wraps with ValueError, before that restore's row is written
    but after earlier ones; solve never meets it, as its shortcuts and
    distances are simple paths of a graph whose doubled weight sum stays
    below 2**63.  In the predecessor rule a wrapped sum is negative, so it
    is never tight.
    """
    if len(g_r.adj) <= 1:
        return
    weights = [w for nbrs in g_r.adj.values() for w in nbrs.values()]
    total = sum(weights) // 2
    if total >= UNREACHED:
        raise ValueError(f"residual edge weights sum to {total} >= 2**63 - 1: "
                         f"distances could overflow int64")
    if 0 in weights:
        raise ValueError("residual has a zero-weight edge: predecessors need positive weights")
    seq = disassemble(g_r.copy(), SolveParams())
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

    d[vid, vid] = 0  # assemble never touches the diagonal
    assemble(seq, d, p)

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
        kept = stored[positions, k]
        # a last hop from the source keeps its stored entry; any other
        # expands to the stored P[q][j] when set, q itself otherwise
        p.cells[block] = np.where((q == positions[lo:hi, None]) | (kept != UNSET), kept, vid[q])
    # the source has no predecessor: nothing on the diagonal is tight
    p.cells[vid, vid] = diagonal
