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
with the least ``(d[s,u], position u)``.  As ``d[s,u] = d[s,v] - w(u,v)``
for a tight u, that is the first tight slot of v's row in (weight desc,
position) order, self slot last: each row is padded to max_degree + 1
slots with v itself at weight 0, always tight but behind every real
neighbor, so it is first only on the diagonal.  numpy finds it as one
argmax per block of sources; ``_RULE_CELLS`` bounds the cells of the
block's int64 ``dist[:, nbr]`` gather.  A zero weight breaks that
argument (a tight neighbor may be popped after v), so residuals with one
are refused, and so are disconnected ones, which the inner
``disassemble`` refuses.
"""

from __future__ import annotations

import numpy as np

from .assembly import assemble
from .baseline import dijkstra  # re-exported: perfbench/probe.py wraps it here by name
from .disassembly import SolveParams, disassemble
from .graph import Graph
from .matrices import UNREACHED, UNSET, PrecedenceMatrix

#: Cells (sources x r x (max_degree + 1)) of the int64 gather in one block
#: of the predecessor rule.  On grid_graph(32) and (48) under d_max=3,
#: i_max=0, 2**13 to 2**17 timed alike within noise; 2**17 raised the peak
#: RSS of a solve by 3.5 MB over 2**13, 2**15 by 0.8 MB.
_RULE_CELLS = 1 << 15


def solve_residual(g_r: Graph, d: np.ndarray, p: PrecedenceMatrix) -> None:
    """Write the residual pairs' distances into the int64 matrix `d` and
    merge the residual predecessors into P.

    A one-vertex residual is a no-op (the diagonal is preset).  For every
    other pair (i, j) whose residual predecessor q of j is not i itself,
    the entry is expanded through any contraction structure on the
    residual edge (q, j): P[i][j] becomes P[q][j] when that edge is itself
    a shortcut (P[q][j] set), plain q otherwise.  When q == i the last hop
    is the direct residual edge and the stored entry already applies; on
    the diagonal q is the self slot, so P[i][i] keeps its stored entry.

    The merge reads stored P only on residual edges and the diagonal, and
    reads the values P held on entry.  The inner assemble, the only inner
    stage that touches P, overwrites the residual block of P, so P is
    snapshot on those cells first (the inner assemble happens to leave P
    on every shortest-path edge as it was; the snapshot keeps the merge
    from depending on that).  `g_r` is left as it was.

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
    ids = sorted(g_r.adj)
    pos = {v: k for k, v in enumerate(ids)}
    r = len(ids)
    vid = np.array(ids, dtype=p.cells.dtype)
    width = max(map(len, g_r.adj.values())) + 1
    # slots as (-weight, position) ascending, then self slots (0, k) to the width
    rows = [sorted((-w, pos[u]) for u, w in g_r.adj[v].items()) for v in ids]
    slots = np.array([row + [(0, k)] * (width - len(row)) for k, row in enumerate(rows)], np.int64)
    wt, nbr = -slots[:, :, 0], slots[:, :, 1]
    # P[q][j] for each slot (q = nbr[j, k]), before the inner stages write
    # the residual block
    stored = p.cells[vid[nbr], vid[:, None]]

    d[vid, vid] = 0  # assemble never touches the diagonal
    assemble(seq, d, p)

    positions = np.arange(r)
    step = max(1, _RULE_CELLS // (r * width))
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        block = np.ix_(vid[lo:hi], vid)
        dist = d[block]
        k = (dist[:, nbr] + wt == dist[:, :, None]).argmax(axis=2)
        q = nbr[positions, k]
        kept = stored[positions, k]
        # a last hop from the source (the self slot on the diagonal) keeps
        # its stored entry; any other expands to the stored P[q][j] when
        # set, q itself otherwise
        p.cells[block] = np.where((q == positions[lo:hi, None]) | (kept != UNSET), kept, vid[q])
