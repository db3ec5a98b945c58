"""Exact APSP on the residual graph and merge into the global matrices.

The stage works on the [1, r] corner of solve's restore-order layout
(see assembly): the residual's r ids ascending at positions 1..r.  The
residual is solved by the pipeline itself.  A full ``disassemble`` of a
copy of the residual, then a D-only ``assemble``, write its distances
straight into that corner.  They are unique, so any exact method gives
the same D.  On entry the corner holds only UNREACHED and a zero
diagonal, the same in any order, so it is taken as laid out in the inner
restore order and nothing has to move before the replay.  After it, one
in-place pass (assembly.to_id_order, with one block of rows and one row
of extra memory) puts the corner back in ascending id order.

The predecessors are then read off those distances.  Give the k-th
smallest present id position k.  With positive weights a binary-heap
Dijkstra over ``(distance, position)`` pops vertices in strictly
increasing order, and a later pop never improves an earlier vertex; so
its predecessor of v from s is the *tight* neighbor u
(``d[s,u] + w(u,v) == d[s,v]``) popped first, the one with the least
``(d[s,u], position u)``.  As ``d[s,u] = d[s,v] - w(u,v)`` for a tight u,
that is the first tight slot of v's row in (weight desc, position) order,
self slot last: each row is padded to max_degree + 1 slots with v itself
at weight 0, always tight but behind every real neighbor, so it is first
only on the diagonal.  numpy finds it as one argmax per block of sources,
read from the corner by row slices; ``_RULE_CELLS`` bounds the cells of
the block's int64 ``dist[:, nbr]`` gather.  A zero weight breaks that
argument (a tight neighbor may be popped after v), so residuals with one
are refused, and so are disconnected ones, which the inner
``disassemble`` refuses.
"""

from __future__ import annotations

import numpy as np

from .assembly import assemble, restore_order, to_id_order
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
    merge the residual predecessors into P, both laid out with the
    residual's ids ascending at positions 1..r.  The corner of `d` must
    hold UNREACHED with a zero diagonal on entry, as DistanceMatrix
    allocates it.

    A one-vertex residual is a no-op (the diagonal is preset).  For every
    other pair (i, j) whose residual predecessor q of j is not i itself,
    the entry is expanded through any contraction structure on the
    residual edge (q, j): P[i][j] becomes P[q][j] when that edge is itself
    a shortcut (P[q][j] set), plain q otherwise.  When q == i the last hop
    is the direct residual edge and the stored entry already applies; on
    the diagonal q is the self slot, so P[i][i] keeps its stored entry.

    The merge reads stored P only on residual edges and the diagonal, and
    reads the values P held on entry: the inner replay writes no P, and
    where the merge writes P[q][j] for a shortest-path edge (q, j), q is
    its own first tight slot, so it writes back the stored entry.  `g_r`
    is left as it was.

    Refused before any cell of `d` or P is written: edge weights summing
    to UNREACHED or more (ValueError: a shortest path uses each edge at
    most once, so below that every distance stays below UNREACHED), a
    zero-weight edge (ValueError) and a disconnected residual (GraphError,
    from the inner disassemble).  Weights summing past 2**62 can make a
    candidate sum wrap int64.  The inner replay refuses a restore whose
    candidate wraps with ValueError; the corner of `d` is then put back
    to its entry state, so that refusal leaves D and P as they were too.
    solve never meets it, as its shortcuts and distances are simple paths
    of a graph whose doubled weight sum stays below 2**63.  In the
    predecessor rule a wrapped sum is negative, so it is never tight.
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

    dc, pc = d[1:r + 1, 1:r + 1], p.cells[1:r + 1, 1:r + 1]
    try:
        assemble(seq, d)
    except ValueError:
        dc[...] = UNREACHED
        np.fill_diagonal(dc, 0)
        raise
    at = {v: k for k, v in enumerate(restore_order(seq), 1)}
    to_id_order(d[:r + 1, :r + 1], [0] + [at[v] for v in ids])

    positions = np.arange(r)
    step = max(1, _RULE_CELLS // (r * width))
    for lo in range(0, r, step):
        dist = dc[lo:lo + step]
        k = (dist[:, nbr] + wt == dist[:, :, None]).argmax(axis=2)
        q = nbr[positions, k]
        kept = pc[q, positions]  # P[q][j], as on entry
        # a last hop from the source (the self slot on the diagonal) keeps
        # its stored entry; any other expands to the stored P[q][j] when
        # set, q itself otherwise
        pc[lo:lo + step] = np.where((q == positions[lo:lo + step, None]) | (kept != UNSET),
                                    kept, vid[q])
