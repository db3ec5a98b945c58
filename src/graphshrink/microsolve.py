"""Exact APSP on the residual graph and merge into the global matrices.

The stage works on the [1, r] corner of solve's restore-order layout
(see assembly): the residual's r ids ascending at positions 1..r.

Distances.  A copy of the residual is contracted again, but only down to
a small core: the inner ``disassemble`` stops at _CORE_ORDER vertices, or
where every vertex left has more than _CORE_DEGREE neighbors.  Past that
point each removal costs about its degree squared and fills the rest of
the core, so a dense min-plus Floyd-Warshall (close_core, which shares no
code with baseline.floyd_warshall, the tests' oracle) closes the core's
[1, c] corner in place.  The D-only ``assemble`` then replays the inner
removals into the rest of the corner.  Distances are unique, so any exact
method gives the same D.  On entry the corner holds only UNREACHED and a
zero diagonal, the same in any order, so it is taken as laid out in the
inner restore order and nothing has to move before the replay.  After
it, one in-place pass (assembly.to_id_order, with one block of rows and
one row of extra memory) puts the corner back in ascending id order.

The core's no-path cell is _NO_PATH = 2**62 - 1, which exceeds every
distance and stays below 2**63 when doubled, so ``a + b`` in the closure
never wraps.  That holds when the residual's weights sum below it: every
core distance is then below the sum.  A residual at or past it is
contracted in full instead, the same call with a one-vertex core, so the
inner replay's refusal of a wrapping candidate still applies there.

Predecessors are then read off those distances.  Give the k-th smallest
present id position k.  With positive weights a binary-heap Dijkstra over
``(distance, position)`` pops vertices in strictly increasing order, and a
later pop never improves an earlier vertex; so its predecessor of v from
s is the *tight* neighbor u (``d[s,u] + w(u,v) == d[s,v]``) popped first,
the one with the least ``(d[s,u], position u)``.  As ``d[s,u] = d[s,v] -
w(u,v)`` for a tight u, that is the first tight slot of v's neighbors in
(weight desc, position) order.  The rule is slot-major: for one block of
sources it starts every target at its self slot (v itself, which stands
for "no tight neighbor" and is the answer only on the diagonal), then
walks the slots from the last to the first, overwriting each target whose
slot is tight, so the first tight slot is left.  Slot t runs over whole
rows when every target has a t-th neighbor, else over the targets that
do, so no target visits a slot it lacks.  The rule tracks slot numbers:
each slot's value, P[q][j] when set, else q, is read from P once, before
any write.  ``_RULE_CELLS`` bounds the sources x r cells of one block.  A
zero weight breaks the argument (a tight neighbor may be popped after
v), so residuals with one are refused, and so are disconnected ones,
which the inner ``disassemble`` refuses.
"""

from __future__ import annotations

import numpy as np

from .assembly import assemble, restore_order, to_id_order
from .baseline import dijkstra  # re-exported: perfbench/probe.py wraps it here by name
from .disassembly import SolveParams, disassemble
from .graph import Graph
from .matrices import UNREACHED, UNSET, PrecedenceMatrix

#: Cells (sources x r) of one block of the predecessor rule.  On
#: grid_graph(32) under d_max=3, i_max=0, 2**13 to 2**16 timed alike
#: within noise, and 2**12 about half again slower.  In the benchmark's
#: loop of solves, 2**14 and 2**15 left the peak RSS 4 MB higher than
#: 2**13, whose int64 blocks stay below 64 KiB.
_RULE_CELLS = 1 << 13

#: The inner contraction stops at _CORE_ORDER vertices, or where every
#: vertex left has more than _CORE_DEGREE neighbors.  Measured under
#: d_max=3, i_max=0 (see ROADMAP): on grid_graph(32) 128 beat 64 and 256; on
#: random_connected_graph(4096, 3), where the degree stop leaves a core of
#: about 1000, 64 beat 24, 32, 48, 96 and 128.
_CORE_ORDER = 128
_CORE_DEGREE = 64

#: Cells of the block of rows one Floyd-Warshall pivot updates at once.
#: On a dense c = 1000 core, 2**15 to 2**17 cut close_core from 2.4 s with
#: one c x c temporary to 2.1-2.3 s, 2**16 the fastest, where 2**12 took
#: 3.5 s.  grid_graph(32)'s core of 128 fits in one block.
_PIVOT_CELLS = 1 << 16

#: No-path cell of the min-plus core: above every distance it holds, and
#: twice it still fits in int64.
_NO_PATH = 2**62 - 1


def close_core(core: Graph, dc: np.ndarray) -> None:
    """Fill the square int64 `dc` with the distances of the connected
    `core`, its ids ascending at indices 0, 1, ...: min-plus Floyd-Warshall
    from its edges, _NO_PATH standing for a pair not joined yet.  The edge
    weights must sum below _NO_PATH."""
    at = {v: k for k, v in enumerate(sorted(core.adj))}
    dc[...] = _NO_PATH
    np.fill_diagonal(dc, 0)
    for v, nbrs in core.adj.items():
        dc[at[v], [at[u] for u in nbrs]] = list(nbrs.values())
    # pivot k leaves row k and column k as they are (dc[k, k] == 0), so
    # each pivot updates dc in place, one block of rows at a time, through
    # a temporary that stays in cache
    c = len(dc)
    step = max(1, _PIVOT_CELLS // c)
    via = np.empty((min(step, c), c), dc.dtype)
    for k in range(c):
        for lo in range(0, c, step):
            rows = dc[lo:lo + step]
            tmp = via[:len(rows)]
            np.add(rows[:, k, None], dc[k], out=tmp)
            np.minimum(rows, tmp, out=rows)


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

    The merge reads stored P only on residual edges, all before its first
    write, and on each cell it writes, just before writing it; so it reads
    the values P held on entry.  The inner replay writes no P.  `g_r` is
    left as it was.

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
    core = SolveParams(d_max=_CORE_DEGREE, n_min=_CORE_ORDER) if total < _NO_PATH else SolveParams()
    seq = disassemble(g_r.copy(), core)
    ids = sorted(g_r.adj)
    pos = {v: k for k, v in enumerate(ids)}
    r = len(ids)
    positions = np.arange(r)
    # each target's real slots as (-weight, position) ascending
    rows = [sorted((-w, pos[u]) for u, w in g_r.adj[v].items()) for v in ids]
    # slot t of every target that has one, last slot first: the targets (a
    # full slice when all have it), their neighbors' positions, the
    # weights, and the slots' numbers, counted on across slots
    slots, numbered = [], 0
    for t in range(max(map(len, rows)) - 1, -1, -1):
        has = [k for k, row in enumerate(rows) if len(row) > t]
        cells = np.array([rows[k][t] for k in has], np.int64)
        targets = slice(None) if len(has) == r else np.array(has)
        slots.append((targets, cells[:, 1], -cells[:, 0],
                      np.arange(numbered, numbered + len(has))))
        numbered += len(has)
    # per slot number, self slots last: the neighbor, and what P[s][j]
    # becomes when it is the first tight slot of j from a source s other
    # than itself: the stored P[q][j] when set, q's id otherwise
    nbr = np.concatenate([s[1] for s in slots] + [positions])
    target = np.concatenate([positions[s[0]] for s in slots] + [positions])
    dc, pc = d[1:r + 1, 1:r + 1], p.cells[1:r + 1, 1:r + 1]
    stored = pc[nbr, target]
    value = np.where(stored != UNSET, stored, np.array(ids, dtype=stored.dtype)[nbr])

    c = seq.residual.n_present
    close_core(seq.residual, d[1:c + 1, 1:c + 1])
    try:
        assemble(seq, d)
    except ValueError:
        dc[...] = UNREACHED
        np.fill_diagonal(dc, 0)
        raise
    at = {v: k for k, v in enumerate(restore_order(seq), 1)}
    to_id_order(d[:r + 1, :r + 1], [0] + [at[v] for v in ids])

    step = max(1, _RULE_CELLS // r)
    for lo in range(0, r, step):
        dist = dc[lo:lo + step]
        first = np.repeat(positions[None] + numbered, len(dist), axis=0)  # the self slots
        for targets, nbr_t, wt, number in slots:
            at_t = first[:, targets]  # a view for a full slot
            np.copyto(at_t, number, where=dist.take(nbr_t, axis=1) + wt == dist[:, targets])
            first[:, targets] = at_t
        out = value.take(first)
        # a last hop from the source (the self slot on the diagonal) keeps
        # its stored entry
        np.copyto(out, pc[lo:lo + step], where=nbr.take(first) == positions[lo:lo + step, None])
        pc[lo:lo + step] = out
