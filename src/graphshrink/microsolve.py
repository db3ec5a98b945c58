"""Exact APSP on the residual graph and merge into the global matrices.

The stage fills the [1, r] corner of solve's layout (see solver.solve),
where the residual's r ids sit in the core's restore order.

Distances.  contract_core contracts a copy of the residual again, but
only down to a small core: the inner ``disassemble`` stops at _CORE_ORDER
vertices, or where every vertex left has more than _CORE_DEGREE
neighbors.  Past that point each removal costs about its degree squared
and fills the rest of the core, so a dense min-plus Floyd-Warshall
(close_core, which shares no code with baseline.floyd_warshall, the
tests' oracle) closes the core's [1, c] corner: on a contiguous c x c
copy, one triangle a pivot, then mirrored into the corner.  That is the
elimination-then-closure structure of Planken, de Weerdt and van der
Krogt (2012, P3C).  The D-only ``assemble`` then replays the inner
removals into the rest of the corner.  Distances are unique, so any
exact method gives the same D.

close_core, the replay and the predecessor rule add on uint64 views of
the corner, with UNREACHED as the one no-path value (see
matrices.UNREACHED): no sum wraps, and a distance that does not fit
below UNREACHED is refused.

Predecessors are then read off those distances.  With positive weights a
binary-heap Dijkstra over ``(distance, id)`` pops vertices in strictly
increasing order, and a later pop never improves an earlier vertex; so
its predecessor of v from s is the *tight* neighbor u (``d[s,u] + w(u,v)
== d[s,v]``) popped first, the one with the least ``(d[s,u], u)``.  As
``d[s,u] = d[s,v] - w(u,v)`` for a tight u, that is the first tight slot
of v's neighbors in (weight desc, id) order.  D is symmetric, so d[s,u]
is also d[u,s]: the rule runs _RULE_BATCH targets of consecutive
positions at a time.  For each block of sources it gathers the slices of
the batch's neighbors' rows, adds the weights, compares them with the
targets' own rows, and takes each target's first tight slot as the
tight one of largest flat index, the slots laid out last to first (see
_batch_rows), as ``assemble`` picks its first tight neighbor by rank.
Each slot's value, P[q][v] when set, else q, and each pad's, the
target's diagonal entry, is read from P before any write.  The rule then
assigns the block's rows of the batch's columns of P as one 2-D block,
which leaves the diagonal, where only a pad is tight, at its entry.  From
a source q the rule picks q's own slot of v exactly where the direct
edge is tight (d[q][v] == w(q, v)): any other tight slot y has d[q][y] >
0, so w(y, v) < w(q, v).  A last hop from the source keeps its stored
entry, which the slot's value already is where P[q][v] was set; after
the batches, one gather, compare and scatter puts UNSET back on the
unset edges with a tight direct edge.  ``_RULE_CELLS`` bounds the
targets x slots x sources cells of one block, one source at least.  A
zero weight breaks the argument (a tight neighbor may be popped after
v), so residuals with one are refused, and so are disconnected ones,
which contract_core refuses.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .assembly import assemble
from .baseline import dijkstra  # re-exported: perfbench/probe.py wraps it here by name
from .disassembly import ShrinkSequence, SolveParams, disassemble
from .graph import Graph
from .matrices import UNREACHED, UNSET, PrecedenceMatrix, fill_weights

#: The predecessor rule runs _RULE_BATCH consecutive targets at a time,
#: over blocks of sources of at most _RULE_CELLS cells (targets x slots x
#: sources), one source at least.  The rule alone under d_max=3, i_max=0,
#: medians of 15 interleaved runs, batch 16 at 2**15 / 2**16 cells:
#: grid_graph(32, 0.05, 1) 17.4 / 16.2 ms (28 ms one target at a time),
#: random_connected_graph(1024, 11) 12.9 / 12.3 ms, grid_graph(48, 0.05, 7)
#: 98.5 / 95.4 ms; batches of 8 and 32 were no faster.  2**15 keeps the
#: block's sums at 256 KiB: at 2**16 the tracemalloc peak of the bounded
#: random (1024, 11) solve came within 0.1% of test_solver's 1.35 bound.
_RULE_BATCH = 16
_RULE_CELLS = 1 << 15

#: The inner contraction stops at _CORE_ORDER vertices, or where every
#: vertex left has more than _CORE_DEGREE neighbors.  Measured under
#: d_max=3, i_max=0 (see ROADMAP): on grid_graph(32) 128 beat 64 and 256; on
#: random_connected_graph(4096, 3), where the degree stop leaves a core of
#: about 1000, 64 beat 24, 32, 48, 96 and 128.  Again with the contraction's
#: dense mirror, solve at 32 / 64 in alternating runs (medians of 5 on the
#: small graph): random_connected_graph(1024, 11) 0.13 / 0.15 s and
#: (4096, 3) 4.4-4.8 / 3.2-3.6 s on a quiet 2-vCPU VM, 0.21-0.22 / 0.26 s
#: and 5.8-6.4 / 4.4-5.3 s on a loaded one.  32 would cost the larger
#: graph more than it saves the smaller, so 64 stays.
_CORE_ORDER = 128
_CORE_DEGREE = 64

#: Cells of the block of rows one Floyd-Warshall pivot updates at once.
#: On the c = 1014 core of random_connected_graph(4096, 3) under d_max=3,
#: i_max=0, in a corner of its D (3 runs each), close_core took 2.08-2.17 s
#: in place on the corner; on the packed copy, one triangle a pivot,
#: 1.26-1.32 s at 2**14, 1.14-1.15 s at 2**15, 1.09-1.18 s at 2**16 and
#: 1.07-1.14 s at 2**17.  grid_graph(32, 0.05, 1)'s core of 128 fits in
#: one block: 4.9 -> 3.4 ms (medians of 21).
_PIVOT_CELLS = 1 << 16


def close_core(core: Graph, dc: np.ndarray) -> None:
    """Fill the square int64 `dc`, which holds UNREACHED with a zero
    diagonal, with the distances of the connected `core`, its ids
    ascending at indices 0, 1, ...: min-plus Floyd-Warshall from its edges
    (matrices.fill_weights) on a contiguous uint64 copy of `dc`, written
    back at the end, UNREACHED standing for a pair not joined yet.  A
    distance of UNREACHED or more is left at UNREACHED; an edge weight past
    int64 raises OverflowError before any write."""
    fill_weights(core, dc)
    # upper triangle only: pivot k changes neither row k nor column k
    # (du[k, k] == 0), so its true row, gathered from the upper triangle,
    # updates each block of rows in place from column lo on, which covers
    # the block's cells i <= j.  A cell below the diagonal only ever takes
    # a path length, so it stays at or above its distance, and the minimum
    # with the transpose at the end is exact
    du = dc.view(np.uint64).copy()
    c = len(du)
    step = max(1, _PIVOT_CELLS // c)
    via = np.empty(min(step, c) * c, du.dtype)
    for k in range(c):
        row = np.concatenate((du[:k, k], du[k, k:]))
        for lo in range(0, c, step):
            rows = du[lo:lo + step, lo:]
            tmp = via[:rows.size].reshape(rows.shape)
            np.add(row[lo:lo + step, None], row[lo:], out=tmp)
            np.minimum(rows, tmp, out=rows)
    np.minimum(du, du.T, out=dc.view(np.uint64))


def contract_core(g_r: Graph) -> ShrinkSequence:
    """Contract a copy of the residual `g_r` down to its core, leaving g_r
    as it was; a disconnected residual is refused with GraphError."""
    return disassemble(g_r.copy(), SolveParams(d_max=_CORE_DEGREE, n_min=_CORE_ORDER))


def solve_residual(g_r: Graph, core: ShrinkSequence, d: np.ndarray, p: PrecedenceMatrix,
                   pos: np.ndarray) -> None:
    """Write the residual pairs' distances into the int64 matrix `d` and
    merge the residual predecessors into P, both laid out by `pos`, which
    puts restore_order(core) at positions 1..r (see solver.solve); `core`
    is contract_core(g_r).  The corner of `d` must hold UNREACHED with a
    zero diagonal on entry, as DistanceMatrix allocates it.

    A one-vertex residual is a no-op (the diagonal is preset).  For every
    other pair (i, j) whose residual predecessor q of j is not i itself,
    the entry is expanded through any contraction structure on the
    residual edge (q, j): P[i][j] becomes P[q][j] when that edge is itself
    a shortcut (P[q][j] set), plain q otherwise.  When q == i the last hop
    is the direct residual edge and the stored entry already applies, and
    P[i][i] keeps its stored entry too.

    The merge reads stored P only on residual edges and the diagonal, all
    before its first write, so it reads the values P held on entry.  It
    assigns every cell of the corner, a cell it keeps its entry, then puts
    UNSET back on the unset residual edges whose direct edge is tight.
    The inner replay writes no P.  `g_r` is left as it was.

    Refused before any cell of `d` or P is written: a zero-weight edge or
    one past UNREACHED (ValueError).  Refused with ValueError once the
    distances are formed, with the corner of `d` then put back to its
    entry state, so that D and P are left as they were: a distance of
    UNREACHED or more, and an inner shortcut past int64.  solve never
    meets either, as its shortcuts and distances stay below twice the
    encoded weight sum, which it keeps below 2**63.
    """
    if len(g_r.adj) <= 1:
        return
    r = len(g_r.adj)
    dc, pc = d[1:r + 1, 1:r + 1], p.cells[1:r + 1, 1:r + 1]
    nb, wb, vb, widths, bounds, (eq, ev, ew) = _batch_rows(g_r, pos, pc)

    c = core.residual.n_present
    try:
        close_core(core.residual, d[1:c + 1, 1:c + 1])
        assemble(core, d, pos)
        if dc.max() == UNREACHED:
            raise ValueError("a distance reaches 2**63 - 1")
    except (ValueError, OverflowError) as err:  # OverflowError: an inner shortcut past int64
        dc[...] = UNREACHED
        np.fill_diagonal(dc, 0)
        raise ValueError(f"residual distances overflow int64: {err}") from err

    # a cell's flat index in its batch, in the narrowest dtype
    largest = int(np.diff(bounds).max())
    flat = np.arange(largest, dtype=np.min_scalar_type(largest - 1))
    du = dc.view(np.uint64)
    batches = zip(range(0, r, _RULE_BATCH), widths.tolist(), bounds.tolist(), bounds[1:].tolist())
    for k0, s, a, b in batches:
        k1 = k0 + _RULE_BATCH
        vb_k, rows = vb[a:b], nb[a:b].reshape(-1, s)
        wb_k, flat_k = wb[a:b].reshape(-1, s, 1), flat[:b - a].reshape(-1, s, 1)
        step = max(1, _RULE_CELLS // (b - a))
        for lo in range(0, r, step):
            first = _first_tight(du, rows, wb_k, flat_k, k0, k1, slice(lo, lo + step))
            pc[lo:lo + step, k0:k1] = vb_k.take(first).T
    # where the direct edge (q, v) is tight, the rule took q's own slot
    # from source q, and P[q][v] keeps its entry
    tight = du[eq, ev] == ew
    pc[eq[tight], ev[tight]] = UNSET


def _batch_rows(g_r: Graph, pos: np.ndarray, pc: np.ndarray):
    """The predecessor rule's slots, laid out in batches of _RULE_BATCH
    targets, for solve_residual, which describes the arguments and the
    refusals: (neighbor, weight, value) as flat arrays over the batches'
    rows, each batch's row width, the flat bounds of the batches, and the
    unset edges.

    A slot of a target v is a neighbor q of v, with q's corner index, the
    weight, and what P[s][v] becomes when q is the first tight slot of v:
    the stored P[q][v] when set, q's id otherwise.  The targets run in
    position order, and a batch lays each target's slots out as one row
    as wide as the batch's largest count plus one: pads first, then the
    slots from the last in (weight desc, id) order back to the first.  A
    pad is the target itself at weight 0 with the stored P[v][v] as its
    value, so it is always tight, and the first tight slot is the tight
    cell of the largest flat index in the target's row.  Only on the
    diagonal is no slot tight, so the diagonal keeps its entry.

    Last, the unset residual edges (q, v), as q's and v's corner indices
    and the weight: where one is tight from q, the rule's value q stands
    for the stored UNSET.
    """
    weights = [w for nbrs in g_r.adj.values() for w in nbrs.values()]
    if 0 in weights:
        raise ValueError("residual has a zero-weight edge: predecessors need positive weights")
    if max(weights, default=0) > UNREACHED:
        raise ValueError(f"residual edge weight {max(weights)} > 2**63 - 1 does not fit int64")
    r = len(g_r.adj)
    target = np.repeat(pos[np.fromiter(g_r.adj, np.intp, r)] - 1,
                       np.fromiter(map(len, g_r.adj.values()), np.intp, r))
    ident = np.fromiter(chain.from_iterable(g_r.adj.values()), np.intp, len(weights))
    weight = np.array(weights, np.int64)
    order = np.lexsort((ident, -weight, target))
    target, ident, weight = target[order], ident[order], weight[order].view(np.uint64)
    stored = pc[pos[ident] - 1, target]
    unset = stored == UNSET
    value = np.where(unset, ident.astype(stored.dtype), stored)

    counts = np.bincount(target, minlength=r)
    batch = np.arange(0, r, _RULE_BATCH)
    widths = np.maximum.reduceat(counts, batch) + 1
    width = np.repeat(widths, _RULE_BATCH)[:r]
    ends = np.cumsum(width)
    slot = np.repeat(ends - 1, width) - np.arange(ends[-1])
    pad = slot >= np.repeat(counts, width)
    at = np.repeat(np.cumsum(counts) - counts, width) + slot
    nb = np.where(pad, np.repeat(np.arange(r), width), pos[ident.take(at, mode="clip")] - 1)
    wb = np.where(pad, np.uint64(0), weight.take(at, mode="clip"))
    vb = np.where(pad, np.repeat(pc.diagonal(), width), value.take(at, mode="clip"))
    edges = pos[ident[unset]] - 1, target[unset], weight[unset]
    return nb, wb, vb, widths, np.append(0, ends)[np.append(batch, r)], edges


def _first_tight(du: np.ndarray, rows: np.ndarray, wb: np.ndarray, flat: np.ndarray,
                 k0: int, k1: int, sources: slice) -> np.ndarray:
    """The flat index of the first tight slot of each target k0..k1 - 1 of
    one batch, its slots' neighbors `rows`, weights `wb` and flat indices
    `flat`, for each source of the block `sources`.  D is symmetric: row
    q's slice stands for column q's.  The block's sums die on return,
    before the next block's."""
    sums = du[rows, sources]
    sums += wb
    return ((sums == du[k0:k1, None, sources]) * flat).max(axis=1)
