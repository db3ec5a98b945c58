"""Exact APSP on the residual graph and merge into the global matrices.

The stage fills the [1, r] corner of solve's layout (see solver.solve),
where the residual's r ids sit in the core's restore order.

Distances.  contract_core contracts a copy of the residual again, but
only down to a small core: the inner ``disassemble`` stops at _CORE_ORDER
vertices, or where every vertex left has more than _CORE_DEGREE
neighbors.  Past that point each removal costs about its degree squared
and fills the rest of the core, so a dense min-plus Floyd-Warshall
(close_core, which shares no code with baseline.floyd_warshall, the
tests' oracle) closes the core's [1, c] corner in place.  The D-only
``assemble`` then replays the inner removals into the rest of the
corner.  Distances are unique, so any exact method gives the same D.

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
is also d[u,s]: the rule runs one target v at a time, gathers the slices
of v's neighbors' rows for a block of sources, adds the weights, compares
them with v's own row, and picks the first tight slot as the one of
largest rank, ranks falling from the first slot, as ``assemble`` picks
its first tight neighbor (``argmax`` over the slots gives the same slot
but took 12.6 of the 30 us a target cost at r = 921).  Each target's
slots are sorted once, as flat arrays that each target slices, with each
slot's value, P[q][v] when set, else q, read from P before any write.
The rule then writes P's column v; a last hop from the source itself
keeps its stored entry, and so does the diagonal, where no slot is
tight.  ``_RULE_CELLS`` bounds the slots x sources cells of one block,
one source at least.  A zero weight breaks the argument (a tight
neighbor may be popped after v), so residuals with one are refused, and
so are disconnected ones, which contract_core refuses.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from .assembly import assemble
from .baseline import dijkstra  # re-exported: perfbench/probe.py wraps it here by name
from .disassembly import ShrinkSequence, SolveParams, disassemble
from .graph import Graph
from .matrices import UNREACHED, UNSET, PrecedenceMatrix, fill_weights

#: Cells (a target's slots x sources) of one block of the predecessor
#: rule; a target with more slots than that runs one source a block.
#: solve_residual under d_max=3, i_max=0, medians with 2**12 / 2**13 /
#: 2**14 / 2**15: grid_graph(32, 0.05, 1), the benchmark's grid-bounded
#: instance, 0.098 / 0.097 / 0.095 / 0.095 s (9 alternating runs, spread
#: 0.065-0.106 s), alike: there every target fits one block from 2**13 on.
#: grid_graph(64) 1.10 / 0.91 / 0.80 / 0.81 s (5 runs).  At 2**13 a
#: block's uint64 sums stay within 64 KiB.
_RULE_CELLS = 1 << 13

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
#: On a dense c = 1000 core, 2**15 to 2**17 cut close_core from 2.4 s with
#: one c x c temporary to 2.1-2.3 s, 2**16 the fastest, where 2**12 took
#: 3.5 s.  grid_graph(32)'s core of 128 fits in one block.
_PIVOT_CELLS = 1 << 16


def close_core(core: Graph, dc: np.ndarray) -> None:
    """Fill the square int64 `dc`, which holds UNREACHED with a zero
    diagonal, with the distances of the connected `core`, its ids
    ascending at indices 0, 1, ...: min-plus Floyd-Warshall from its edges
    (matrices.fill_weights) on a uint64 view of `dc`, UNREACHED standing
    for a pair not joined yet.  A distance of UNREACHED or more is left at
    UNREACHED; an edge weight past int64 raises OverflowError."""
    fill_weights(core, dc)
    # pivot k leaves row k and column k as they are (du[k, k] == 0), so
    # each pivot updates du in place, one block of rows at a time, through
    # a temporary that stays in cache
    du = dc.view(np.uint64)
    c = len(du)
    step = max(1, _PIVOT_CELLS // c)
    via = np.empty((min(step, c), c), du.dtype)
    for k in range(c):
        for lo in range(0, c, step):
            rows = du[lo:lo + step]
            tmp = via[:len(rows)]
            np.add(rows[:, k, None], du[k], out=tmp)
            np.minimum(rows, tmp, out=rows)


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

    The merge reads stored P only on residual edges, all before its first
    write, so it reads the values P held on entry; a cell it keeps it does
    not write.  The inner replay writes no P.  `g_r` is left as it was.

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
    weights = [w for nbrs in g_r.adj.values() for w in nbrs.values()]
    if 0 in weights:
        raise ValueError("residual has a zero-weight edge: predecessors need positive weights")
    if max(weights, default=0) > UNREACHED:
        raise ValueError(f"residual edge weight {max(weights)} > 2**63 - 1 does not fit int64")
    r = len(g_r.adj)
    positions = np.arange(r)
    # every target's slots, (weight desc, id), as flat arrays that each
    # target slices: the neighbor q's corner index, the weight, and what
    # P[s][v] becomes when q is the first tight slot of v from a source s
    # other than q: the stored P[q][v] when set, q's id otherwise
    rows = [sorted((-w, u) for u, w in nbrs.items()) for nbrs in g_r.adj.values()]
    bounds = list(accumulate(map(len, rows), initial=0))
    slots = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), np.int64).reshape(-1, 2)
    nbr, wt, at = pos[slots[:, 1]] - 1, (-slots[:, :1]).view(np.uint64), pos[list(g_r.adj)] - 1
    dc, pc = d[1:r + 1, 1:r + 1], p.cells[1:r + 1, 1:r + 1]
    stored = pc[nbr, np.repeat(at, np.diff(bounds))]
    value = np.where(stored != UNSET, stored, slots[:, 1].astype(stored.dtype))

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

    # k, k - 1, ..., 1 for a target's k < r slots, in the narrowest dtype:
    # the first tight slot has the largest tight rank
    rank = np.arange(r - 1, 0, -1, dtype=np.min_scalar_type(r))[:, None]
    du = dc.view(np.uint64)
    for k, a, b in zip(at.tolist(), bounds, bounds[1:]):
        nbr_k, wt_k, value_k, rank_k = nbr[a:b], wt[a:b], value[a:b], rank[a - b:]
        step = max(1, _RULE_CELLS // (b - a))
        for lo in range(0, r, step):
            # D is symmetric: row q's slice stands for column q's
            tight = du[nbr_k, lo:lo + step] + wt_k == du[k, lo:lo + step]
            # on the diagonal no slot is tight: first is then b - a, which the takes clip
            first = b - a - (tight * rank_k).max(axis=0)
            # a last hop from the source, and the diagonal, keep their stored entry
            src = positions[lo:lo + step]
            np.copyto(pc[lo:lo + step, k], value_k.take(first, mode="clip"),
                      where=(nbr_k.take(first, mode="clip") != src) & (src != k))
