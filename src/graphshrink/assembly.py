"""Write the shortcuts' predecessors (before the residual solve, which
reads them), then restore removed vertices in reverse order, extending D
and P.

The restore order (residual ids ascending, then the records' vertices in
reverse) is built once, so the vertices present at each restore are a
prefix of it.  Each restore is one pass over the restored vertex's row and
column, and writes each of their cells once: its distance to every present
vertex l is the minimum of (recorded edge weight + known distance) over its
recorded incident edges, taken over one k x |present| candidate block, and
the precedence entries come from the first tight neighbor in id order
(incident_edges are sorted by neighbor id).  Where the recorded direct
edge to l is itself tight, P keeps its stored entry for that edge.

Distances are plain integers in the int64 matrix D.  Driven by the full
pipeline they carry the solver's (weight, hops) encoding (see
solver.solve), so "tight" is lexicographic in (weight, hops).
"""

from __future__ import annotations

import numpy as np

from .disassembly import ShrinkSequence
from .matrices import UNSET, PrecedenceMatrix


def precede_shortcuts(seq: ShrinkSequence, p: PrecedenceMatrix) -> None:
    """Write P for every shortcut the contraction logged, in removal order.

    For each mutation (a, b) of removed vertex v, P[a][b] becomes P[v][b],
    or v when that is unset, and P[b][a] likewise: the a->b path now runs
    through v, or through whatever v's own contracted edge to b expands
    to.
    """
    cells = p.cells
    for rec in seq.records:
        v = rec.vertex
        for a, b, _, _ in rec.mutations:
            pvb = cells[v, b]
            cells[a, b] = pvb if pvb != UNSET else v
            pva = cells[v, a]
            cells[b, a] = pva if pva != UNSET else v


def assemble(seq: ShrinkSequence, d: np.ndarray, p: PrecedenceMatrix) -> None:
    """Replay the shrink sequence in reverse; afterwards D and P cover G_0.

    D must hold every residual pair's distance.  Each restored pair takes P
    from its first tight neighbor x: P[x][l] (or x when unset) for the row,
    P[x][i] (or x) for the column, except where the direct edge is tight,
    which keeps P's entry.  A record naming a neighbor that is neither in
    the residual nor restored before it is refused with ValueError (naming
    the lowest such id), and so is a restore where a recorded weight plus a
    known distance wraps int64 (an UNREACHED cell, or raw weights summing
    past 2**62), before its row is written.
    """
    p_cells = p.cells
    order = np.array(sorted(seq.residual.adj) + [rec.vertex for rec in seq.records[::-1]],
                     dtype=np.intp)
    pos = np.full(d.shape[0], len(order), dtype=np.intp)  # never present: past the end
    pos[order] = np.arange(len(order))
    for count, rec in enumerate(reversed(seq.records), seq.residual.n_present):
        i, ids = rec.vertex, order[:count]
        nbr_ids, enc = np.array(rec.incident_edges, dtype=np.int64).T
        nbr_pos = pos[nbr_ids]
        absent = nbr_pos >= count
        if absent.any():
            raise ValueError(f"removal record for {i} names absent neighbor "
                             f"{nbr_ids[absent.argmax()]}")
        cand = enc[:, None] + d[nbr_ids[:, None], ids]
        dist = cand.min(axis=0)
        if dist.min() < 0:  # a recorded weight plus a distance wraps negative
            raise ValueError(f"restoring {i} overflows int64: a residual pair it "
                             f"reaches through is unreached, or the weights are too large")
        x = nbr_ids[(cand == dist).argmax(axis=0)]  # first tight neighbor in id order
        pxl = p_cells[x, ids]                 # P[x(l)][l]: both present, final
        row_val = np.where(pxl != UNSET, pxl, x)
        pxi = p_cells[x, i]                   # P[x(l)][i]: stored entry for edge (x(l), i)
        col_val = np.where(pxi != UNSET, pxi, x)
        # pairs whose recorded direct edge attains the minimum keep whatever P
        # holds: unset for an original edge, the intermediate for a shortcut
        keep = nbr_pos[enc == dist[nbr_pos]]
        row_val[keep] = p_cells[i, ids[keep]]
        col_val[keep] = p_cells[ids[keep], i]
        p_cells[i, ids] = row_val
        p_cells[ids, i] = col_val
        d[i, ids] = dist
        d[ids, i] = dist
