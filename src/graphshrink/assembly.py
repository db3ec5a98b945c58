"""Write the shortcuts' predecessors (before the residual solve, which
reads them), then restore removed vertices in reverse order, extending D
and P.

Each restore touches only the restored vertex's row and column: its
distance to every present vertex l is the minimum of (recorded edge weight
+ known distance) over its recorded incident edges, and the precedence
entries come from the argmin neighbor.  The per-l minima run as one
vectorized pass over a k x |present| candidate block.

Distances are plain integers in the int64 matrix D.  Driven by the full
pipeline they carry the solver's (weight, hops) encoding (see
solver.solve), so the one argmin is lexicographic in (weight, hops) and
its first occurrence lands on the lowest neighbor id (incident_edges are
sorted by neighbor id).
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

    D must hold every residual pair's distance.  A record naming a neighbor
    that is neither in the residual nor restored before it is refused with
    ValueError, and so is a restore where a positive recorded weight added
    to an UNREACHED cell wraps int64, before its row is written.
    """
    n = d.shape[0] - 1
    p_cells = p.cells
    ids_buf = np.empty(n, dtype=np.intp)
    pos = np.full(n + 1, -1, dtype=np.intp)
    residual_ids = sorted(seq.residual.adj)
    count = len(residual_ids)
    ids_buf[:count] = residual_ids
    pos[ids_buf[:count]] = np.arange(count)
    for rec in reversed(seq.records):
        i, k = rec.vertex, len(rec.incident_edges)
        ids = ids_buf[:count]
        nbr_ids = np.fromiter((nb for nb, _ in rec.incident_edges), dtype=np.intp, count=k)
        enc = np.fromiter((w for _, w in rec.incident_edges), dtype=np.int64, count=k)
        nbr_pos = pos[nbr_ids]
        if (nbr_pos < 0).any():
            raise ValueError(f"removal record for {i} names absent neighbor "
                             f"{nbr_ids[nbr_pos.argmin()]}")
        cand = enc[:, None] + d[nbr_ids[:, None], ids]
        am = cand.argmin(axis=0)
        dist = np.take_along_axis(cand, am[None], axis=0)[0]
        if dist.min() < 0:  # a recorded weight added to UNREACHED wraps negative
            raise ValueError(f"restoring {i} overflows int64: a residual pair it "
                             f"reaches through is unreached")
        x = nbr_ids[am]
        pxl = p_cells[x, ids]                 # P[x(l)][l]: both present, final
        row_val = np.where(pxl != UNSET, pxl, x)
        pxi = p_cells[x, i]                   # P[x(l)][i]: stored entry for edge (x(l), i)
        col_val = np.where(pxi != UNSET, pxi, x)

        # pairs whose recorded direct edge attains the minimum keep whatever P
        # holds: unset for an original edge, the intermediate for a shortcut
        skip_ids = nbr_ids[enc == dist[nbr_pos]]
        saved_row = p_cells[i, skip_ids]
        saved_col = p_cells[skip_ids, i]
        p_cells[i, ids] = row_val
        p_cells[ids, i] = col_val
        p_cells[i, skip_ids] = saved_row
        p_cells[skip_ids, i] = saved_col

        d[i, ids] = dist
        d[ids, i] = dist
        ids_buf[count] = i
        pos[i] = count
        count += 1
