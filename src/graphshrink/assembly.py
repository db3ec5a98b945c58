"""Write the shortcuts' predecessors (before the residual solve, which
reads them), then restore removed vertices in reverse order, extending D
and P.

Both stages work on solve's restore-order layout (see solver.solve),
addressing cells through its id -> position array `pos`.  The vertices
present at each restore are a prefix of the positions, and the restored
vertex sits right behind it.  So a restore gathers row slices and writes
one contiguous row, and the matching column.

Each restore writes each cell of its row and column once.  Its distance
to every present vertex l is the minimum of (recorded edge weight + known
distance) over its recorded incident edges, taken over one k x |present|
candidate block.  The precedence entries come from the first tight
neighbor in id order (incident_edges are sorted by neighbor id).  Where
the recorded direct edge to l is itself tight, P keeps its stored entry
for that edge.  Without a P the replay writes D only.

A replay is thousands of small restores, so each restore's fixed cost is
kept low.  The records' neighbor ids, weights and positions become flat
arrays once, before the replay, and each restore slices them.  P[x(l)][l]
is read with one flat take from P's C-contiguous cells, and P[x][i] once
per neighbor x, then spread over the row by the first-neighbor index.

`to_id_order` puts a laid-out matrix back in id order in place.  It
gathers the columns of one block of rows at a time into one reused
buffer, then walks the row permutation's cycles through a one-row buffer,
so its extra memory is one block plus one row.

Distances are plain integers in the int64 matrix D.  Driven by the full
pipeline they carry the solver's (weight, hops) encoding (see
solver.solve), so "tight" is lexicographic in (weight, hops).
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from .disassembly import ShrinkSequence
from .matrices import UNREACHED, UNSET, PrecedenceMatrix

#: Cells of the block of rows whose columns to_id_order gathers at once.
#: On grid_graph(48) 2**14 to 2**16 timed alike within noise, but over
#: the 25 s grid-full benchmark loop of solves, CLI runs and reads, 2**15
#: left the peak RSS 4 MB higher than 2**12 and 2**14 did.
_BLOCK_CELLS = 1 << 14


def restore_order(seq: ShrinkSequence) -> list[int]:
    """The residual's ids ascending, then the records' vertices in reverse:
    the order in which a replay of `seq` makes them present."""
    return sorted(seq.residual.adj) + [rec.vertex for rec in reversed(seq.records)]


def to_id_order(cells: np.ndarray, pos, scale: int = 1) -> None:
    """Permute the square matrix `cells` in place so that cells[i, j]
    becomes cells[pos[i], pos[j]]; `pos` is a permutation of its indices,
    and anything else is refused with ValueError before any write.  Every
    cell other than UNREACHED is floor-divided by `scale` on the way.
    """
    n, pos = len(cells), np.asarray(pos)
    # a permutation puts one index in each of bins 0..n-1; bin n takes the
    # indices out of range
    if len(pos) != n or not np.bincount(np.where((pos >= 0) & (pos < n), pos, n),
                                        minlength=n + 1)[:n].all():
        raise ValueError(f"to_id_order needs a permutation of 0..{n - 1}")
    step = max(1, _BLOCK_CELLS // n)
    buf = np.empty((step, n), cells.dtype)
    for lo in range(0, n, step):
        rows = cells[lo:lo + step]
        # pos is a permutation, so no index clips; mode "raise" would
        # gather into a temporary and copy that into buf
        block = np.take(rows, pos, axis=1, out=buf[:len(rows)], mode="clip")
        if scale != 1:
            np.floor_divide(block, scale, out=block, where=block != UNREACHED)
        rows[...] = block
    walk = pos.tolist()
    for start in range(n):
        if walk[start] in (start, -1):  # in place, or its cycle already walked
            continue
        row = cells[start].copy()
        i = start
        while walk[i] != start:
            j = walk[i]
            cells[i] = cells[j]
            walk[i] = -1
            i = j
        cells[i] = row
        walk[i] = -1


def precede_shortcuts(seq: ShrinkSequence, p: PrecedenceMatrix, pos: np.ndarray) -> None:
    """Write P for every shortcut the contraction logged, in removal order.

    For each mutation (a, b) of removed vertex v, P[a][b] becomes P[v][b],
    or v when that is unset, and P[b][a] likewise: the a->b path now runs
    through v, or through whatever v's own contracted edge to b expands
    to.  P is laid out by `pos`.
    """
    pos = pos.tolist()  # a list: reading a numpy array per mutation is slower
    cells = p.cells
    for rec in seq.records:
        v = rec.vertex
        at_v = pos[v]
        for a, b, _, _ in rec.mutations:
            at_a, at_b = pos[a], pos[b]
            pvb = cells[at_v, at_b]
            cells[at_a, at_b] = pvb if pvb != UNSET else v
            pva = cells[at_v, at_a]
            cells[at_b, at_a] = pva if pva != UNSET else v


def assemble(seq: ShrinkSequence, d: np.ndarray, pos: np.ndarray,
             p: PrecedenceMatrix | None = None) -> None:
    """Replay the shrink sequence in reverse; afterwards D, and P when
    given, cover G_0.  Both are laid out by `pos`, which puts
    restore_order(seq) at positions 1, 2, ...

    D must hold every residual pair's distance.  Each restored pair takes P
    from its first tight neighbor x: P[x][l] (or x when unset) for the row,
    P[x][i] (or x) for the column, except where the direct edge is tight,
    which keeps P's entry.  A record naming a neighbor that is neither in
    the residual nor restored before it is refused with ValueError (naming
    the lowest such id), and so is a restore where a recorded weight plus a
    known distance wraps int64 (an UNREACHED cell, or raw weights summing
    past 2**62), before its row is written.  A record with no incident
    edges is refused with ValueError before any cell is written.
    """
    # every record's edges, in replay order, as flat arrays that each
    # restore slices: 24 bytes an edge, 0.4 MB on the benchmark's
    # random-full instance.  That workload's peak RSS reads 1 MB higher
    # with them, but undoing only them, or only the flat P read below
    # (which allocates nothing more), reads 0.6-0.8 MB below the old
    # code: the peak follows the heap layout, not these arrays.
    records = seq.records[::-1]
    bare = [rec.vertex for rec in records if not rec.incident_edges]
    if bare:
        raise ValueError(f"removal record for {bare[0]} has no incident edges")
    bounds = list(accumulate((len(rec.incident_edges) for rec in records), initial=0))
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(
        rec.incident_edges for rec in records)), np.int64).reshape(-1, 2)
    all_ids, all_enc = edges[:, 0], edges[:, 1]
    all_pos = pos[all_ids] - 1
    # k, k - 1, ..., 1 for a record's k neighbors, in the narrowest dtype:
    # the first tight one has the largest tight rank
    most = seq.max_removed_degree
    rank = np.arange(most, 0, -1, dtype=np.min_scalar_type(most))[:, None]
    # 0-based positions from here on: the restored vertex sits at `count`
    dv = d[1:, 1:]
    if p is not None:
        pv = p.cells[1:, 1:]
        # P[a][l] of positions a, l is flat[(a + 1) * stride + l + 1]
        flat, stride = p.cells.ravel(), len(p.cells)
        columns = np.arange(1, len(d))
    for count, (rec, lo, hi) in enumerate(zip(records, bounds, bounds[1:]),
                                          seq.residual.n_present):
        nbr_ids, enc, nbr_pos = all_ids[lo:hi], all_enc[lo:hi], all_pos[lo:hi]
        if nbr_pos.max() >= count:
            raise ValueError(f"removal record for {rec.vertex} names absent neighbor "
                             f"{nbr_ids[(nbr_pos >= count).argmax()]}")
        cand = enc[:, None] + dv[nbr_pos, :count]
        dist = cand.min(axis=0)
        if dist.min() < 0:  # a recorded weight plus a distance wraps negative
            raise ValueError(f"restoring {rec.vertex} overflows int64: a residual pair it "
                             f"reaches through is unreached, or the weights are too large")
        if p is not None:
            k = len(enc)
            first = k - ((cand == dist) * rank[-k:]).max(axis=0)  # first tight neighbor in id order
            # P[x(l)][l]: both present, final
            pxl = flat.take(((nbr_pos + 1) * stride).take(first) + columns[:count])
            row_val = np.where(pxl != UNSET, pxl, nbr_ids.take(first))
            # P[x][i], the stored entry for edge (x, i), per neighbor x
            pxi = pv[nbr_pos, count]
            col_val = np.where(pxi != UNSET, pxi, nbr_ids).take(first)
            # pairs whose recorded direct edge attains the minimum keep whatever P
            # holds: unset for an original edge, the intermediate for a shortcut
            keep = nbr_pos[enc == dist[nbr_pos]]
            row_val[keep] = pv[count, keep]
            col_val[keep] = pv[keep, count]
            pv[count, :count] = row_val
            pv[:count, count] = col_val
        dv[count, :count] = dist
        dv[:count, count] = dist
