"""Write the shortcuts' predecessors (before the residual solve, which
reads them), then restore removed vertices in reverse order, extending D
and P.

Both stages work on solve's restore-order layout (see solver.solve),
addressing cells through its id -> position array `pos`.  The vertices
present at each restore are a prefix of the positions, and the restored
vertex sits right behind it.  So a restore gathers row slices and writes
one contiguous row, and the matching column.  In that layout P[i][j] is
the true last hop into j on the i -> j path, i itself where that is the
direct edge, so every stage copies stored entries as they are; UNSET is
the id-order encoding of "i itself", which only to_id_order writes.

Each restore writes each cell of its row and column once.  Its distance
to every present vertex l is the minimum of (recorded edge weight + known
distance) over its recorded incident edges, taken over one k x |present|
candidate block.  The precedence entries come from the first tight
neighbor in id order (incident_edges are sorted by neighbor id).  Where
the recorded direct edge to l is itself tight, P keeps its stored entry
for that edge.  Without a P the replay writes D only.

A replay is thousands of small restores, so whatever does not depend on
the restore is done once, before the replay.  The records' neighbor ids,
weights and positions become flat arrays that each restore slices, every
record's neighbors are checked to be present, and each edge (x, i) gets
its base in the flat P and its stored P[x][i] and P[i][x]: restore c
writes only row c and column c, both before i's position, so those two
cells hold their entry values until i is restored.  A restore adds its
weights into the gathered rows in place, ranks the tight cells in one
reused buffer, reads P[x(l)][l] with one flat take from P's cells, which
must be C-contiguous, and spreads P[x][i] over the column by the
first-neighbor index.

`to_id_order` puts a laid-out matrix back in id order in place, in one
pass over the cells.  It walks the row permutation's cycles once, then
takes the rows block by block in walk order: it gathers a block's source
rows, permutes their columns into one reused buffer (decoding D or P on
the way) and scatters them to their final rows.  A row's source is the next
row of its cycle, written later, except at the cycle's last row, whose
source, the cycle's first row, a one-row buffer keeps when the cycle
crosses a block's end.  So its extra memory is two blocks plus one row,
and the walk's few arrays of one index a row.

Distances are plain integers in the int64 matrix D, and a restore forms
its candidates on a uint64 view of it, with UNREACHED as the one no-path
value (see matrices.UNREACHED).  Driven by the full pipeline they carry
the solver's (weight, hops) encoding (see solver.solve), so "tight" is
lexicographic in (weight, hops).
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from .disassembly import ShrinkSequence
from .matrices import UNREACHED, UNSET, PrecedenceMatrix

#: Cells of the block of rows to_id_order moves at once; it holds two
#: blocks, the gathered rows and the permuted ones.  D and P put in id
#: order, medians of 40 alternating in-process runs at 2**14 / 2**15
#: on a 2-vCPU VM: grid_graph(48, 0.05, 1) full 42.4 / 40.6 ms,
#: grid_graph(32, 0.05, 1) under d_max=3, i_max=0 9.1 / 8.4 ms and
#: random_connected_graph(1024, 11) full 8.8 / 8.1 ms.  That is under 1%
#: of each solve, and the earlier two-pass walk left the grid-full
#: benchmark's peak RSS 4 MB higher at 2**15 than at 2**14, so 2**14 stays.
_BLOCK_CELLS = 1 << 14


def restore_order(seq: ShrinkSequence) -> list[int]:
    """The residual's ids ascending, then the records' vertices in reverse:
    the order in which a replay of `seq` makes them present."""
    return sorted(seq.residual.adj) + [rec.vertex for rec in reversed(seq.records)]


def to_id_order(cells: np.ndarray, pos, scale: int = 1, precedence: bool = False) -> None:
    """Permute the square matrix `cells` in place so that cells[i, j]
    becomes cells[pos[i], pos[j]]; `pos` is a permutation of its indices,
    and anything else is refused with ValueError before any write.  Every
    cell other than UNREACHED is floor-divided by `scale` on the way.  With
    `precedence`, every cell equal to its new row's index i becomes UNSET:
    a last hop from i itself is the direct edge.
    """
    n, pos = len(cells), np.asarray(pos)
    # a permutation puts one index in each of bins 0..n-1; bin n takes the
    # indices out of range
    if len(pos) != n or not np.bincount(np.where((pos >= 0) & (pos < n), pos, n),
                                        minlength=n + 1)[:n].all():
        raise ValueError(f"to_id_order needs a permutation of 0..{n - 1}")
    # the rows in walk order, cycle by cycle: row dst[t] takes row src[t],
    # which is dst[t + 1] of its own cycle, so not yet written, except at
    # the cycle's last row, which takes its first; ends[t] is that last t
    walk, dst, ends = pos.tolist(), [], []
    for start in range(n):
        i = start
        while walk[i] >= 0:
            dst.append(i)
            walk[i], i = -1, walk[i]
        ends += [len(dst) - 1] * (len(dst) - len(ends))
    dst = np.array(dst, np.intp)
    src = pos[dst]
    step = max(1, _BLOCK_CELLS // n)
    buf, mask = np.empty((step, n), cells.dtype), np.empty((step, n), bool)
    # the new rows' ids in the cells' own dtype: against intp ids the
    # compare promotes, and P's decode after grid_graph(48, 0.05, 1)'s full
    # solve took 5.8-7.9 ms in place of 3.2-4.4 ms (2-vCPU VM)
    own = dst.astype(cells.dtype)[:, None] if precedence else None
    # a block reads all its rows before it writes them, so only a cycle
    # still open at a block's end needs its first row kept, permuted,
    # before the block writes it
    first, end = np.empty(n, cells.dtype), -1
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # pos is a permutation, so no index clips; mode "raise" would
        # gather into a temporary and copy that into buf
        block = np.take(cells[src[lo:hi]], pos, axis=1, out=buf[:hi - lo], mode="clip")
        if lo <= end < hi:
            block[end - lo] = first
        if ends[hi - 1] >= hi and ends[hi - 1] != end:
            end = ends[hi - 1]
            np.take(cells[src[end]], pos, out=first, mode="clip")
        if scale != 1:  # a plain floor_divide: with where= it took twice as long
            unreached = np.equal(block, UNREACHED, out=mask[:hi - lo])
            np.floor_divide(block, scale, out=block)
            np.copyto(block, UNREACHED, where=unreached)
        if precedence:
            np.copyto(block, UNSET, where=np.equal(block, own[lo:hi], out=mask[:hi - lo]))
        cells[dst[lo:hi]] = block


def precede_shortcuts(seq: ShrinkSequence, p: PrecedenceMatrix, pos: np.ndarray) -> None:
    """Write P for every shortcut the contraction logged, in removal order.

    For each mutation (a, b) of removed vertex v, P[a][b] becomes P[v][b]
    and P[b][a] becomes P[v][a]: the a->b path now runs through v, so its
    last hop is that of v's own edge to b, v itself for an original edge.
    P is laid out by `pos`, and its cells must be C-contiguous: any other P
    is refused with ValueError before any write.
    """
    stride = len(p.cells)
    flat = memoryview(_flat(p))  # items read and written as Python ints
    pos = pos.tolist()  # a list: reading a numpy array per mutation is slower
    for rec in seq.records:
        row_v = pos[rec.vertex] * stride
        for a, b, _, _ in rec.mutations:
            at_a, at_b = pos[a], pos[b]
            flat[at_a * stride + at_b] = flat[row_v + at_b]
            flat[at_b * stride + at_a] = flat[row_v + at_a]


def _flat(p: PrecedenceMatrix) -> np.ndarray:
    """P's cells as one flat view, refusing cells that ravel would copy."""
    if not p.cells.flags.c_contiguous:
        raise ValueError("P's cells must be C-contiguous")
    return p.cells.ravel()


def assemble(seq: ShrinkSequence, d: np.ndarray, pos: np.ndarray,
             p: PrecedenceMatrix | None = None) -> None:
    """Replay the shrink sequence in reverse; afterwards D, and P when
    given, cover G_0.  Both are laid out by `pos`, which puts
    restore_order(seq) at positions 1, 2, ...

    D must hold every residual pair's distance.  Each restored pair takes P
    from its first tight neighbor x: P[x][l] for the row, P[x][i] for the
    column, except where the direct edge is tight, which keeps P's entry
    for that edge.  Before any row is written, the replay refuses
    with ValueError a record with no incident edges, a record naming a
    neighbor that is neither in the residual nor restored before it (the
    first such record in replay order, naming its lowest such id), and P
    cells that are not C-contiguous.  A restore with a distance of
    UNREACHED or more (through an UNREACHED cell, or too large to fit) is
    refused with ValueError before its row is written.
    """
    # every record's edges, in replay order, as flat arrays that each
    # restore slices: 33 bytes an edge, and 24 more with P (0.95 MB on
    # the benchmark's random-full instance, 16670 edges)
    records = seq.records[::-1]
    bare = [rec.vertex for rec in records if not rec.incident_edges]
    if bare:
        raise ValueError(f"removal record for {bare[0]} has no incident edges")
    lens = [len(rec.incident_edges) for rec in records]
    bounds = list(accumulate(lens, initial=0))
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(
        rec.incident_edges for rec in records)), np.int64).reshape(-1, 2)
    all_ids, all_enc = edges[:, 0], edges[:, 1].view(np.uint64)[:, None]
    # 0-based positions from here on: the restored vertex sits at `count`,
    # and every neighbor must sit before it
    all_pos = pos[all_ids] - 1
    # each edge's restored vertex's position
    at = np.repeat(np.arange(seq.residual.n_present, seq.residual.n_present + len(records)),
                   lens)
    absent = all_pos >= at
    if absent.any():
        r = int(np.searchsorted(bounds, absent.argmax(), side="right")) - 1
        lo, hi = bounds[r], bounds[r + 1]
        raise ValueError(f"removal record for {records[r].vertex} names absent neighbor "
                         f"{all_ids[lo:hi][absent[lo:hi]].min()}")
    dv = d[1:, 1:].view(np.uint64)
    if p is not None:
        flat, stride = _flat(p), len(p.cells)
        pv = p.cells[1:, 1:]
        # P[a][l] of positions a, l is flat[(a + 1) * stride + l + 1]
        all_base = (all_pos + 1) * stride + 1
        # P[x][i] and P[i][x] of each edge (x, i): restore c writes only
        # row c and column c, both before i's position, so these cells
        # still hold what the stages before the replay wrote
        all_xi = flat[all_base + at]
        all_ix = flat[(at + 1) * stride + 1 + all_pos]
        # k, k - 1, ..., 1 for a record's k neighbors, in the narrowest
        # dtype: the first tight one has the largest tight rank
        most = seq.max_removed_degree
        rank = np.arange(most, 0, -1, dtype=np.min_scalar_type(most))[:, None]
        tight = np.empty(most * len(d), rank.dtype)
        columns = np.arange(len(d))
    for count, (rec, lo, hi) in enumerate(zip(records, bounds, bounds[1:]),
                                          seq.residual.n_present):
        nbr_pos = all_pos[lo:hi]
        cand = dv[nbr_pos, :count]
        cand += all_enc[lo:hi]
        dist = cand.min(axis=0)
        if int(dist.max()) >= UNREACHED:
            raise ValueError(f"restoring {rec.vertex} overflows int64: a residual pair it "
                             f"reaches through is unreached, or the weights are too large")
        if p is not None:
            k = hi - lo
            ranked = np.equal(cand, dist, out=tight[:k * count].reshape(k, count))
            ranked *= rank[-k:]
            first = np.subtract(k, ranked.max(axis=0), dtype=np.intp)  # first tight neighbor in id order
            # P[x(l)][l]: both present, final
            at_xl = all_base[lo:hi].take(first)
            at_xl += columns[:count]
            row_val = flat.take(at_xl)
            col_val = all_xi[lo:hi].take(first)
            # pairs whose recorded direct edge attains the minimum keep whatever P
            # holds: the row's own id for an original edge, the intermediate for
            # a shortcut
            tight_edge = all_enc[lo:hi, 0] == dist[nbr_pos]
            keep = nbr_pos[tight_edge]
            row_val[keep] = all_ix[lo:hi][tight_edge]
            col_val[keep] = all_xi[lo:hi][tight_edge]
            pv[count, :count] = row_val
            pv[:count, count] = col_val
        dv[count, :count] = dist
        dv[:count, count] = dist
