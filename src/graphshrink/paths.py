"""Explicit shortest paths out of a precedence matrix, and a certificate
that a distance and a precedence matrix are exact for a graph."""

from __future__ import annotations

import numpy as np

from .graph import INF, Graph
from .matrices import UNREACHED, UNSET, DistanceMatrix, PrecedenceMatrix

#: Cells in one block of first_bad_cell (1 MiB per 8-byte array).
_CHECK_CELLS = 1 << 17


class PathError(ValueError):
    """The precedence matrix is inconsistent with the graph."""


def reconstruct_path(p: PrecedenceMatrix, g0: Graph, i: int, j: int) -> list[int]:
    """Vertex sequence of the shortest i -> j path, as plain ints, built back
    to front from row i of P, which is read once.

    An unset entry means the last hop is the direct edge from i.  Each hop
    costs one probe of g0.adj and one test of the edge.  A simple path has
    at most n - 1 hops, so the walk stops after n: n + 1 walked vertices
    must repeat, and a corrupt matrix raises instead of looping.  On failure
    it reports the first repeated vertex (a predecessor cycle) or non-edge
    in walk order, the repeat first when one step is both.  An id outside
    1..n is refused before the walk.
    """
    if i == j:
        raise PathError("reconstruct_path requires i != j")
    if not (1 <= i <= p.order and 1 <= j <= p.order):
        raise PathError(f"pair ({i},{j}) has an id outside 1..{p.order}")
    row = memoryview(p.cells[i])  # items read as Python ints
    adj = g0.adj
    path = [j]
    append = path.append
    cur = j
    for _ in range(g0.n_original):
        pred = row[cur] or i  # UNSET is 0
        nbrs = adj.get(pred)
        append(pred)
        if nbrs is None or cur not in nbrs:
            break
        if pred == i:
            path.reverse()
            return path
        cur = pred
    # the walk failed: name its first repeat, which n hops without a
    # non-edge always hold, else the non-edge of its last step
    seen = set()
    for v in path:
        if v in seen:
            raise PathError(f"predecessor cycle at vertex {v} for pair ({i},{j})")
        seen.add(v)
    raise PathError(f"consecutive pair ({path[-1]},{path[-2]}) not adjacent for pair ({i},{j})")


def path_weight(g0: Graph, path: list[int]):
    """Sum of edge weights along the sequence, 0 for a single vertex; INF
    when a consecutive pair is not an edge of g0, as when a vertex is not in
    g0."""
    if not path:
        raise PathError("empty path")
    adj = g0.adj
    try:
        return sum(map(dict.__getitem__, map(adj.__getitem__, path[:-1]), path[1:]))
    except KeyError:  # a vertex not in g0, or a non-edge
        return INF


def _shown(v) -> int | float:
    """A uint64 sum or cell as a plain number, INF from UNREACHED up."""
    return INF if v >= UNREACHED else int(v)


def first_bad_cell(g0: Graph, d: DistanceMatrix,
                   p: PrecedenceMatrix) -> tuple[int, int, str] | None:
    """First cell (i, j) of D and P that the graph refutes, as (i, j, message);
    None when every cell of 1..n is exact.

    A shortest-path certificate (McConnell, Mehlhorn, Naher and Schweitzer,
    "Certifying algorithms", 2011) in three stages.  The first stage that
    fails reports its least cell in row-major order, and the message names
    the matrix, the cell and the condition that failed.

    1. D's diagonal is 0 and D is symmetric.
    2. For each target j and source i != j, D[i][j] is the least
       D[i][q] + w(q, j) over the neighbors q of j, clipped at UNREACHED
       (UNREACHED when j has none), and the last hop P[i][j], or i when
       unset, is a neighbor q of j that attains it.  A pair with no path
       (D is UNREACHED, as for a vertex removed before the solve) passes
       exactly when P is unset.
    3. The last hops that weigh 0 form no cycle.

    Stage 2 keeps each D[i][j] at or below the distance, by induction
    along a shortest path.  Its tight last hops weigh D[i][j] - D[i][q]
    each, so a cycle of them weighs 0, and stage 3 rules those out: the
    walk of last hops from j reaches i along a path of weight D[i][j].
    So the check passes exactly when every cell holds the distance and
    the last hop of a shortest path.

    The sums are formed in uint64 (see matrices.UNREACHED) from weights
    clipped at UNREACHED, so none wraps.  D is symmetric once stage 1
    passes, so stage 2 reads the k rows D[q] for the columns, in blocks
    of at most _CHECK_CELLS sums (one source at least); a slot array maps
    each neighbor to its row.  Stage 3 runs pointer doubling over the
    cells of zero-weight last hops only, a block of rows at a time.
    Memory stays O(n + _CHECK_CELLS) beyond D and P.
    """
    n = g0.n_original
    dist, du, pc = d.cells, d.cells.view(np.uint64), p.cells
    top, no_hop = np.uint64(UNREACHED), np.iinfo(np.uint64).max

    step = max(1, _CHECK_CELLS // n)
    for lo in range(1, n + 1, step):
        ids = np.arange(lo, min(lo + step, n + 1))
        bad = dist[lo:lo + len(ids), 1:] != dist[1:, lo:lo + len(ids)].T
        bad[ids - lo, ids - 1] = dist[ids, ids] != 0
        hit = np.flatnonzero(bad)
        if hit.size:
            i, j = lo + int(hit[0]) // n, int(hit[0]) % n + 1
            want = 0 if i == j else f"D[{j}][{i}] = {d.get(j, i)}"
            return i, j, f"distance cell ({i},{j}): D[{i}][{j}] = {d.get(i, j)} != {want}"

    slot = np.full(n + 2, -1, np.intp)  # a neighbor of j -> its row of sums; -1: the sentinel's
    found, limit = None, n + 1  # a later target holds an earlier cell only above row `limit`
    for j in range(1, n + 1):
        nbrs = g0.adj.get(j, {})
        qs = np.fromiter(nbrs, np.intp)
        ws = np.fromiter((min(w, UNREACHED) for w in nbrs.values()), np.uint64)[:, None]
        slot[qs] = np.arange(len(qs))
        step = max(1, _CHECK_CELLS // (len(qs) + 1))
        for lo in range(1, limit, step):
            ids = np.arange(lo, min(lo + step, limit))
            # the sentinel row: no cell of D, passed or not, equals 2**64 - 1
            sums = np.full((len(qs) + 1, len(ids)), no_hop, np.uint64)
            np.add(du[qs, lo:lo + len(ids)], ws, out=sums[:-1])
            best = np.minimum(sums.min(axis=0), top)
            dj, pj = du[j, ids], pc[ids, j]
            # the sums of each cell's last hop; one that is no edge reads the sentinel
            hop = sums[slot[np.clip(np.where(pj == UNSET, ids, pj), 0, n + 1)], ids - lo]
            ok = (dj == best) & np.where(dj == top, pj == UNSET, hop == dj)
            bad = np.flatnonzero(~ok & (ids != j))
            if bad.size:
                b = int(bad[0])
                i, q = lo + b, int(pj[b]) or lo + b
                kind = "distance" if dj[b] != best[b] else "precedence"
                why = (f"D[{i}][{j}] = {d.get(i, j)} != min over q in N({j}) of D[{i}][q] + "
                       f"w(q,{j}) = {_shown(best[b])}" if kind == "distance" else
                       f"no path, but P[{i}][{j}] = {q} is set" if dj[b] == top else
                       f"last hop from {q}: ({q},{j}) is not an edge" if q not in nbrs else
                       f"last hop from {q}: D[{i}][{q}] + w({q},{j}) = {_shown(hop[b])} != "
                       f"D[{i}][{j}] = {d.get(i, j)}")
                found, limit = (i, j, f"{kind} cell ({i},{j}): {why}"), i
                break
        slot[qs] = -1
    if found:
        return found

    # every last hop is tight now, so (q, j) weighs 0 exactly when
    # D[i][q] == D[i][j], and then q and j both lie on an edge of weight 0
    cols = np.array([v for v in range(1, n + 1) if 0 in g0.adj.get(v, {}).values()], np.intp)
    t = len(cols)
    step = max(1, _CHECK_CELLS // max(t, 1))
    for lo in range(1, n + 1, step):
        ids = np.arange(lo, min(lo + step, n + 1))[:, None]
        last = np.where((pc[ids, cols] == UNSET) | (cols == ids), ids, pc[ids, cols])
        cells = np.flatnonzero((last != ids) & (dist[ids, last] == dist[ids, cols]))
        c = len(cells)
        to = cells // t * t + np.searchsorted(cols, last.flat[cells])  # the cell (i, q)
        # c: the walk has reached i or a hop of positive weight
        nxt = np.append(np.where(np.isin(to, cells), np.searchsorted(cells, to), c), c)
        for _ in range(c.bit_length()):  # 2**steps > c: every walk that ends has ended
            nxt = nxt[nxt]
        stuck = np.flatnonzero(nxt[:c] != c)
        if stuck.size:
            i, j = lo + int(cells[stuck[0]]) // t, int(cols[cells[stuck[0]] % t])
            return i, j, f"precedence cell ({i},{j}): its last hops cycle at weight 0 short of {i}"
    return None
