"""Explicit shortest paths out of a precedence matrix."""

from __future__ import annotations

import numpy as np

from .graph import INF, Graph
from .matrices import UNREACHED, UNSET, DistanceMatrix, PrecedenceMatrix

#: Cells in one row block of first_bad_precedence (1 MiB per int64 array).
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


def first_bad_precedence(g0: Graph, d: DistanceMatrix,
                         p: PrecedenceMatrix) -> tuple[int, int, int] | None:
    """First cell (i, j), i != j, in row-major order whose last hop is not a
    tight edge of g0, as (i, j, q); None when every cell passes.

    The last hop q is P[i][j], or i when unset.  It passes when (q, j) is an
    edge of g0 and D[i][q] + w(q, j) == D[i][j].  A pair with no path (D is
    UNREACHED, as for a vertex removed before the solve) passes exactly when
    P is unset.  The sums are formed in uint64 (see matrices.UNREACHED), so
    none wraps.  Edge weights are looked up in the sorted keys
    j * (n + 1) + q, one row block at a time, so memory stays
    O(m + _CHECK_CELLS); along a row the keys rise with j, which numpy's
    binary search runs fastest on.  The test is local: a zero-weight cycle of
    last hops passes it, which only reconstruct_path's walk detects.
    """
    n = g0.n_original
    scale = n + 1
    m2 = sum(map(len, g0.adj.values()))
    keys = np.fromiter((v * scale + u for u, nbrs in g0.adj.items() for v in nbrs),
                       np.int64, m2)
    weights = np.fromiter((w for nbrs in g0.adj.values() for w in nbrs.values()),
                          np.int64, m2)
    order = keys.argsort()
    keys, weights = np.append(keys[order], -1), np.append(weights[order], 0).view(np.uint64)
    cols = np.arange(1, scale)
    step = max(1, _CHECK_CELLS // n)
    for lo in range(1, scale, step):
        rows = np.arange(lo, min(lo + step, scale))[:, None]
        last = p.cells[lo:lo + len(rows), 1:].astype(np.int64)
        unset = last == UNSET
        last = np.where(unset, rows, last)
        # an id outside 1..n reads as q = 0, whose keys j * (n + 1) + q
        # match no edge
        q = np.where((last >= 1) & (last <= n), last, 0)
        key = cols * scale + q
        at = np.searchsorted(keys[:-1], key)  # past the last key: the -1 sentinel
        dist = d.cells[lo:lo + len(rows)]
        du = dist.view(np.uint64)
        ok = (keys[at] == key) & (np.take_along_axis(du, q, axis=1) + weights[at] == du[:, 1:])
        ok = np.where(dist[:, 1:] == UNREACHED, unset, ok)
        bad = np.flatnonzero(~ok & (rows != cols))
        if bad.size:
            i, j = divmod(int(bad[0]), n)
            return int(rows[i, 0]), j + 1, int(last[i, j])
    return None
