"""Contraction stage: remove low-degree vertices, preserving survivor distances.

Removing vertex v may require shortcut edges between its neighbors.  A
shortcut (a, b) through v is written only when the two-hop weight through v
is strictly smaller than both the current edge weight and the best two-hop
alternative through any other common neighbor (the one-hop witness search
of Contraction Hierarchies); on ties nothing is written, because an equally
short route already survives.  Contraction touches no matrix: every
removal is logged, so assembly.precede_shortcuts can write the shortcuts'
predecessors and assemble can replay the removals in reverse.

One function decides a removal's shortcuts, for remove_and_preserve,
edge_delta and disassemble's i_max gate alike, every pair against the
pre-removal graph; the gate hands its decision on to the removal.  How it
decides depends only on the removed degree k:

- Below _BLOCK_DEGREE, pair by pair over the adjacency dicts
  (best_alternative_two_hop).
- From _BLOCK_DEGREE up, in one numpy block.  A is k x |H| int64, where H
  holds every neighbor of v's neighbors: A[a, h] = w(a, h), _BIG where
  there is no edge, and v's column masked.  Over the pairs a < b,
  s = w(v, a) + w(v, b) and cur = A[a, b]; only where s < cur is the
  alternative min_h A[a, h] + A[b, h] formed, in chunks of at most
  _ALT_CELLS cells.  The pair needs a mutation iff s < cur and s < alt.

Both give the same mutations in the same order.  The block's fixed cost
(gathering the rows, numbering H) outweighs its speed on small
neighborhoods.  On grid_graph(48), 16 was the fastest threshold measured
and no slower than the dicts alone, where 8 ran up to 30% slower; on
random_connected_graph(1024, 11) it cut the disassembly about 4x.

The block runs only when every weight in it is below _BIG // 2: then s
and every real alternative stay below _BIG, and _BIG + _BIG fits in
int64.  A removal with a larger weight (raw weights given to the
library) takes the dict path, which is exact on any int.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graph import INF, Graph, GraphError

#: Parameter value meaning "no limit" for d_max / i_max.
UNBOUNDED = INF

#: Removals of at least this degree decide their pairs in one numpy block.
_BLOCK_DEGREE = 16

#: Missing-edge sentinel of the block.  The block runs only on weights
#: below _BIG // 2, so every s and every real alternative is below _BIG,
#: and _BIG + _BIG still fits in int64.
_BIG = 2**61

#: Cells of the largest alternative temporary: 64 KiB of int64 stays in
#: cache, and measured about 3x faster than 512 KiB.
_ALT_CELLS = 1 << 13

#: (a, b, old weight or INF, new weight), a < b.
Mutation = tuple[int, int, float, int]


@dataclass(frozen=True)
class SolveParams:
    """Contraction knobs: max degree of removable vertices, max allowed edge
    count increase per removal, and the target residual order."""

    d_max: float = UNBOUNDED
    i_max: float = UNBOUNDED
    n_min: int = 1

    def __post_init__(self):
        if self.n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if self.d_max != UNBOUNDED and self.d_max < 1:
            raise ValueError(f"d_max must be >= 1 or UNBOUNDED, got {self.d_max}")


@dataclass
class RemovalRecord:
    vertex: int
    incident_edges: list[tuple[int, int]]
    # only strict improvements appear
    mutations: list[Mutation] = field(default_factory=list)


@dataclass
class ShrinkSequence:
    records: list[RemovalRecord]
    residual: Graph

    @property
    def max_removed_degree(self) -> int:
        return max((len(r.incident_edges) for r in self.records), default=0)

    @property
    def shortcuts(self) -> int:
        """New edges written: mutations of a pair that had no edge."""
        return sum(1 for r in self.records for m in r.mutations if m[2] == INF)


def best_alternative_two_hop(g: Graph, a: int, b: int, excluded: int):
    """Cheapest two-hop a-h-b over common neighbors h != excluded, or INF."""
    na, nb = g.adj[a], g.adj[b]
    if len(nb) < len(na):
        na, nb = nb, na
    best = INF
    for h, wa in na.items():
        if h == excluded:
            continue
        wb = nb.get(h)
        if wb is not None and wa + wb < best:
            best = wa + wb
    return best


def _decide_dicts(g: Graph, v: int, nbrs: list[int]) -> list[Mutation]:
    wv = g.adj[v]
    mutations = []
    for idx, a in enumerate(nbrs):
        na = g.adj[a]
        for b in nbrs[idx + 1:]:
            s = wv[a] + wv[b]
            cur = na.get(b, INF)
            if s < cur and s < best_alternative_two_hop(g, a, b, v):
                mutations.append((a, b, cur, s))
    return mutations


def _decide_block(g: Graph, v: int, nbrs: list[int]) -> list[Mutation] | None:
    """The block decision, or None when a weight is too large for it."""
    rows = [g.adj[a] for a in nbrs]
    k = len(nbrs)
    lens = np.fromiter(map(len, rows), np.int64, k)
    total = int(lens.sum())
    try:
        keys = np.fromiter(chain.from_iterable(rows), np.int64, total)
        vals = np.fromiter(chain.from_iterable(r.values() for r in rows), np.int64, total)
    except OverflowError:
        return None
    # every w(v, a) is among vals: v is in each neighbor's row
    if vals.max() >= _BIG // 2:
        return None
    # the neighbors join H so that column b exists even where no row holds b
    cols, inv = np.unique(np.concatenate((keys, nbrs)), return_inverse=True)
    w = np.full((k, len(cols)), _BIG, np.int64)
    w[np.repeat(np.arange(k), lens), inv[:total]] = vals
    vcol = int(np.searchsorted(cols, v))
    wv = w[:, vcol].copy()
    w[:, vcol] = _BIG
    iu, ju = np.triu_indices(k, 1)
    s = wv[iu] + wv[ju]
    cur = w[iu, inv[total:][ju]]
    need = s < cur
    cand = np.flatnonzero(need)
    step = max(1, _ALT_CELLS // len(cols))
    for lo in range(0, len(cand), step):
        c = cand[lo:lo + step]
        alt = w.take(iu[c], axis=0)
        alt += w.take(ju[c], axis=0)
        need[c] = s[c] < alt.min(axis=1)
    sel = np.flatnonzero(need)
    return [(nbrs[i], nbrs[j], INF if old == _BIG else old, new)
            for i, j, old, new in zip(iu[sel].tolist(), ju[sel].tolist(),
                                      cur[sel].tolist(), s[sel].tolist())]


def _decide(g: Graph, v: int, nbrs: list[int]) -> list[Mutation]:
    """Every mutation that removing v needs, in (a, b) order over the sorted
    neighbors nbrs, each pair decided against the current graph."""
    if len(nbrs) >= _BLOCK_DEGREE:
        mutations = _decide_block(g, v, nbrs)
        if mutations is not None:
            return mutations
    return _decide_dicts(g, v, nbrs)


def _edge_delta(mutations: list[Mutation], degree: int) -> int:
    return sum(1 for m in mutations if m[2] == INF) - degree


def edge_delta(g: Graph, v: int) -> int:
    """Net edge-count change if v were removed with distance preservation:
    the new edges its removal writes minus degree(v).  Pure: g untouched."""
    g._require(v)
    nbrs = sorted(g.adj[v])
    if not nbrs:
        raise GraphError(f"edge_delta undefined for isolated vertex {v}")
    return _edge_delta(_decide(g, v, nbrs), len(nbrs))


def remove_and_preserve(g: Graph, v: int) -> RemovalRecord:
    """Remove v, writing whatever shortcuts are needed to keep all surviving
    pairwise distances intact."""
    g._require(v)
    nbrs = sorted(g.adj[v])
    if not nbrs:
        raise GraphError(f"cannot remove isolated vertex {v}")
    return _apply_removal(g, v, _decide(g, v, nbrs))


def _apply_removal(g: Graph, v: int, mutations: list[Mutation]) -> RemovalRecord:
    """Remove v after writing `mutations`, which _decide must have decided
    on g as it is now: deciding against a half-mutated graph would let an
    earlier shortcut suppress a later one and make the realized edge count
    diverge from edge_delta."""
    for a, b, _, s in mutations:
        g.set_edge(a, b, s)
    return RemovalRecord(vertex=v, incident_edges=g.remove_vertex(v), mutations=mutations)


def disassemble(g: Graph, params: SolveParams) -> ShrinkSequence:
    """Contract g in place down to n_min vertices (or until blocked).

    Vertices are processed in ascending degree, ascending id within a degree;
    each vertex of exactly the current degree starts an explicit LIFO stack,
    and after each removal the neighbors left at or below that degree are
    pushed onto it (recursion would overflow on long degree-1 chains).  A
    vertex is removed only when its edge delta stays within i_max.  Stops at
    n_min present vertices or after a full sweep that removes nothing.
    """
    g.require_connected()
    records: list[RemovalRecord] = []
    n_min = params.n_min
    while g.n_present > n_min:
        removed_in_sweep = False
        d = 1
        while g.n_present > n_min:
            limit = params.d_max
            if limit == UNBOUNDED:
                limit = max(len(nbrs) for nbrs in g.adj.values())
            if d > limit:
                break
            for v in sorted(g.adj):
                if v not in g.adj or len(g.adj[v]) != d:
                    continue
                stack = [v]
                while stack and g.n_present > n_min:
                    u = stack.pop()
                    if u not in g.adj or len(g.adj[u]) > d:
                        continue
                    # one decision serves the i_max gate and the removal
                    nbrs = sorted(g.adj[u])
                    mutations = _decide(g, u, nbrs)
                    if _edge_delta(mutations, len(nbrs)) > params.i_max:
                        continue
                    rec = _apply_removal(g, u, mutations)
                    records.append(rec)
                    removed_in_sweep = True
                    stack.extend(w for w, _ in rec.incident_edges if len(g.adj[w]) <= d)
            d += 1
        if not removed_in_sweep:
            break
    return ShrinkSequence(records=records, residual=g)
