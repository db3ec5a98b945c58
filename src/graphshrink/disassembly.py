"""Contraction stage: remove low-degree vertices, preserving survivor distances.

Removing vertex v may require shortcut edges between its neighbors.  A
shortcut (a, b) through v is written only when the two-hop weight through v
is strictly smaller than both the current edge weight and the best two-hop
alternative through any other common neighbor (the one-hop witness search
of Contraction Hierarchies); on ties nothing is written, because an equally
short route already survives.  Contraction touches no matrix: every
removal is logged, so assembly.precede_shortcuts can write the shortcuts'
predecessors and assemble can replay the removals in reverse.

Two deciders give the same mutations in the same order, each pair
decided against the pre-removal graph; disassemble's i_max gate hands its
decision on to the removal.

- Over the adjacency dicts, pair by pair: with s = w(v, a) + w(v, b),
  the scan over common neighbors stops at the first witness h != v with
  w(a, h) + w(h, b) <= s.  It is exact on any int.  remove_and_preserve
  and edge_delta always take it, and so does every removal below
  _BLOCK_DEGREE.
- On a dense mirror, for disassemble's removals of degree _BLOCK_DEGREE
  and up.  At the first of them, disassemble builds an R0 x R0 uint64
  matrix over the R0 vertices present then: w[i, j] = w(ids[i], ids[j]),
  UNREACHED (matrices.UNREACHED, the one no-path value of every dense
  stage) where there is no edge and on the diagonal.  From then on every
  removal, whichever decider decided it, writes its mutations into both
  triangles of the mirror and sets its own column to UNREACHED; once half
  the rows are dead, one np.ix_ take drops them.  A decision takes the k
  neighbor rows with one take and masks v's column.  Over the pairs
  a < b, whose indices (np.triu_indices(k, 1)) the mirror keeps for the
  _PAIR_DEGREES degrees k it decided last, s = w(v, a) + w(v, b) and
  cur = w[a, b]; a pair with s < cur is
  first tested against the witnesses among v's other neighbors (the
  k x k block of the neighbor columns), and only the pairs none of them
  witnesses scan every column.  That is exact, because a minimum over
  some columns is never below the minimum over all.  Both passes form
  min_h w[a, h] + w[b, h] in chunks, of at most _NEAR_CELLS and
  _ALT_CELLS cells.  The pair needs a mutation iff s < cur and s < alt.

The mirror holds only weights up to UNREACHED // 2: then s stays below
UNREACHED, so an UNREACHED cell never passes for a shorter route, and
no sum of two cells wraps.  That covers every encoded weight and
shortcut solve admits, as its guard keeps twice their sum below 2**63.
The mirror is not built when a weight is larger, and it is dropped when
a mutation's weight passes UNREACHED // 2; the dicts then decide every
later removal.  It takes at most R0**2 * 8 bytes (R0 = 1334, 14 MB, on
random_connected_graph(4096, 3)), and its pair indices k * (k - 1) * 8
bytes for each kept degree k, so at most _PAIR_DEGREES times those of
the largest degree decided.  Both live only while disassemble runs, so
solve frees them before it allocates D and P.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .graph import INF, Graph, GraphError
from .matrices import UNREACHED, fill_weights

#: Parameter value meaning "no limit" for d_max / i_max.
UNBOUNDED = INF

#: disassemble decides removals of at least this degree on the mirror, and
#: builds the mirror at the first of them.  12, 16 and 24 timed within
#: noise on random_connected_graph(1024, 11), (2048, 5) and grid_graph(48),
#: where 8 ran about 40% slower than 16 on the grid.
_BLOCK_DEGREE = 16

#: Cells of the largest alternative temporary of the scan over every
#: column: 64 KiB of uint64 stays in cache, and measured about 3x faster
#: than 512 KiB.  2**15 timed within noise on random_connected_graph
#: (1024, 11) and (4096, 3) and on grid_graph(48), and over a 25 s
#: grid-full benchmark run its 256 KiB temporaries left the process's
#: peak RSS 16 MB higher (heap layout; the tracemalloc peak held).
_ALT_CELLS = 1 << 13

#: The same for the neighbor pass, whose k x k block is narrow: at 2**13
#: a removal of degree 300 runs 27 pairs a chunk.  disassemble on
#: random_connected_graph(4096, 3), neighbor pass at 2**13 / 2**15 cells:
#: 8.3-8.4 / 4.4-5.5 s (two runs each, full scan at 2**13).
_NEAR_CELLS = 1 << 15

#: Degrees whose pair indices the mirror keeps, the most recently used.
#: Decisions of one degree come in short runs between lower ones, so this
#: bounds the kept indices without losing many reuses: over the 308
#: mirror decisions of random_connected_graph(1024, 11), which span 46
#: degrees, 2 keeps 112 builds (3.4 ms of np.triu_indices) where keeping
#: every degree has 46 (1.5 ms) and none 308; a full contraction of K_n
#: decides every degree from n - 1 down, and keeping every degree would
#: hold about 8 * n**3 / 3 bytes.
_PAIR_DEGREES = 2

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
        # each test also refuses NaN, which compares false with everything
        if not self.n_min >= 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if not self.d_max >= 1:
            raise ValueError(f"d_max must be >= 1 or UNBOUNDED, got {self.d_max}")
        if self.i_max != self.i_max:
            raise ValueError(f"i_max must be a number or UNBOUNDED, got {self.i_max}")


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


def _decide_dicts(g: Graph, v: int, nbrs: list[int]) -> list[Mutation]:
    adj = g.adj
    wv = adj[v]
    mutations = []
    for idx, a in enumerate(nbrs):
        na = adj[a]
        for b in nbrs[idx + 1:]:
            s = wv[a] + wv[b]
            cur = na.get(b, INF)
            if s < cur:
                # the first witness h != v with w(a, h) + w(h, b) <= s settles
                # the pair; scan the smaller of the two neighborhoods
                nb = adj[b]
                near, far = (na, nb) if len(na) <= len(nb) else (nb, na)
                for h, wh in near.items():
                    if h != v:
                        wf = far.get(h)
                        if wf is not None and wh + wf <= s:
                            break
                else:
                    mutations.append((a, b, cur, s))
    return mutations


class _Mirror:
    """Dense uint64 weights among the vertices present when it was built.

    ids holds their ids ascending, and w[i, j] = w(ids[i], ids[j]),
    UNREACHED where there is no edge and on the diagonal; a removed vertex
    keeps its row until the next compaction, and its column holds
    UNREACHED.
    """

    def __init__(self, ids: np.ndarray, w: np.ndarray):
        self.ids = ids
        self.w = w
        self.alive = np.ones(len(ids), bool)
        # per mirror, so the pairs go with it when disassemble returns
        self.pairs = functools.lru_cache(_PAIR_DEGREES)(_pairs)

    @classmethod
    def of(cls, g: Graph) -> _Mirror | None:
        """The mirror of g, or None when a weight passes UNREACHED // 2."""
        if max(max(r.values()) for r in g.adj.values()) > UNREACHED // 2:
            return None
        w = np.full((len(g.adj), len(g.adj)), UNREACHED, np.uint64)
        return cls(fill_weights(g, w), w)

    def decide(self, v: int, nbrs: list[int]) -> list[Mutation]:
        """The mutations removing v needs, as _decide_dicts gives them."""
        at = self.ids.searchsorted(nbrs)
        w = self.w.take(at, axis=0)
        cv = self.ids.searchsorted(v)
        wv = w[:, cv].copy()
        w[:, cv] = UNREACHED
        near = w[:, at]
        iu, ju = self.pairs(len(nbrs))
        s = wv[iu] + wv[ju]
        cur = near[iu, ju]
        need = s < cur
        # exact: a minimum over v's other neighbors is never below the
        # minimum over every column
        _witnessed(need, s, iu, ju, near, _NEAR_CELLS)
        _witnessed(need, s, iu, ju, w, _ALT_CELLS)
        sel = np.flatnonzero(need)
        return [(nbrs[i], nbrs[j], INF if old == UNREACHED else old, new)
                for i, j, old, new in zip(iu[sel].tolist(), ju[sel].tolist(),
                                          cur[sel].tolist(), s[sel].tolist())]

    def remove(self, v: int, mutations: list[Mutation]) -> bool:
        """Write v's removal, decided on g as the mirror holds it; False
        when a new weight passes UNREACHED // 2 and the mirror must go."""
        if mutations:
            a, b, _, new = zip(*mutations)
            if max(new) > UNREACHED // 2:
                return False
            rows, cols = self.ids.searchsorted(a), self.ids.searchsorted(b)
            self.w[rows, cols] = self.w[cols, rows] = new
        cv = self.ids.searchsorted(v)
        self.w[:, cv] = UNREACHED
        self.alive[cv] = False
        if 2 * np.count_nonzero(self.alive) <= len(self.alive):
            self._compact()
        return True

    def _compact(self) -> None:
        keep = np.flatnonzero(self.alive)
        self.ids, self.w, self.alive = self.ids[keep], self.w[np.ix_(keep, keep)], self.alive[keep]


def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(k, 1), read-only: while the mirror keeps degree k,
    its decisions of that degree share one copy."""
    iu, ju = np.triu_indices(k, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _witnessed(need: np.ndarray, s: np.ndarray, iu: np.ndarray, ju: np.ndarray,
               w: np.ndarray, cells: int) -> None:
    """Clear need[c] for every pair c = (iu[c], ju[c]) still in need whose
    best alternative over w's columns, min_h w[iu[c], h] + w[ju[c], h], is
    not above s[c]; in chunks of at most `cells` cells."""
    cand = np.flatnonzero(need)
    step = max(1, cells // w.shape[1])
    for lo in range(0, len(cand), step):
        c = cand[lo:lo + step]
        alt = w.take(iu[c], axis=0)
        alt += w.take(ju[c], axis=0)
        need[c] = s[c] < alt.min(axis=1)


def _decide(g: Graph, v: int, nbrs: list[int], mirror: _Mirror | None = None) -> list[Mutation]:
    """Every mutation that removing v needs, in (a, b) order over the sorted
    neighbors nbrs, each pair decided against the current graph: on the
    mirror from _BLOCK_DEGREE up where there is one, else over the dicts."""
    if mirror is not None and len(nbrs) >= _BLOCK_DEGREE:
        return mirror.decide(v, nbrs)
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
    return _edge_delta(_decide_dicts(g, v, nbrs), len(nbrs))


def remove_and_preserve(g: Graph, v: int) -> RemovalRecord:
    """Remove v, writing whatever shortcuts are needed to keep all surviving
    pairwise distances intact."""
    g._require(v)
    nbrs = sorted(g.adj[v])
    if not nbrs:
        raise GraphError(f"cannot remove isolated vertex {v}")
    return _apply_removal(g, v, _decide_dicts(g, v, nbrs))


def _apply_removal(g: Graph, v: int, mutations: list[Mutation]) -> RemovalRecord:
    """Remove v after writing `mutations`, which _decide must have decided
    on g as it is now: deciding against a half-mutated graph would let an
    earlier shortcut suppress a later one and make the realized edge count
    diverge from edge_delta.  The decided weights are valid edges between
    present vertices, so they go straight into g.adj, and each new edge
    (old weight INF) into g.m, without Graph.set_edge's checks."""
    adj = g.adj
    for a, b, old, s in mutations:
        adj[a][b] = adj[b][a] = s
        if old == INF:
            g.m += 1
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
    mirror = None
    mirrored = False  # built or refused once; never rebuilt
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
                    if not mirrored and len(nbrs) >= _BLOCK_DEGREE:
                        mirrored = True
                        mirror = _Mirror.of(g)
                    mutations = _decide(g, u, nbrs, mirror)
                    if _edge_delta(mutations, len(nbrs)) > params.i_max:
                        continue
                    rec = _apply_removal(g, u, mutations)
                    if mirror is not None and not mirror.remove(u, mutations):
                        mirror = None
                    records.append(rec)
                    removed_in_sweep = True
                    stack.extend(w for w, _ in rec.incident_edges if len(g.adj[w]) <= d)
            d += 1
        if not removed_in_sweep:
            break
    return ShrinkSequence(records=records, residual=g)
