"""Contraction stage: remove low-degree vertices, preserving survivor distances.

Removing vertex v may require shortcut edges between its neighbors.  A
shortcut (a, b) through v is written only when the two-hop weight through v
is strictly smaller than both the current edge weight and the best two-hop
alternative through any other common neighbor; on ties nothing is written,
because an equally short route already survives.  Every removal is logged
so the assembly stage can replay it in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import INF, Graph, GraphError
from .matrices import UNSET, PrecedenceMatrix

#: Parameter value meaning "no limit" for d_max / i_max.
UNBOUNDED = INF


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
    # (u, v, old_weight_or_INF, new_weight); only strict improvements appear
    mutations: list[tuple[int, int, float, int]] = field(default_factory=list)
    edge_delta: int = 0


@dataclass
class ShrinkSequence:
    records: list[RemovalRecord]
    residual: Graph

    @property
    def max_removed_degree(self) -> int:
        return max((len(r.incident_edges) for r in self.records), default=0)


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


def edge_delta(g: Graph, v: int) -> int:
    """Net edge-count change if v were removed with distance preservation.

    -degree(v) plus one per neighbor pair that is not yet adjacent and whose
    only sufficiently short two-hop route runs through v.  Pure: g untouched.
    """
    nbrs = sorted(g.adj[v])
    k = len(nbrs)
    if k == 0:
        raise GraphError(f"edge_delta undefined for isolated vertex {v}")
    delta = -k
    for idx, a in enumerate(nbrs):
        for b in nbrs[idx + 1:]:
            if b in g.adj[a]:
                continue
            s = g.adj[v][a] + g.adj[v][b]
            if s < best_alternative_two_hop(g, a, b, v):
                delta += 1
    return delta


def remove_and_preserve(g: Graph, v: int, p: PrecedenceMatrix) -> RemovalRecord:
    """Remove v, writing whatever shortcuts are needed to keep all surviving
    pairwise distances intact, and extend the precedence matrix through v."""
    nbrs = sorted(g.adj[v])
    if not nbrs:
        raise GraphError(f"cannot remove isolated vertex {v}")
    # decide every pair against the pre-removal state, then apply; deciding
    # against a half-mutated graph would let an earlier shortcut suppress a
    # later one and make the realized edge count diverge from edge_delta
    mutations: list[tuple[int, int, float, int]] = []
    new_edges = 0
    for idx, a in enumerate(nbrs):
        for b in nbrs[idx + 1:]:
            s = g.adj[v][a] + g.adj[v][b]
            cur = g.adj[a].get(b, INF)
            if s >= cur:
                continue
            if s >= best_alternative_two_hop(g, a, b, v):
                continue
            mutations.append((a, b, cur, s))
            if cur == INF:
                new_edges += 1
    for a, b, _, s in mutations:
        g.set_edge(a, b, s)
        # predecessor of b on the a->b path now runs through v (or
        # through whatever v's own contracted edge to b expands to)
        pvb = p.get(v, b)
        p.set(a, b, pvb if pvb != UNSET else v)
        pva = p.get(v, a)
        p.set(b, a, pva if pva != UNSET else v)
    incident = g.remove_vertex(v)
    return RemovalRecord(
        vertex=v,
        incident_edges=incident,
        mutations=mutations,
        edge_delta=new_edges - len(incident),
    )


def disassemble(g: Graph, params: SolveParams, p: PrecedenceMatrix) -> ShrinkSequence:
    """Contract g in place down to n_min vertices (or until blocked).

    Vertices are processed in ascending degree, ascending id within a degree;
    after each removal the neighbors whose degree dropped to the current
    level are re-examined through an explicit LIFO stack (recursion would
    overflow on long degree-1 chains).  A vertex is removed only when its
    edge delta stays within i_max.  Stops at n_min present vertices or after
    a full sweep that removes nothing.
    """
    if not g.is_connected():
        raise GraphError("disassembly requires a connected graph")
    records: list[RemovalRecord] = []
    n_min = params.n_min
    gate_open = params.i_max == UNBOUNDED

    def removable(v: int) -> bool:
        return gate_open or edge_delta(g, v) <= params.i_max

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
                if g.n_present <= n_min:
                    break
                if v not in g.adj or len(g.adj[v]) != d:
                    continue
                if not removable(v):
                    continue
                rec = remove_and_preserve(g, v, p)
                records.append(rec)
                removed_in_sweep = True
                stack = [u for u, _ in rec.incident_edges if len(g.adj[u]) <= d]
                while stack and g.n_present > n_min:
                    u = stack.pop()
                    if u not in g.adj:
                        continue
                    du = len(g.adj[u])
                    if du == 0 or du > d or not removable(u):
                        continue
                    rec_u = remove_and_preserve(g, u, p)
                    records.append(rec_u)
                    stack.extend(w for w, _ in rec_u.incident_edges
                                 if w in g.adj and len(g.adj[w]) <= d)
            d += 1
        if not removed_in_sweep:
            break
    return ShrinkSequence(records=records, residual=g)
