"""Undirected weighted simple graph with vertex removal support.

Vertices carry 1-based integer ids that stay stable while the graph is
contracted: removing a vertex never re-labels the survivors, so distance
and precedence matrices can be indexed by original id at every stage.
"""

from __future__ import annotations

import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

INF = float("inf")

#: Largest edge weight accepted in a DIMACS file.  It does not by itself
#: keep distances inside int64: solve refuses a graph whose encoded edge
#: weights (w * (n + 1) + 1), summed and doubled, reach 2**63.
MAX_WEIGHT = 2**32 - 1


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    avg_degree: Fraction
    max_degree: int


class Graph:
    """Simple undirected graph: dict-of-dict adjacency, no loops, no parallel edges.

    ``adj`` maps each *present* vertex id to ``{neighbor: weight}``; weights are
    non-negative ints.  Removed vertices disappear from ``adj`` entirely.
    """

    __slots__ = ("n_original", "adj", "m")

    def __init__(self, n: int):
        if n < 1:
            raise GraphError(f"graph order must be >= 1, got {n}")
        self.n_original = n
        self.adj: dict[int, dict[int, int]] = {v: {} for v in range(1, n + 1)}
        self.m = 0

    # -- queries ---------------------------------------------------------

    @property
    def n_present(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each undirected edge once, as (u, v, w) with u < v, ascending."""
        for u in sorted(self.adj):
            nbrs = self.adj[u]
            for v in sorted(nbrs):
                if u < v:
                    yield u, v, nbrs[v]

    # -- mutation --------------------------------------------------------

    def set_edge(self, u: int, v: int, w: int) -> None:
        if u == v:
            raise GraphError(f"self-loop on vertex {u} rejected")
        try:
            w = operator.index(w)
        except TypeError:
            raise GraphError(f"edge ({u},{v}) needs an integer weight, got {w!r}") from None
        if w < 0:
            raise GraphError(f"edge ({u},{v}) needs a non-negative weight, got {w}")
        self._require(u)
        self._require(v)
        if v not in self.adj[u]:
            self.m += 1
        self.adj[u][v] = w
        self.adj[v][u] = w

    def remove_vertex(self, v: int) -> list[tuple[int, int]]:
        """Delete v and its incident edges; return those edges as they were,
        sorted by neighbor id."""
        self._require(v)
        incident = sorted(self.adj[v].items())
        for nbr, _ in incident:
            del self.adj[nbr][v]
        self.m -= len(incident)
        del self.adj[v]
        return incident

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n_original = self.n_original
        g.adj = {v: dict(nbrs) for v, nbrs in self.adj.items()}
        g.m = self.m
        return g

    # -- structure -------------------------------------------------------

    def require_connected(self) -> None:
        """Refuse a disconnected graph with GraphError naming a witness pair."""
        witness = self.unreachable_pair()
        if witness is not None:
            raise GraphError(f"graph is disconnected: no path between vertices "
                             f"{witness[0]} and {witness[1]}")

    def unreachable_pair(self) -> tuple[int, int] | None:
        """(start, unreached) witness if disconnected, else None."""
        if not self.adj:
            raise GraphError("connectivity undefined on an empty graph")
        start = min(self.adj)
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) == len(self.adj):
            return None
        missing = min(v for v in self.adj if v not in seen)
        return start, missing

    def stats(self) -> GraphStats:
        n = len(self.adj)
        max_deg = max((len(nbrs) for nbrs in self.adj.values()), default=0)
        return GraphStats(n=n, m=self.m, avg_degree=Fraction(2 * self.m, n), max_degree=max_deg)

    def _require(self, v: int) -> None:
        if v not in self.adj:
            raise GraphError(f"vertex {v} not present")

    def __repr__(self) -> str:
        return f"Graph(n={len(self.adj)}/{self.n_original}, m={self.m})"


def extract_connected_subgraph(g: Graph, size: int, seed: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on a BFS ball of exactly `size` vertices.

    The start vertex is picked by the seeded RNG; BFS expands neighbors in
    ascending id so the result is reproducible.  Returns the subgraph with
    vertices re-labeled 1..size plus ``mapping`` where ``mapping[new_id - 1]``
    is the original id.
    """
    if not 1 <= size <= g.n_present:
        raise GraphError(f"subgraph size {size} outside 1..{g.n_present}")
    g.require_connected()

    rng = random.Random(seed)
    start = rng.choice(sorted(g.adj))
    ball: list[int] = []
    seen = {start}
    queue = deque([start])
    while queue and len(ball) < size:
        u = queue.popleft()
        ball.append(u)
        for v in sorted(g.adj[u]):
            if v not in seen:
                seen.add(v)
                queue.append(v)

    mapping = sorted(ball)
    new_id = {old: i + 1 for i, old in enumerate(mapping)}
    keep = set(ball)
    sub = Graph(size)
    for old_u in mapping:
        for old_v, w in g.adj[old_u].items():
            if old_v in keep and old_u < old_v:
                sub.set_edge(new_id[old_u], new_id[old_v], w)
    return sub, mapping
