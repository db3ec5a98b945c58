"""Full pipeline: contract, write the shortcuts' predecessors, solve the
residual, replay removals in reverse, all on the int64 cells of the
DistanceMatrix that solve returns."""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import assemble, precede_shortcuts
from .disassembly import ShrinkSequence, SolveParams, disassemble
from .graph import Graph
from .matrices import UNREACHED, DistanceMatrix, PrecedenceMatrix
from .microsolve import solve_residual


@dataclass
class SolveResult:
    distances: DistanceMatrix
    precedence: PrecedenceMatrix
    removals: int
    residual_order: int
    max_removed_degree: int
    #: new edges the contraction wrote (mutations whose old weight is INF)
    shortcuts: int
    sequence: ShrinkSequence


def solve(g: Graph, params: SolveParams = SolveParams()) -> SolveResult:
    """Compute the full distance and precedence matrices of a connected graph.

    Works on a private copy of g.  Ids removed from g before the call keep
    UNREACHED rows and columns (0 on the diagonal) and UNSET precedence.
    With the default parameters (everything unbounded, n_min = 1) the graph
    contracts to a single vertex and the residual solve is skipped entirely.

    Internally every edge weight w is encoded as w * (n + 1) + 1, so all
    comparisons are lexicographic in (weight, hop count).  Zero-weight edges
    then still carry strictly positive internal cost, which keeps the
    precedence entries acyclic when many distances tie at zero; no simple
    path has more than n - 1 hops, so the hop component never overflows into
    the weight part.  Contraction touches no matrix, so it runs before the
    matrices are allocated and refuses a disconnected graph with GraphError
    first.  Then precede_shortcuts writes the shortcuts' P entries, and the
    residual solve and assemble run on the returned DistanceMatrix's int64
    cells holding encoded distances, decoded in place at the end.  Every
    candidate distance the stages form is at most twice the sum of the
    encoded edge weights, so a graph where that reaches 2**63 is refused
    with ValueError before the matrices are allocated.
    """
    work = g.copy()
    n = g.n_original
    scale = n + 1
    both_ways = 0  # each edge is seen from both ends: twice the encoded sum
    for nbrs in work.adj.values():
        for v in nbrs:
            nbrs[v] = nbrs[v] * scale + 1
            both_ways += nbrs[v]
    if both_ways >= 2**63:
        raise ValueError(f"twice the encoded edge weights sum to {both_ways} >= 2**63: "
                         f"distances could overflow int64")
    seq = disassemble(work, params)
    m = DistanceMatrix(n)
    p = PrecedenceMatrix(n)
    precede_shortcuts(seq, p)
    solve_residual(seq.residual, m.cells, p)
    assemble(seq, m.cells, p)
    m.cells[1:, 1:] //= scale
    # the decode also divided the absent ids' UNREACHED cells
    absent = [v for v in range(1, n + 1) if v not in g.adj]
    m.cells[absent, 1:] = UNREACHED
    m.cells[1:, absent] = UNREACHED
    m.cells[absent, absent] = 0
    return SolveResult(
        distances=m,
        precedence=p,
        removals=len(seq.records),
        residual_order=seq.residual.n_present,
        max_removed_degree=seq.max_removed_degree,
        shortcuts=seq.shortcuts,
        sequence=seq,
    )
