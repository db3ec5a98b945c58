"""Full pipeline: contract, write the shortcuts' predecessors, solve the
residual, replay removals in reverse, all on the int64 cells of the
DistanceMatrix that solve returns.  solve owns the matrices' layout (see
its docstring); every stage addresses D and P through its one id ->
position array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble, precede_shortcuts, restore_order, to_id_order
from .disassembly import ShrinkSequence, SolveParams, disassemble
from .graph import Graph
from .matrices import DistanceMatrix, PrecedenceMatrix
from .microsolve import contract_core, solve_residual


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
    the weight part.  Every candidate distance the stages form is at most
    twice the sum of the encoded edge weights, so a graph where that
    reaches 2**63 is refused with ValueError before the matrices are
    allocated.

    Contraction touches no matrix, so it runs before the matrices are
    allocated and refuses a disconnected graph with GraphError first.  It
    runs twice: disassemble with `params`, then microsolve.contract_core,
    which contracts the residual further down to a dense core and so
    continues the same elimination order.  The layout follows that order.
    While the stages run, positions 1, 2, ... of D and P hold the core's
    ids ascending, then the core's removals in reverse, then the outer
    removals in reverse (restore_order of the joined records), and last
    the ids removed before the solve; row and column 0 stay unused.
    Cells are addressed by position, but P's values stay ids.  The
    vertices present at each restore, inner or outer, are then a prefix of
    the positions, and the restored vertex sits right behind it; the
    residual fills the [1, r] corner.  One id -> position array `pos`
    serves every stage: precede_shortcuts writes the shortcuts' P
    entries, solve_residual fills the corner (its rule reads P only on
    residual edges and the diagonal) and assemble replays the outer
    removals, on the DistanceMatrix's int64 cells holding encoded
    distances.  Then one
    in-place pass per matrix (assembly.to_id_order, two blocks of rows,
    one row and an index a row of extra memory) puts the cells in id
    order, decoding D on the way; it skips UNREACHED cells, which only
    the removed ids hold.
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
    core = contract_core(seq.residual)
    m = DistanceMatrix(n)
    p = PrecedenceMatrix(n)
    removed = [v for v in range(1, n + 1) if v not in g.adj]
    pos = np.empty(n + 1, dtype=np.intp)  # id -> position in the layout
    joined = ShrinkSequence(seq.records + core.records, core.residual)
    pos[[0, *restore_order(joined), *removed]] = np.arange(n + 1)
    precede_shortcuts(seq, p, pos)
    solve_residual(seq.residual, core, m.cells, p, pos)
    assemble(seq, m.cells, pos, p)
    to_id_order(m.cells, pos, scale)
    to_id_order(p.cells, pos)
    return SolveResult(
        distances=m,
        precedence=p,
        removals=len(seq.records),
        residual_order=seq.residual.n_present,
        max_removed_degree=seq.max_removed_degree,
        shortcuts=seq.shortcuts,
        sequence=seq,
    )
