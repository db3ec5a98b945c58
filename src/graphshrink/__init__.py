"""All-pairs shortest paths on sparse undirected graphs via graph contraction."""

from .assembly import assemble, precede_shortcuts
from .baseline import apsp_dijkstra, dijkstra, floyd_warshall
from .disassembly import (
    UNBOUNDED,
    RemovalRecord,
    ShrinkSequence,
    SolveParams,
    best_alternative_two_hop,
    disassemble,
    edge_delta,
    remove_and_preserve,
)
from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .graph import INF, Graph, GraphError, GraphStats, extract_connected_subgraph
from .matrices import UNSET, DistanceMatrix, PrecedenceMatrix
from .microsolve import solve_residual
from .paths import PathError, first_bad_precedence, path_weight, reconstruct_path
from .solver import SolveResult, solve

__all__ = [
    "INF",
    "UNBOUNDED",
    "UNSET",
    "DimacsError",
    "DistanceMatrix",
    "Graph",
    "GraphError",
    "GraphStats",
    "PathError",
    "PrecedenceMatrix",
    "RemovalRecord",
    "ShrinkSequence",
    "SolveParams",
    "SolveResult",
    "apsp_dijkstra",
    "assemble",
    "best_alternative_two_hop",
    "dijkstra",
    "disassemble",
    "edge_delta",
    "extract_connected_subgraph",
    "first_bad_precedence",
    "floyd_warshall",
    "parse_dimacs",
    "path_weight",
    "precede_shortcuts",
    "reconstruct_path",
    "remove_and_preserve",
    "solve",
    "solve_residual",
    "write_dimacs",
]
