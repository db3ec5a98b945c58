"""The public surface: the package root's names, the names the benchmark
looks up in the program, and README's library example."""

import re
import sys
from pathlib import Path

import graphshrink

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import probe  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT_NAMES = [
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
    "dijkstra",
    "disassemble",
    "edge_delta",
    "extract_connected_subgraph",
    "first_bad_cell",
    "floyd_warshall",
    "parse_dimacs",
    "path_weight",
    "reconstruct_path",
    "remove_and_preserve",
    "solve",
    "write_dimacs",
]


def test_the_root_exports_exactly_its_names_and_each_resolves():
    assert graphshrink.__all__ == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(graphshrink, name) is not None, name


def test_every_layer_the_benchmark_wraps_resolves():
    # a name missing here turns its per-layer metric into null, not a failure
    tracer = Tracer()
    try:
        for owner, attr, name in probe.WRAPS:
            tracer.wrap(owner, attr, name)
        assert tracer.unmeasured == []
    finally:
        tracer.unwrap_all()


def test_the_root_names_the_benchmark_calls_resolve():
    for name in ["solve", "SolveParams", "parse_dimacs", "reconstruct_path", "path_weight",
                 "PathError", "Graph", "apsp_dijkstra"]:
        assert name in graphshrink.__all__ and hasattr(graphshrink, name), name


def test_the_readme_library_example_runs_as_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL)[1]
    scope = {}
    exec(code, scope)
    result, g = scope["result"], scope["g"]
    assert result.distances.get(1, 4) == 6
    assert scope["reconstruct_path"](result.precedence, g, 1, 4) == [1, 2, 3, 4]
