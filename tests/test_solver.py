import io

import numpy as np
import pytest
from conftest import cycle_graph, path_graph

from graphshrink import Graph, SolveParams, apsp_dijkstra, floyd_warshall, solve
from graphshrink.graph import MAX_WEIGHT
from graphshrink.matrices import read_distance_matrix, write_distance_matrix


def test_solve_refuses_when_twice_the_encoded_sum_reaches_2_63(monkeypatch):
    # order 3 encodes w as 4 w + 1, so twice the encoded sum of a two-edge
    # path is 8 (w1 + w2) + 4: it first reaches 2**63 at w1 + w2 = 2**60
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    with monkeypatch.context() as patch:
        patch.setattr(np, "full", no_allocation)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            solve(path_graph([2**59, 2**59]))
    result = solve(path_graph([2**59, 2**59 - 1]))
    assert result.distances.cells[1, 3] == 2**60 - 1


@pytest.mark.parametrize("params", [SolveParams(), SolveParams(n_min=20)])
def test_solve_max_weight_path_is_exact(params):
    g = path_graph([MAX_WEIGHT] * 40)
    result = solve(g, params)
    assert result.distances.cells[1, 41] == 40 * MAX_WEIGHT
    assert np.array_equal(result.distances.cells, floyd_warshall(g).cells)


def test_distances_above_2_53_are_exact():
    # float64 rounds 2**53 + 1 to 2**53
    g = path_graph([2**53, 1])
    result = solve(g)
    assert result.distances.cells.dtype == np.int64
    assert result.distances.get(1, 3) == result.distances.get(3, 1) == 2**53 + 1
    m, _ = apsp_dijkstra(g)
    assert m.get(1, 3) == 2**53 + 1
    assert np.array_equal(m.cells, result.distances.cells)
    out = io.StringIO()
    write_distance_matrix(result.distances, out)
    assert "9007199254740993" in out.getvalue()
    assert np.array_equal(read_distance_matrix(out.getvalue()).cells, result.distances.cells)


def test_shortcuts_counts_only_new_edges():
    # vertex 1 is the middle of the triangle: its removal lowers the
    # existing edge (2, 3) from 5 to 2, which is a mutation but no new edge
    g = Graph(3)
    g.set_edge(1, 2, 1)
    g.set_edge(1, 3, 1)
    g.set_edge(2, 3, 5)
    result = solve(g)
    assert [len(r.mutations) for r in result.sequence.records] == [1, 0]
    assert result.shortcuts == 0
    # removing 1 from the 5-cycle joins 2 and 5, which share no other
    # neighbor; every later removal finds an equally short route
    result = solve(cycle_graph(5))
    assert result.sequence.records[0].mutations == [(2, 5, float("inf"), 14)]
    assert result.shortcuts == 1
