import io

import numpy as np
import pytest
from conftest import path_graph

from graphshrink import SolveParams, apsp_dijkstra, floyd_warshall, solve
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
