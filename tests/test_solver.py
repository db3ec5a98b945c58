import numpy as np
import pytest
from conftest import path_graph

from graphshrink import SolveParams, floyd_warshall, solve
from graphshrink.graph import MAX_WEIGHT


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
    assert result.distances.cells[1, 3] == float(2**60 - 1)


@pytest.mark.parametrize("params", [SolveParams(), SolveParams(n_min=20)])
def test_solve_max_weight_path_is_exact(params):
    g = path_graph([MAX_WEIGHT] * 40)
    result = solve(g, params)
    assert result.distances.cells[1, 41] == 40 * MAX_WEIGHT
    assert np.array_equal(result.distances.cells, floyd_warshall(g).cells)
