import random

import pytest
from conftest import grid_graph, path_graph, random_connected_graph, triangle_graph

from graphshrink import (
    INF,
    PathError,
    PrecedenceMatrix,
    path_weight,
    reconstruct_path,
    SolveParams,
    apsp_dijkstra,
    first_bad_precedence,
    solve,
)
from graphshrink import paths


def test_direct_edge_base_case():
    g = path_graph([4])
    p = PrecedenceMatrix(2)
    assert reconstruct_path(p, g, 1, 2) == [1, 2]


def test_triangle_detour():
    g = triangle_graph()
    result = solve(g)
    assert reconstruct_path(result.precedence, g, 1, 3) == [1, 2, 3]


def test_path_graph_full_chain():
    g = path_graph([1, 1, 1])
    result = solve(g)
    assert reconstruct_path(result.precedence, g, 1, 4) == [1, 2, 3, 4]
    assert result.distances.get(1, 4) == 3


def test_same_endpoints_rejected():
    g = path_graph([1])
    with pytest.raises(PathError):
        reconstruct_path(PrecedenceMatrix(2), g, 1, 1)


def test_corrupt_matrix_cycle_detected():
    g = path_graph([1, 1])
    p = PrecedenceMatrix(3)
    p.set(1, 3, 3)  # j's own predecessor points back at j via itself
    with pytest.raises(PathError):
        reconstruct_path(p, g, 1, 3)


def test_corrupt_matrix_non_adjacent_detected():
    g = path_graph([1, 1, 1])
    p = PrecedenceMatrix(4)
    # claims the last hop into 4 is the direct edge (1, 4), which is absent
    with pytest.raises(PathError):
        reconstruct_path(p, g, 1, 4)


def test_path_weight_single_vertex():
    g = path_graph([1])
    assert path_weight(g, [1]) == 0


def test_path_weight_sums_edges():
    g = path_graph([1, 2])
    assert path_weight(g, [1, 2, 3]) == 3


def test_path_weight_non_adjacent_is_inf():
    g = path_graph([1, 1, 1])
    assert path_weight(g, [1, 3]) == INF


def test_path_weight_empty_rejected():
    g = path_graph([1])
    with pytest.raises(PathError):
        path_weight(g, [])


@pytest.mark.parametrize("seed", range(10))
def test_soundness_on_random_instances(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 70)
    g = random_connected_graph(n, seed + 900)
    result = solve(g)
    for _ in range(40):
        i, j = rng.sample(range(1, n + 1), 2)
        path = reconstruct_path(result.precedence, g, i, j)
        assert path[0] == i and path[-1] == j
        assert len(path) <= n
        assert len(set(path)) == len(path)
        assert path_weight(g, path) == result.distances.get(i, j)


# -- first_bad_precedence: every cell's last hop against the graph ----------

@pytest.mark.parametrize("g, params", [(triangle_graph(), SolveParams()),
                                       (grid_graph(8), SolveParams(d_max=3, i_max=0)),
                                       (random_connected_graph(60, 4, wmax=2), SolveParams())])
def test_first_bad_precedence_passes_every_solve(g, params):
    result = solve(g, params)
    assert first_bad_precedence(g, result.distances, result.precedence) is None


def test_first_bad_precedence_names_each_kind_of_bad_cell():
    g = path_graph([1, 1, 1])
    result = solve(g)
    d, p = result.distances, result.precedence
    assert p.get(4, 1) == 2
    p.set(4, 1, 3)  # (3, 1) is not an edge
    assert first_bad_precedence(g, d, p) == (4, 1, 3)
    p.set(4, 1, 2)
    p.set(1, 3, 9)  # no such vertex
    assert first_bad_precedence(g, d, p) == (1, 3, 9)
    p.set(1, 3, 2)
    tri = triangle_graph()
    result = solve(tri)
    result.precedence.set(1, 3, 0)  # unset: the direct edge (1, 3), 5 > 2
    assert first_bad_precedence(tri, result.distances, result.precedence) == (1, 3, 1)


@pytest.mark.parametrize("source", ["solve", "apsp_dijkstra"])
def test_first_bad_precedence_passes_a_vertex_removed_before_the_solve(source):
    # path 1-2-3-4-5 (weight 3) without 5: its pairs have no path and no
    # last hop, so they pass while P stays unset
    g = path_graph([3, 3, 3, 3])
    g.remove_vertex(5)
    if source == "solve":
        result = solve(g)
        d, p = result.distances, result.precedence
    else:
        d, p = apsp_dijkstra(g)
    assert first_bad_precedence(g, d, p) is None
    p.set(1, 5, 2)  # a last hop for a pair with no path
    assert first_bad_precedence(g, d, p) == (1, 5, 2)
    p.set(1, 5, 0)
    p.set(5, 3, 4)  # (4, 3) is an edge of g, but 5 reaches nothing
    assert first_bad_precedence(g, d, p) == (5, 3, 4)


def test_first_bad_precedence_reports_the_first_cell_across_row_blocks(monkeypatch):
    g = grid_graph(6)
    result = solve(g)
    monkeypatch.setattr(paths, "_CHECK_CELLS", 4 * 36)  # 4 rows a block
    d, p = result.distances, result.precedence
    p.set(30, 7, 31)
    p.set(33, 2, 1)
    assert first_bad_precedence(g, d, p)[:2] == (30, 7)
