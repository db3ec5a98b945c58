import random

import numpy as np
import pytest
from conftest import path_graph, random_connected_graph

from graphshrink import (
    Graph,
    GraphError,
    UNSET,
    apsp_dijkstra,
    floyd_warshall,
)
from graphshrink.baseline import ORACLE_CAP


def test_apsp_dijkstra_path():
    m, p = apsp_dijkstra(path_graph([1, 2]))
    expected = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    assert m.cells[1:, 1:].tolist() == expected
    assert int(p.cells[1, 2]) == UNSET
    assert int(p.cells[1, 3]) == 2


def test_apsp_dijkstra_single_vertex():
    m, _ = apsp_dijkstra(Graph(1))
    assert m.cells[1:, 1:].tolist() == [[0]]


def test_apsp_dijkstra_rejects_disconnected():
    g = Graph(4)
    g.set_edge(1, 2, 1)
    g.set_edge(3, 4, 1)
    with pytest.raises(GraphError, match="disconnected: no path between vertices 1 and 3"):
        apsp_dijkstra(g)


def test_apsp_dijkstra_refuses_a_weight_sum_reaching_unreached(monkeypatch):
    # a distance of 2**63 - 1 would read as UNREACHED, and 2**63 would wrap
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    with monkeypatch.context() as patch:
        patch.setattr(np, "full", no_allocation)
        for weights in ([2**62, 2**62], [2**62, 2**62 - 1]):
            with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
                apsp_dijkstra(path_graph(weights))
    m, p = apsp_dijkstra(path_graph([2**62, 2**62 - 2]))
    assert m.get(1, 3) == m.get(3, 1) == 2**63 - 2
    assert int(p.cells[1, 3]) == 2


def test_floyd_warshall_path():
    m = floyd_warshall(path_graph([1, 2]))
    assert m.cells[1:, 1:].tolist() == [[0, 1, 3], [1, 0, 2], [3, 2, 0]]


def test_floyd_warshall_triangle():
    g = Graph(3)
    g.set_edge(1, 2, 1)
    g.set_edge(2, 3, 1)
    g.set_edge(1, 3, 5)
    assert floyd_warshall(g).get(1, 3) == 2


def test_floyd_warshall_is_exact_above_2_53():
    # float64 would round 2**53 + 1 to 2**53
    m = floyd_warshall(path_graph([2**53, 1]))
    assert m.get(1, 3) == m.get(3, 1) == 2**53 + 1


def test_floyd_warshall_refuses_a_weight_sum_reaching_its_sentinel(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    with monkeypatch.context() as patch:
        patch.setattr(np, "full", no_allocation)
        with pytest.raises(ValueError, match="2\\*\\*62 - 1"):
            floyd_warshall(path_graph([2**61, 2**61 - 1]))
    m = floyd_warshall(path_graph([2**61, 2**61 - 2]))
    assert m.get(1, 3) == 2**62 - 2


def test_floyd_warshall_cap(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "full", no_allocation)
    with pytest.raises(GraphError, match="capped"):
        floyd_warshall(Graph(ORACLE_CAP + 1))


@pytest.mark.parametrize("seed", range(12))
def test_cross_oracle_agreement(seed):
    n = random.Random(seed).randint(4, 120)
    g = random_connected_graph(n, seed + 300)
    m_dj, _ = apsp_dijkstra(g)
    m_fw = floyd_warshall(g)
    assert np.array_equal(m_dj.cells, m_fw.cells)


@pytest.mark.parametrize("seed", range(6))
def test_metric_axioms(seed):
    rng = random.Random(seed)
    g = random_connected_graph(60, seed + 600)
    m, _ = apsp_dijkstra(g)
    block = m.cells[1:61, 1:61]
    assert np.all(np.diag(block) == 0)
    assert np.array_equal(block, block.T)
    for _ in range(200):
        i, j, k = (rng.randint(1, 60) for _ in range(3))
        assert m.cells[i, j] <= m.cells[i, k] + m.cells[k, j]
