import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from conftest import cycle_graph, grid_graph, path_graph, random_connected_graph

from graphshrink import (
    Graph,
    GraphError,
    SolveParams,
    UNSET,
    apsp_dijkstra,
    first_bad_cell,
    floyd_warshall,
    solve,
)
from graphshrink import assembly, disassembly, microsolve, solver
from graphshrink.graph import MAX_WEIGHT
from graphshrink.matrices import UNREACHED, read_distance_matrix, write_distance_matrix


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


@pytest.mark.parametrize("params", [SolveParams(), SolveParams(d_max=1, n_min=2)],
                         ids=["full", "d_max=1 n_min=2"])
def test_solve_leaves_vertices_removed_before_it_unreached(params):
    # path 1-2-3-4-5 with 5 removed: its row and column have no distance
    g = path_graph([1, 2, 3, 4])
    g.remove_vertex(5)
    result = solve(g, params)
    d = result.distances.cells
    assert np.array_equal(d, apsp_dijkstra(g)[0].cells)
    assert np.array_equal(d, floyd_warshall(g).cells)
    assert (d[5, :5] == UNREACHED).all() and d[5, 5] == 0
    p = result.precedence.cells
    assert (p[5] == UNSET).all() and (p[:, 5] == UNSET).all()


@pytest.mark.parametrize("params", [SolveParams(), SolveParams(d_max=3, i_max=0)],
                         ids=["full", "bounded"])
def test_solve_with_ids_removed_inside_the_range_equals_the_compact_solve(params):
    # solve lays the removed ids out after every present one; its pass
    # back to id order must leave them UNREACHED and UNSET and put every
    # other cell where the solve of the same graph with ids 1..95 puts it
    g = grid_graph(10, 0.2, 3)
    removed = [1, 23, 45, 67, 100]
    for v in removed:
        g.remove_vertex(v)
    kept = sorted(g.adj)
    compact = Graph(len(kept))
    for u, v, w in g.edges():
        compact.set_edge(kept.index(u) + 1, kept.index(v) + 1, w)
    result, reference = solve(g, params), solve(compact, params)
    assert result.residual_order == (1 if params == SolveParams() else 48)
    d, p = result.distances.cells, result.precedence.cells
    assert np.array_equal(d, apsp_dijkstra(g)[0].cells)
    block = np.ix_(kept, kept)
    assert np.array_equal(d[block], reference.distances.cells[1:, 1:])
    assert np.array_equal(p[block], np.array([0, *kept])[reference.precedence.cells[1:, 1:]])
    assert (d[removed, 1:] == UNREACHED).sum() == (d[1:, removed] == UNREACHED).sum() == 5 * 99
    assert (p[removed] == UNSET).all() and (p[:, removed] == UNSET).all()


def test_solve_refuses_a_disconnected_graph_before_allocating(monkeypatch):
    g = Graph(2000)
    g.set_edge(1, 2, 1)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "full", no_allocation)
    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(GraphError, match="connected"):
        solve(g)


# sha256 of solve's distance cells as little-endian int64 and precedence
# cells as little-endian int32, (n+1) x (n+1) each: a change to P that
# keeps every last hop tight still changes these bytes
SOLVE_DIGESTS = {
    "grid24-full": (
        lambda: grid_graph(24), SolveParams(),
        "da1043483b42e57e497bfaf015869d342e012c8d7907d7f30be56f6565b4718a",
        "79295e4a2d7dc1cb48dc2b653d9968921292fe38b234f882fd83bb8b2c71c378"),
    "grid24-bounded": (
        lambda: grid_graph(24), SolveParams(d_max=3, i_max=0),
        "da1043483b42e57e497bfaf015869d342e012c8d7907d7f30be56f6565b4718a",
        "feb86717a5db06c9788079d4ad74870b84ea15ab700397f0bad258f362c03f38"),
    "random150-0-n_min60": (
        lambda: random_connected_graph(150, 0, wmax=3), SolveParams(n_min=60),
        "b0924a5a36953f323339001de3ee6d48a06d2024bcc6d35a591cbfe3dc2864e7",
        "52f8da5101aa58cedce10f415c9e7907bd958905f1c3dbda2ba3d8b7e71b0030"),
    "random150-0-i_max0": (
        lambda: random_connected_graph(150, 0, wmax=3), SolveParams(i_max=0),
        "b0924a5a36953f323339001de3ee6d48a06d2024bcc6d35a591cbfe3dc2864e7",
        "d55c52273b5debb113f51563c8d0c2f8b5ac862b921c3d61c9260a199795fb89"),
    "random150-1-n_min60": (
        lambda: random_connected_graph(150, 1, wmax=3), SolveParams(n_min=60),
        "a702235bcc03e49e77cfc960856d8bf958ad8d5bbe2adfcdc3e88a5a073cd503",
        "221f9f66c2ccb8b23e39cd26dce42e894739bd45bffb6a5335875672cce196ae"),
    "random150-1-i_max0": (
        lambda: random_connected_graph(150, 1, wmax=3), SolveParams(i_max=0),
        "a702235bcc03e49e77cfc960856d8bf958ad8d5bbe2adfcdc3e88a5a073cd503",
        "556429da0bfd0bb10eb28724a05b9ae03cf41d5ccccd9ff3b08ac83cbddfda1f"),
    "cycle101-n_min30": (
        lambda: cycle_graph(101), SolveParams(n_min=30),
        "af3a26354f78456fda05e610f6ba676ad9dc6b376c7352b4bb5bdd874d2d8b54",
        "4fd581441ebb6d8b6fd21334f434a1d8518398337d7daa93f26d4b6a67ff9d24"),
    # the ladder's random row: full contraction decides 300-odd removals of
    # degree 16 and up on the dense mirror, the bounded one decides them in
    # the core's contraction
    "random1024-11-full": (
        lambda: random_connected_graph(1024, 11), SolveParams(),
        "6287af3a10da24293984af3f1b36d4b77643386fe67371532eb92eccf7ae03ae",
        "2d9dd05cf039e3c5493bc5507366f0c7642176c196f890ee38edc7d34d5981f2"),
    "random1024-11-bounded": (
        lambda: random_connected_graph(1024, 11), SolveParams(d_max=3, i_max=0),
        "6287af3a10da24293984af3f1b36d4b77643386fe67371532eb92eccf7ae03ae",
        "61a80404129a4eecb73fee61d156732ae093d9a2669c8b63aed92d25ff5b86af"),
    # perfbench's grid-bounded instance: a residual of 921, so the
    # predecessor rule writes most of P
    "grid32-1-bounded": (
        lambda: grid_graph(32, 0.05, 1), SolveParams(d_max=3, i_max=0),
        "0032284d8d316558fcb347ae4bd553764fd06e876f9ea75e62d8732b9d4c173b",
        "d281daed49a99ce2efe04a23ff630fe04d2c9cb448ab208f08f41ca7bacbb692"),
}


@pytest.mark.parametrize("name", SOLVE_DIGESTS)
def test_solve_output_bytes_are_pinned(name):
    make, params, d_digest, p_digest = SOLVE_DIGESTS[name]
    result = solve(make(), params)
    d_bytes = result.distances.cells.astype("<i8").tobytes()
    p_bytes = result.precedence.cells.astype("<i4").tobytes()
    assert hashlib.sha256(d_bytes).hexdigest() == d_digest
    assert hashlib.sha256(p_bytes).hexdigest() == p_digest


def test_solve_contracts_a_residual_whose_doubled_weight_sum_passes_2_63():
    # 1 joins each of 2..5 by W, and each of those joins 6, 7 and 8 by
    # W + 1; removing 1 leaves shortcuts of 2 W between 2..5, so the
    # encoded residual's doubled weight sum passes 2**63 while solve's own
    # guard (twice the encoded sum of g) holds
    w = 3 * 2**53
    g = Graph(8)
    for a in range(2, 6):
        g.set_edge(1, a, w)
        for b in (6, 7, 8):
            g.set_edge(a, b, w + 1)
    result = solve(g, SolveParams(n_min=7))
    residual_sum = sum(weight for _, _, weight in result.sequence.residual.edges())
    assert result.residual_order == 7 and 2 * residual_sum >= 2**63
    assert np.array_equal(result.distances.cells, apsp_dijkstra(g)[0].cells)
    assert first_bad_cell(g, result.distances, result.precedence) is None
    d_bytes = result.distances.cells.astype("<i8").tobytes()
    p_bytes = result.precedence.cells.astype("<i4").tobytes()
    assert (hashlib.sha256(d_bytes).hexdigest()
            == "155e7f0380fa3c60df2b8615895d955d60fac40ca26b934b4f5b5ef1d913860b")
    assert (hashlib.sha256(p_bytes).hexdigest()
            == "8085c16ccb7a77d7ddb8287005a9447c8149301564cc4ce223a17a49ca0e5631")


def test_solve_bounded_solves_a_residual_whose_weight_sum_passes_unreached():
    # hub 1 joins leaves 2..5 by W, and each leaf joins its own K6 by zero
    # weights.  d_max=4 removes only the hub, and its six shortcuts of 2 W
    # take the encoded residual's weight sum past 2**63 - 1, while solve's
    # own guard holds and every distance fits
    w = int(2**63 * 0.9 / 8 / 30)
    g = Graph(29)
    for leaf in range(2, 6):
        g.set_edge(1, leaf, w)
        clique = [leaf, *range(6 * leaf - 6, 6 * leaf)]
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                g.set_edge(a, b, 0)
    result = solve(g, SolveParams(d_max=4))
    residual_sum = sum(weight for _, _, weight in result.sequence.residual.edges())
    assert result.removals == 1 and residual_sum >= UNREACHED
    assert np.array_equal(result.distances.cells, apsp_dijkstra(g)[0].cells)
    assert result.distances.get(2, 3) == 69175290276410824
    assert first_bad_cell(g, result.distances, result.precedence) is None


def test_solve_decides_a_degree_16_removal_on_the_mirror_for_a_large_encoded_weight(monkeypatch):
    # K17 of unit weights but w(1, 2) = 2**56, encoded as 18 * 2**56 + 1:
    # every encoded weight solve admits is at most UNREACHED // 2, so the
    # mirror is built and decides the first removal, of degree 16
    g = Graph(17)
    for u in range(1, 18):
        for v in range(u + 1, 18):
            g.set_edge(u, v, 2**56 if (u, v) == (1, 2) else 1)
    real_of, real_decide = disassembly._Mirror.of, disassembly._Mirror.decide
    built, degrees = [], []

    def watched_of(*args):
        built.append(real_of(*args))
        return built[-1]

    def watched_decide(mirror, v, nbrs):
        degrees.append(len(nbrs))
        return real_decide(mirror, v, nbrs)

    monkeypatch.setattr(disassembly._Mirror, "of", watched_of)
    monkeypatch.setattr(disassembly._Mirror, "decide", watched_decide)
    result = solve(g)
    assert len(built) == 1 and built[0] is not None and degrees[0] == 16
    assert np.array_equal(result.distances.cells, apsp_dijkstra(g)[0].cells)
    assert first_bad_cell(g, result.distances, result.precedence) is None


def test_solve_contracts_the_core_before_allocating_and_reorders_twice(monkeypatch):
    # one layout: the core's contraction fixes it before D is allocated,
    # and only the two passes at the end put cells back in id order
    calls = []

    def watch(name, real, *modules):
        def watched(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        for module in modules:  # also where the name is not imported today
            monkeypatch.setattr(module, name, watched, raising=False)

    watch("contract_core", solver.contract_core, solver)
    watch("DistanceMatrix", solver.DistanceMatrix, solver)
    watch("to_id_order", assembly.to_id_order, solver, microsolve)
    g = grid_graph(16)
    result = solve(g, SolveParams(d_max=3, i_max=0))
    assert result.residual_order > microsolve._CORE_ORDER
    assert calls == ["contract_core", "DistanceMatrix", "to_id_order", "to_id_order"]
    assert np.array_equal(result.distances.cells, apsp_dijkstra(g)[0].cells)


@pytest.mark.parametrize("graph, params", [
    (lambda: grid_graph(32, 0.05, 1), SolveParams()),
    (lambda: grid_graph(32, 0.05, 1), SolveParams(d_max=3, i_max=0)),
    (lambda: random_connected_graph(300, 4, wmax=3), SolveParams()),
    (lambda: random_connected_graph(300, 4, wmax=3), SolveParams(d_max=3, i_max=0))],
    ids=["grid32-full", "grid32-bounded", "random300-zeros-full", "random300-zeros-bounded"])
def test_solve_keeps_true_last_hops_in_p_until_the_pass_to_id_order(graph, params, monkeypatch):
    # inside solve P[i][j] is the last hop into j, i itself for the
    # direct edge: UNSET is only written on the way back to id order.
    # wmax=3 gives the random graph zero weights, so ties at zero
    handed = []

    def watched(cells, pos, *args, **kwargs):
        handed.append((cells, cells.copy(), pos.copy()))
        assembly.to_id_order(cells, pos, *args, **kwargs)

    monkeypatch.setattr(solver, "to_id_order", watched)
    g = graph()
    result = solve(g, params)
    [(cells, pos)] = [(c, p) for cells, c, p in handed if cells is result.precedence.cells]
    at = pos[sorted(g.adj)]
    assert (cells[np.ix_(at, at)] != UNSET).all()
    assert np.array_equal(cells.diagonal()[pos], np.arange(len(pos)))
    assert first_bad_cell(g, result.distances, result.precedence) is None


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


@pytest.mark.parametrize("graph, params", [
    (lambda: grid_graph(32), SolveParams()), (lambda: grid_graph(32), SolveParams(d_max=3, i_max=0)),
    (lambda: grid_graph(48), SolveParams()),
    (lambda: random_connected_graph(1024, 11), SolveParams(d_max=3, i_max=0))],
    ids=["grid32-full", "grid32-bounded", "grid48-full", "random1024-bounded"])
def test_solve_peaks_near_its_two_matrices(graph, params):
    # the layout is put back in id order in place: a copy of either matrix
    # would take the peak past 1.7 times the two of them.  A bounded solve
    # also holds close_core's packed copy of its core, c x c uint64
    g = graph()
    tracemalloc.start()
    try:
        result = solve(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrices = result.distances.cells.nbytes + result.precedence.cells.nbytes
    assert peak <= 1.35 * matrices
