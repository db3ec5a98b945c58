import heapq
import random

import numpy as np
import pytest
from conftest import (
    contract,
    core_caps,
    grid_graph,
    laid_out,
    path_graph,
    precede_shortcuts_by_id,
    random_connected_graph,
    reference_solve_residual,
    solve_residual_by_id,
    triangle_graph,
)

from graphshrink import (
    INF,
    DistanceMatrix,
    Graph,
    GraphError,
    PrecedenceMatrix,
    ShrinkSequence,
    SolveParams,
    UNSET,
    apsp_dijkstra,
    dijkstra,
    floyd_warshall,
    remove_and_preserve,
)
from graphshrink import microsolve
from graphshrink.assembly import restore_order
from graphshrink.microsolve import UNREACHED, contract_core, solve_residual


def new_d(n):
    """The solver's distance matrix before any stage: UNREACHED, zero diagonal."""
    return DistanceMatrix(n).cells


# -- frozen reference: the dict Dijkstra and per-cell merge it replaced -----

def float_m(n):
    """The reference's own float64 M: inf, zero diagonal."""
    m = np.full((n + 1, n + 1), np.inf)
    np.fill_diagonal(m, 0.0)
    return m


def seed_dijkstra(g, source):
    dist = {v: INF for v in g.adj}
    pred = {v: None for v in g.adj}
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in g.adj[u].items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def seed_solve_residual(g_r, m, p, scale=1, hop_cells=None):
    present = sorted(g_r.adj)
    if len(present) <= 1:
        return
    for i in present:
        dist, pred = seed_dijkstra(g_r, i)
        m[i, present] = [dist[j] // scale for j in present]
        if hop_cells is not None:
            hop_cells[i, present] = [dist[j] % scale for j in present]
        for j in present:
            if j == i:
                continue
            if int(p.cells[i, j]) != UNSET and g_r.adj[i].get(j, INF) <= dist[j]:
                continue
            q = pred[j]
            if q is None or q == i:
                continue
            pqj = int(p.cells[q, j])
            p.cells[i, j] = pqj if pqj != UNSET else q


def test_dijkstra_path():
    g = path_graph([1, 2])
    dist, pred = dijkstra(g, 1)
    assert dist == {1: 0, 2: 1, 3: 3}
    assert pred == {1: None, 2: 1, 3: 2}


def test_dijkstra_single_vertex():
    dist, pred = dijkstra(Graph(1), 1)
    assert dist == {1: 0}
    assert pred == {1: None}


def test_dijkstra_absent_source():
    g = Graph(2)
    g.set_edge(1, 2, 1)
    g.remove_vertex(2)
    with pytest.raises(GraphError):
        dijkstra(g, 2)


@pytest.mark.parametrize("seed", range(6))
def test_dijkstra_matches_floyd_warshall(seed):
    g = random_connected_graph(50, seed)
    fw = floyd_warshall(g)
    for src in (1, 17, 50):
        dist, _ = dijkstra(g, src)
        for v in g.adj:
            assert dist[v] == fw.get(src, v)


def test_solve_residual_single_vertex_noop():
    g = Graph(1)
    d = new_d(1)
    p = PrecedenceMatrix(1)
    solve_residual_by_id(g, d, p)
    assert np.array_equal(d, new_d(1))
    assert int(p.cells[1, 1]) == UNSET


def test_solve_residual_plain_edge():
    g = Graph(2)
    g.set_edge(1, 2, 7)
    d = new_d(2)
    p = PrecedenceMatrix(2)
    solve_residual_by_id(g, d, p)
    assert d[1, 2] == d[2, 1] == 7
    assert int(p.cells[1, 2]) == UNSET  # direct original edge
    assert int(p.cells[2, 1]) == UNSET


def test_solve_residual_keeps_shortcut_history():
    # contract vertex 2 out of the triangle; the residual edge (1,3) is a
    # shortcut and its stored intermediate must survive the merge
    g = path_graph([1, 1])
    p = PrecedenceMatrix(3)
    precede_shortcuts_by_id(ShrinkSequence([remove_and_preserve(g, 2)], g), p)
    assert g.adj[1][3] == 2
    d = new_d(3)
    solve_residual_by_id(g, d, p)
    assert d[1, 3] == 2
    assert int(p.cells[1, 3]) == 2
    assert int(p.cells[3, 1]) == 2


def test_solve_residual_overrides_long_direct_edge():
    # direct edge (1,3) is longer than the two-hop route via 2: the merge
    # must install 2 as predecessor of 3 (and of 1)
    g = triangle_graph()
    d = new_d(3)
    p = PrecedenceMatrix(3)
    solve_residual_by_id(g, d, p)
    assert d[1, 3] == 2
    assert int(p.cells[1, 3]) == 2
    assert int(p.cells[3, 1]) == 2
    assert int(p.cells[1, 2]) == UNSET


@pytest.mark.parametrize("seed", range(5))
def test_solve_residual_distances_match_original(seed):
    # after a partial contraction, residual distances must equal the
    # original graph's distances on the surviving pairs
    g0 = random_connected_graph(40, seed + 50)
    fw = floyd_warshall(g0)
    seq, p = contract(g0.copy(), SolveParams(n_min=12))
    d = new_d(40)
    solve_residual_by_id(seq.residual, d, p)
    for i in seq.residual.adj:
        for j in seq.residual.adj:
            assert d[i, j] == fw.get(i, j)


# -- differential check against the frozen reference ------------------------

def contracted(g, params, encode):
    """(residual, P after contraction and the shortcut replay, scale) as
    solver.solve builds them, or with raw weights (scale 1) when `encode`
    is false."""
    scale = g.n_original + 1 if encode else 1
    work = g.copy()
    for nbrs in work.adj.values():
        for v in nbrs:
            nbrs[v] = nbrs[v] * scale + (1 if encode else 0)
    seq, p = contract(work, params)
    return seq.residual, p, scale


def assert_matches_seed(g_r, p, scale, solve=solve_residual):
    """Run the reference and `solve` from copies of P; the new `d` must
    equal the reference's M * scale + hops, with INF as UNREACHED.
    solve_residual runs once with each of core_caps as its core order."""
    n = g_r.n_original
    m0, p0 = float_m(n), PrecedenceMatrix(n)
    p0.cells[...] = p.cells
    hops = np.zeros_like(m0, dtype=np.int64) if scale > 1 else None
    seed_solve_residual(g_r, m0, p0, scale=scale, hop_cells=hops)
    # cells outside the residual block stay inf in the reference
    missing = ~np.isfinite(m0)
    expected = np.where(missing, 0, m0).astype(np.int64) * scale
    if hops is not None:
        expected += hops
    expected[missing] = UNREACHED
    caps = core_caps(g_r.n_present) if solve is solve_residual else [microsolve._CORE_ORDER]
    for cap in caps:
        d, p1 = new_d(n), PrecedenceMatrix(n)
        p1.cells[...] = p.cells
        with pytest.MonkeyPatch.context() as m:
            m.setattr(microsolve, "_CORE_ORDER", cap)
            solve_residual_by_id(g_r, d, p1, solve)
        assert np.array_equal(d, expected), cap
        assert np.array_equal(p0.cells, p1.cells), cap
    return d, p1


@pytest.mark.parametrize("params", [SolveParams(d_max=3, i_max=0),
                                    SolveParams(d_max=2, n_min=24 * 24 // 2)])
def test_solve_residual_matches_seed_on_hop_encoded_grid(params):
    g_r, p, scale = contracted(grid_graph(24), params, encode=True)
    assert g_r.n_present > 100
    assert_matches_seed(g_r, p, scale)


def refused_untouched(g_r, p, error, match):
    """solve_residual on g_r refuses with `error` and leaves D and P as they were."""
    d = new_d(g_r.n_original)
    cells = p.cells.copy()
    with pytest.raises(error, match=match):
        solve_residual_by_id(g_r, d, p)
    assert np.array_equal(d, new_d(g_r.n_original))
    assert np.array_equal(p.cells, cells)


@pytest.mark.parametrize("seed", [0, 1, 3, 5])  # seeds 2 and 4 draw trees
@pytest.mark.parametrize("params", [SolveParams(d_max=3, i_max=0), SolveParams(n_min=60),
                                    SolveParams(n_min=150)])
def test_solve_residual_matches_seed_on_raw_tied_weights(seed, params):
    # weights 0..3: zero-weight edges and many equal-length paths.
    # solve_residual refuses them; the test-side reference that stands in
    # for it in the fuzz and assembly tests must still match the seed
    g_r, p, scale = contracted(random_connected_graph(150, seed, wmax=3), params, encode=False)
    assert scale == 1 and g_r.n_present > 1
    refused_untouched(g_r, p, ValueError, "zero-weight")
    assert_matches_seed(g_r, p, scale, solve=reference_solve_residual)


def test_solve_residual_disconnected_leaves_inf_and_p_untouched():
    g = Graph(60)
    for offset, seed in ((0, 1), (30, 2)):
        for u, v, w in random_connected_graph(30, seed, wmax=3).edges():
            g.set_edge(u + offset, v + offset, w + 1)
    p = PrecedenceMatrix(60)
    p.cells[1:31, 31:] = 7  # stored entries across the cut must survive
    refused_untouched(g, p, GraphError, "connected")


def test_solve_residual_matches_seed_just_below_unreached():
    # weights summing to 2**63 - 2: twice the sum passes 2**63, and
    # contraction still solves it; float64 would round these distances, so
    # the reference checks only P
    g = path_graph([2**62, 2**62 - 2])
    d, p = new_d(3), PrecedenceMatrix(3)
    solve_residual_by_id(g, d, p)
    assert d[1, 2] == 2**62 and d[2, 3] == 2**62 - 2 and d[1, 3] == d[3, 1] == 2**63 - 2
    assert np.array_equal(d, d.T)
    p0 = PrecedenceMatrix(3)
    seed_solve_residual(g, float_m(3), p0)
    assert np.array_equal(p.cells, p0.cells) and int(p.cells[1, 3]) == 2


def test_solve_residual_refuses_int64_overflow_before_writing():
    # a distance of 2**63 - 1 is refused too: that is UNREACHED itself.
    # Through the min-plus core the closure leaves it at UNREACHED; through
    # the inner replay 2**63 wraps, and 2**63 - 1 is written, then refused
    # with the rest of the corner
    for weights in ([2**62, 2**62], [2**62, 2**62 - 1]):
        g = path_graph(weights)
        for cap, match in ((microsolve._CORE_ORDER, "2\\*\\*63 - 1"),
                           (1, "distances overflow int64")):
            d = new_d(3)
            p = PrecedenceMatrix(3)
            p.cells[1, 3] = 2
            with pytest.MonkeyPatch.context() as m:
                m.setattr(microsolve, "_CORE_ORDER", cap)
                with pytest.raises(ValueError, match=match):
                    solve_residual_by_id(g, d, p)
            assert np.array_equal(d, new_d(3))
            assert p.cells.sum() == 2 and int(p.cells[1, 3]) == 2


def test_solve_residual_refuses_an_edge_past_int64_before_writing():
    for weights in ([2**63, 1], [1, 2**64]):
        p = PrecedenceMatrix(3)
        p.cells[1, 3] = 2
        refused_untouched(path_graph(weights), p, ValueError, "> 2\\*\\*63 - 1")


def test_solve_residual_refuses_an_inner_shortcut_past_int64_untouched(monkeypatch):
    # the cycle 1-2-4-5-3-1: removing 1 first writes the shortcut (2, 3) of
    # 2 H > 2**63 - 1, as the path 2-4-5-3 of 3 is no two-hop witness.
    # Every distance fits, so the min-plus core alone solves it; a core of
    # 4 meets the shortcut in close_core, a core of 1 in the inner replay
    h = 2**62 + 1
    g = Graph(5)
    for u, v, w in ((1, 2, h), (1, 3, h), (2, 4, 1), (4, 5, 1), (5, 3, 1)):
        g.set_edge(u, v, w)
    # the weights sum past what apsp_dijkstra admits: the seed's dict
    # Dijkstra checks the distances, and P with its float64 M
    d, p, p0 = new_d(5), PrecedenceMatrix(5), PrecedenceMatrix(5)
    solve_residual_by_id(g, d, p)
    seed_solve_residual(g, float_m(5), p0)
    assert [[d[i, j] for j in range(1, 6)] for i in range(1, 6)] == [
        list(seed_dijkstra(g, i)[0].values()) for i in range(1, 6)]
    assert np.array_equal(p.cells, p0.cells) and d[1, 4] == h + 1
    for cap in (4, 1):
        monkeypatch.setattr(microsolve, "_CORE_ORDER", cap)
        p = PrecedenceMatrix(5)
        p.cells[1:, 1:] = 7  # stored entries the refusal must leave as they were
        refused_untouched(g, p, ValueError, "distances overflow int64")


def test_dijkstra_refuses_a_weight_sum_reaching_unreached():
    with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
        dijkstra(path_graph([2**62, 2**62 - 1]), 1)
    dist, _ = dijkstra(path_graph([2**62, 2**62 - 2]), 1)
    assert dist[3] == 2**63 - 2


@pytest.mark.parametrize("seed", range(4))
def test_dijkstra_matches_seed_with_ties(seed):
    g = random_connected_graph(80, seed, wmax=2)
    g.remove_vertex(40)  # ids with a gap, possibly disconnected
    for src in (1, 39, 41, 80):
        assert dijkstra(g, src) == seed_dijkstra(g, src)


# -- contraction + predecessor rule ----------------------------------------

def plus_one(g):
    """g with every weight raised by 1: positive, still with many ties."""
    for u, nbrs in g.adj.items():
        for v in nbrs:
            nbrs[v] += 1
    return g


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
@pytest.mark.parametrize("params", [SolveParams(d_max=3, i_max=0), SolveParams(n_min=60),
                                    SolveParams(n_min=150)])
def test_solve_residual_by_contraction_matches_seed_on_raw_positive_ties(seed, params):
    g = plus_one(random_connected_graph(150, seed, wmax=3))
    g_r, p, scale = contracted(g, params, encode=False)
    assert g_r.n_present > 1
    assert_matches_seed(g_r, p, scale)


def test_solve_residual_by_contraction_reads_p_as_it_was_on_entry(monkeypatch):
    # the residual's edges include shortcuts whose stored P[q][j] the merge
    # expands, reading P live: the inner replay must write no P cell, so it
    # is handed none
    g_r, p, scale = contracted(grid_graph(12), SolveParams(d_max=3, i_max=0), encode=True)
    ids = sorted(g_r.adj)
    assert (p.cells[np.ix_(ids, ids)] != UNSET).any()
    real_assemble = microsolve.assemble
    calls = []

    def watched_assemble(seq, d, pos, *rest, **named):
        calls.append((rest, named))
        real_assemble(seq, d, pos, *rest, **named)

    monkeypatch.setattr(microsolve, "assemble", watched_assemble)
    edges_before = {v: dict(nbrs) for v, nbrs in g_r.adj.items()}
    assert_matches_seed(g_r, p, scale)
    assert calls == [((), {})] * len(core_caps(g_r.n_present))
    assert g_r.adj == edges_before


@pytest.mark.parametrize("side", [6, 12])
def test_solve_residual_leaves_the_corner_in_the_cores_restore_order(side, monkeypatch):
    # the inner replay fills the corner in the core's restore order, and
    # the corner stays in it: solve's layout continues that order
    g_r, _, _ = contracted(grid_graph(side), SolveParams(d_max=3, i_max=0), encode=True)
    ids = sorted(g_r.adj)
    expected = apsp_dijkstra(g_r)[0].cells
    # the regimes with an inner contraction, not the core alone
    for cap in core_caps(g_r.n_present)[:2]:
        monkeypatch.setattr(microsolve, "_CORE_ORDER", cap)
        core = contract_core(g_r)
        order = restore_order(core)
        assert core.records and order != ids and sorted(order) == ids
        with laid_out(order, new_d(g_r.n_original)) as (d_pos, _, pos):
            solve_residual(g_r, core, d_pos, PrecedenceMatrix(g_r.n_original), pos)
            r = len(order)
            assert np.array_equal(d_pos[1:r + 1, 1:r + 1], expected[np.ix_(order, order)])


def test_solve_residual_by_contraction_across_source_blocks(monkeypatch):
    g_r, p, scale = contracted(grid_graph(12), SolveParams(d_max=3, i_max=0), encode=True)
    r = g_r.n_present
    monkeypatch.setattr(microsolve, "_RULE_CELLS", 35)
    # a target with d slots runs 35 // d sources a block: at least 3 blocks
    # for every target, the last one short
    steps = {35 // len(nbrs) for nbrs in g_r.adj.values()}
    assert steps == {5, 7, 8} and all(r > 2 * step and r % step for step in steps)
    assert_matches_seed(g_r, p, scale)


def test_solve_residual_runs_one_source_a_block_for_a_hub(monkeypatch):
    # every clique vertex has more slots than _RULE_CELLS allows cells
    k = microsolve._CORE_DEGREE + 2
    monkeypatch.setattr(microsolve, "_RULE_CELLS", k - 2)
    g = clique_with_trees(k)
    assert min(len(g.adj[v]) for v in range(1, k + 1)) == k - 1
    core_orders_against_reference(g, PrecedenceMatrix(g.n_original), monkeypatch)


def test_solve_residual_refuses_zero_weights_untouched():
    g_r, p, _ = contracted(random_connected_graph(150, 0, wmax=3),
                           SolveParams(d_max=3, i_max=0), encode=False)
    assert g_r.n_present > 100
    assert min(w for nbrs in g_r.adj.values() for w in nbrs.values()) == 0
    refused_untouched(g_r, p, ValueError, "zero-weight")


def test_solve_residual_refuses_zero_weight_and_disconnected():
    refused_untouched(path_graph([1, 0, 2]), PrecedenceMatrix(4), ValueError, "zero-weight")
    cut = Graph(4)
    cut.set_edge(1, 2, 3)
    cut.set_edge(3, 4, 5)
    refused_untouched(cut, PrecedenceMatrix(4), GraphError, "connected")
    refused_untouched(Graph(2), PrecedenceMatrix(2), GraphError, "connected")


def test_solve_residual_contracts_on_both_sides_of_a_doubled_sum_of_2_63():
    # twice 2**62 - 1 fits int64, twice 2**62 + 1 does not: both are solved
    for g in (path_graph([2**61, 2**61 - 1]), path_graph([2**61, 2**61 + 1])):
        d, p = new_d(3), PrecedenceMatrix(3)
        solve_residual_by_id(g, d, p)
        w12, w23 = g.adj[1][2], g.adj[2][3]
        assert (d[1, 3] == d[3, 1] == w12 + w23 and int(p.cells[1, 3]) == 2
                and int(p.cells[3, 1]) == 2)


def test_solve_residual_refuses_a_wrapping_candidate(monkeypatch):
    # vertex 1 joins two unit cliques, {2, 4, 5, 6} by A and {3, 7, 8, 9}
    # by 1.  Every distance fits, so the min-plus core alone solves it.
    # Contracted in full, 1 goes first; restoring it tries A + d(2, 3) =
    # 2 A + 1 > 2**63 - 1
    a = 2**62 + 2**40
    g = Graph(9)
    g.set_edge(1, 2, a)
    g.set_edge(1, 3, 1)
    for clique in ((2, 4, 5, 6), (3, 7, 8, 9)):
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                g.set_edge(u, v, 1)
    p = PrecedenceMatrix(9)
    p.cells[1:, 1:] = 7  # stored entries the refusal must leave as they were
    d, p1 = new_d(9), PrecedenceMatrix(9)
    d0, p0 = new_d(9), PrecedenceMatrix(9)
    p1.cells[...] = p0.cells[...] = p.cells
    solve_residual_by_id(g, d, p1)
    solve_residual_by_id(g, d0, p0, reference_solve_residual)
    assert np.array_equal(d, d0) and np.array_equal(p1.cells, p0.cells) and d[2, 3] == a + 1
    monkeypatch.setattr(microsolve, "_CORE_ORDER", 1)
    refused_untouched(g, p, ValueError, "restoring 1 overflows int64")


def test_solve_residual_hop_encoded_takes_contraction():
    g_r, p, scale = contracted(grid_graph(24), SolveParams(d_max=2, n_min=24 * 24 // 2),
                               encode=True)
    assert_matches_seed(g_r, p, scale)


# -- the inner core: contraction, min-plus closure, or both -----------------

def core_orders_against_reference(g_r, p, monkeypatch):
    """Solve g_r with each of core_caps as the core order and compare D and
    P with reference_solve_residual's; return the core order each reached."""
    n = g_r.n_original
    d0, p0 = new_d(n), PrecedenceMatrix(n)
    p0.cells[...] = p.cells
    solve_residual_by_id(g_r, d0, p0, reference_solve_residual)
    reached = []
    real_close = microsolve.close_core

    def watched_close(core, dc):
        reached.append(len(dc))
        real_close(core, dc)

    monkeypatch.setattr(microsolve, "close_core", watched_close)
    for cap in core_caps(g_r.n_present):
        monkeypatch.setattr(microsolve, "_CORE_ORDER", cap)
        d, p1 = new_d(n), PrecedenceMatrix(n)
        p1.cells[...] = p.cells
        solve_residual_by_id(g_r, d, p1)
        assert np.array_equal(d, d0), cap
        assert np.array_equal(p1.cells, p0.cells), cap
    return reached


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_solve_residual_equals_the_reference_at_every_core_order(seed, monkeypatch):
    # weights 1..4: many equal-length paths through the core and the replay
    g = plus_one(random_connected_graph(150, seed, wmax=3))
    g_r, p, _ = contracted(g, SolveParams(d_max=3, i_max=0), encode=False)
    r = g_r.n_present
    assert r > 20
    assert core_orders_against_reference(g_r, p, monkeypatch) == [1, r // 2, r]


def clique_with_trees(k):
    """A clique on 1..k with 40 tree vertices hanging off it, weights 1..4."""
    rng = random.Random(4)
    g = Graph(k + 40)
    for u in range(1, k + 1):
        for v in range(u + 1, k + 1):
            g.set_edge(u, v, rng.randint(1, 4))
    for v in range(k + 1, k + 41):
        g.set_edge(v, rng.randrange(1, v), rng.randint(1, 4))
    return g


def test_solve_residual_core_stopped_by_degree_equals_the_reference(monkeypatch):
    # a clique of _CORE_DEGREE + 2 with trees hanging off it: the trees
    # contract, and then every vertex left has too many neighbors
    k = microsolve._CORE_DEGREE + 2
    reached = core_orders_against_reference(clique_with_trees(k), PrecedenceMatrix(k + 40),
                                            monkeypatch)
    assert reached[0] == k


@pytest.mark.parametrize("heavy, total", [(2**61 - 4, 2**62 - 2), (2**61 - 3, 2**62 - 1)])
def test_solve_residual_closes_a_core_whatever_the_weight_sum(heavy, total, monkeypatch):
    # the closure's not-joined cell is UNREACHED, above every distance
    # that fits, so weights summing to 2**62 - 2 and to 2**62 - 1 alike
    # reach the core order asked for
    g = path_graph([2**61, heavy, 1, 1])
    assert sum(w for _, _, w in g.edges()) == total
    assert core_orders_against_reference(g, PrecedenceMatrix(5), monkeypatch) == [1, 2, 5]
