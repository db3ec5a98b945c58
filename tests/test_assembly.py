import numpy as np
import pytest
from conftest import (
    contract,
    grid_graph,
    path_graph,
    random_connected_graph,
    reference_solve_residual,
    triangle_graph,
)

from graphshrink import (
    INF,
    DistanceMatrix,
    Graph,
    PrecedenceMatrix,
    RemovalRecord,
    ShrinkSequence,
    SolveParams,
    UNSET,
    assemble,
    disassemble,
    floyd_warshall,
    precede_shortcuts,
    remove_and_preserve,
    solve,
)
from graphshrink.microsolve import UNREACHED


def new_d(n):
    """The solver's distance matrix before any stage: UNREACHED, zero diagonal."""
    return DistanceMatrix(n).cells


def sequence(n, present, records):
    """A hand-built shrink sequence whose residual keeps only `present`."""
    residual = Graph(n)
    for v in range(1, n + 1):
        if v not in present:
            residual.remove_vertex(v)
    return ShrinkSequence(records=records, residual=residual)


def copy_p(p):
    out = PrecedenceMatrix(p.order)
    out.cells[...] = p.cells
    return out


def residual_solved(g, params):
    """Shrink sequence, D and P of a raw-weight solve before assembly, the
    residual solved by the reference (raw residuals may hold zero weights,
    which solve_residual refuses)."""
    seq, p = contract(g.copy(), params)
    d = new_d(g.n_original)
    reference_solve_residual(seq.residual, d, p)
    return seq, d, p


def restores(seq, d, p):
    """(restored vertex, D, P) after each restore step, in replay order:
    every suffix records[t:] replayed from copies of the post-residual D, P."""
    for t in range(len(seq.records) - 1, -1, -1):
        d_t, p_t = d.copy(), copy_p(p)
        assemble(ShrinkSequence(seq.records[t:], seq.residual), d_t, p_t)
        yield seq.records[t].vertex, d_t, p_t


# -- frozen reference: the float + hop matrix assembly it replaced ----------

_HOP_SENTINEL = np.iinfo(np.int32).max


def seed_restore(m_cells, h_cells, p_cells, rec, ids, nbr_pos, scale):
    i = rec.vertex
    k = len(rec.incident_edges)
    if k == 1:
        nbr, enc = rec.incident_edges[0]
        w, h = divmod(enc, scale)
        dist = w + m_cells[nbr, ids]
        hops = h + h_cells[nbr, ids]
        pxl = p_cells[nbr, ids]
        row_val = np.where(pxl != UNSET, pxl, nbr)
        pxi = p_cells[nbr, i]
        col_val = pxi if pxi != UNSET else nbr
        weights = np.array([w], dtype=np.float64)
        wh = np.array([h], dtype=np.int64)
    else:
        nbr_ids = np.fromiter((nb for nb, _ in rec.incident_edges), dtype=np.intp, count=k)
        weights = np.fromiter((enc // scale for _, enc in rec.incident_edges),
                              dtype=np.float64, count=k)
        wh = np.fromiter((enc % scale for _, enc in rec.incident_edges),
                         dtype=np.int64, count=k)
        cand_w = weights[:, None] + m_cells[nbr_ids[:, None], ids]
        dist = cand_w.min(axis=0)
        cand_h = np.where(cand_w == dist,
                          wh[:, None] + h_cells[nbr_ids[:, None], ids],
                          _HOP_SENTINEL)
        am = cand_h.argmin(axis=0)
        hops = cand_h[am, np.arange(len(ids))]
        x = nbr_ids[am]
        pxl = p_cells[x, ids]
        row_val = np.where(pxl != UNSET, pxl, x)
        pxi = p_cells[x, i]
        col_val = np.where(pxi != UNSET, pxi, x)

    direct_hits = (weights[np.arange(k)] == dist[nbr_pos]) if k > 1 else \
        np.asarray([weights[0] == dist[nbr_pos[0]]])
    direct_hits &= wh == hops[nbr_pos]
    skip = nbr_pos[direct_hits]
    skip_ids = ids[skip]
    saved_row = p_cells[i, skip_ids].copy()
    saved_col = p_cells[skip_ids, i].copy()

    p_cells[i, ids] = row_val
    p_cells[ids, i] = col_val
    p_cells[i, skip_ids] = saved_row
    p_cells[skip_ids, i] = saved_col
    p_cells[i, i] = UNSET

    m_cells[i, ids] = dist
    m_cells[ids, i] = dist
    m_cells[i, i] = 0.0
    h_cells[i, ids] = hops
    h_cells[ids, i] = hops
    h_cells[i, i] = 0


def seed_assemble(seq, m_cells, p, scale, hop_cells):
    n = m_cells.shape[0] - 1
    ids_buf = np.empty(n, dtype=np.intp)
    pos = np.empty(n + 1, dtype=np.intp)
    residual_ids = sorted(seq.residual.adj)
    count = len(residual_ids)
    ids_buf[:count] = residual_ids
    pos[ids_buf[:count]] = np.arange(count)
    for rec in reversed(seq.records):
        ids = ids_buf[:count]
        nbr_pos = pos[[nb for nb, _ in rec.incident_edges]]
        seed_restore(m_cells, hop_cells, p.cells, rec, ids, nbr_pos, scale)
        ids_buf[count] = rec.vertex
        pos[rec.vertex] = count
        count += 1


def assert_matches_seed(g, params, encode):
    """Contract g (hop-encoded as solver.solve does when `encode`), solve
    the residual, then assemble with the reference from M = D // scale and
    hops = D % scale; decoded D and P must come out identical."""
    n = g.n_original
    scale = n + 1 if encode else 1
    work = g.copy()
    for nbrs in work.adj.values():
        for v in nbrs:
            nbrs[v] = nbrs[v] * scale + (1 if encode else 0)
    seq, d, p = residual_solved(work, params)
    m0, p0 = np.where(d == UNREACHED, np.inf, d // scale), copy_p(p)
    h0 = d % scale
    seed_assemble(seq, m0, p0, scale, h0)
    assemble(seq, d, p)
    assert np.array_equal((d[1:, 1:] // scale).astype(np.float64), m0[1:, 1:])
    assert np.array_equal(d[1:, 1:] % scale, h0[1:, 1:])
    assert np.array_equal(p.cells, p0.cells)
    return seq


# -- the shortcut replay -----------------------------------------------------

def test_precede_shortcuts_triangle():
    g = triangle_graph()
    rec = remove_and_preserve(g, 2)
    p = PrecedenceMatrix(3)
    precede_shortcuts(ShrinkSequence([rec], g), p)
    assert p.get(1, 3) == 2
    assert p.get(3, 1) == 2
    assert np.count_nonzero(p.cells) == 2


def test_precede_shortcuts_chains_through_an_earlier_shortcut():
    # path 1-2-3-4: removing 2 joins 1 and 3; removing 3 then joins 1 and
    # 4, and 3's edge to 1 is that shortcut, so P[4][1] takes the stored
    # P[3][1] = 2 rather than 3
    g = path_graph([1, 1, 1])
    records = [remove_and_preserve(g, 2), remove_and_preserve(g, 3)]
    assert [r.mutations for r in records] == [[(1, 3, INF, 2)], [(1, 4, INF, 3)]]
    p = PrecedenceMatrix(4)
    precede_shortcuts(ShrinkSequence(records, g), p)
    assert (p.get(1, 3), p.get(3, 1)) == (2, 2)
    assert p.get(1, 4) == 3  # P[3][4] is unset: the edge (3, 4) is original
    assert p.get(4, 1) == 2
    # in the other order the chain is not there yet
    reordered = PrecedenceMatrix(4)
    precede_shortcuts(ShrinkSequence(records[::-1], g), reordered)
    assert reordered.get(4, 1) == 3


# -- restore steps on hand-built sequences ----------------------------------

def test_restore_triangle_middle_vertex():
    d = new_d(3)
    p = PrecedenceMatrix(3)
    d[1, 3] = d[3, 1] = 2
    rec = RemovalRecord(vertex=2, incident_edges=[(1, 1), (3, 1)])
    assemble(sequence(3, {1, 3}, [rec]), d, p)
    assert d[2, 1] == d[1, 2] == 1
    assert d[2, 3] == d[3, 2] == 1
    assert p.get(2, 1) == UNSET  # direct recorded edge attains the minimum
    assert p.get(2, 3) == UNSET


def test_restore_degree_one_vertex_extends_row():
    # v=4 hangs off u=1 with weight 5; distances through 1 extend by 5
    d = new_d(4)
    p = PrecedenceMatrix(4)
    for i, j, dist in [(1, 2, 3), (1, 3, 7), (2, 3, 4)]:
        d[i, j] = d[j, i] = dist
    p.set(1, 3, 2)  # 1 -> 2 -> 3
    p.set(3, 1, 2)
    rec = RemovalRecord(vertex=4, incident_edges=[(1, 5)])
    assemble(sequence(4, {1, 2, 3}, [rec]), d, p)
    assert list(d[4, 1:]) == [5, 8, 12, 0]
    assert np.array_equal(d, d.T)
    assert p.get(4, 1) == UNSET
    assert p.get(4, 2) == 1       # P[1][2] unset, so the argmin neighbor
    assert p.get(4, 3) == 2       # P[1][3] carries through
    assert p.get(2, 4) == 1       # last hop into 4 is the edge (1, 4)
    assert p.get(3, 4) == 1


def test_restore_rejects_absent_neighbor():
    # the replay runs the records backwards: 2 comes back first, naming 3,
    # which is neither in the residual nor restored yet
    rec3 = RemovalRecord(vertex=3, incident_edges=[(1, 1)])
    rec2 = RemovalRecord(vertex=2, incident_edges=[(3, 1)])
    with pytest.raises(ValueError, match="2 names absent neighbor 3"):
        assemble(sequence(3, {1}, [rec3, rec2]), new_d(3), PrecedenceMatrix(3))
    # in the other order 3 is present when 2 comes back
    d = new_d(3)
    assemble(sequence(3, {1}, [rec2, rec3]), d, PrecedenceMatrix(3))
    assert list(d[2, 1:]) == [2, 0, 1]


def test_restore_refuses_an_unreached_residual_pair_before_writing():
    # the residual {1, 2} has no edge, so 5 + d[1, 2] would wrap int64
    d, p = new_d(3), PrecedenceMatrix(3)
    p.cells[...] = 7
    rec = RemovalRecord(vertex=3, incident_edges=[(1, 5)])
    with pytest.raises(ValueError, match="restoring 3 overflows int64"):
        assemble(sequence(3, {1, 2}, [rec]), d, p)
    assert np.array_equal(d, new_d(3)) and (p.cells == 7).all()


def test_restore_touches_only_own_row_and_column():
    seq, d, p = residual_solved(random_connected_graph(30, 21), SolveParams(n_min=8))
    assert len(seq.records) == 22
    before_d, before_p = d, p.cells
    for i, d_t, p_t in restores(seq, d, p):
        others = np.ix_(*[[v for v in range(31) if v != i]] * 2)
        assert np.array_equal(d_t[others], before_d[others])
        assert np.array_equal(p_t.cells[others], before_p[others])
        before_d, before_p = d_t, p_t.cells


def test_assemble_empty_records_is_noop():
    d = new_d(1)
    seq = disassemble(Graph(1), SolveParams())
    assemble(seq, d, PrecedenceMatrix(1))
    assert np.array_equal(d, new_d(1))


def test_assemble_single_edge_graph():
    g = Graph(2)
    g.set_edge(1, 2, 9)
    result = solve(g)
    assert result.distances.get(1, 2) == 9
    assert result.distances.get(2, 1) == 9
    assert result.removals == 1


def test_assemble_path_full_pipeline():
    g = path_graph([1, 1, 1])
    result = solve(g)
    assert [result.distances.get(1, j) for j in range(1, 5)] == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(8))
def test_assemble_matches_floyd_warshall(seed):
    g = random_connected_graph(60, seed + 200)
    fw = floyd_warshall(g)
    result = solve(g)
    assert np.array_equal(result.distances.cells, fw.cells)


@pytest.mark.parametrize("seed", range(5))
def test_symmetry_and_zero_diagonal_after_every_restore(seed):
    seq, d, p = residual_solved(random_connected_graph(25, seed + 400), SolveParams(n_min=5))
    present = sorted(seq.residual.adj)
    for i, d_t, _ in restores(seq, d, p):
        present.append(i)
        block = d_t[np.ix_(present, present)]
        assert np.array_equal(block, block.T)
        assert np.all(np.diag(block) == 0)
        assert (block < UNREACHED).all()


# -- differential check against the frozen reference ------------------------

@pytest.mark.parametrize("params", [SolveParams(), SolveParams(d_max=3, i_max=0)])
def test_assemble_matches_seed_on_hop_encoded_grid(params):
    seq = assert_matches_seed(grid_graph(24), params, encode=True)
    assert len(seq.records) > 50


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("params", [SolveParams(), SolveParams(n_min=60)])
def test_assemble_matches_seed_on_raw_tied_weights(seed, params):
    # weights 0..3: zero-weight edges, many ties, and degree-1 restores
    seq = assert_matches_seed(random_connected_graph(150, seed, wmax=3), params, encode=False)
    assert any(len(rec.incident_edges) == 1 for rec in seq.records)
