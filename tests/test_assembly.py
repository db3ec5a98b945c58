import tracemalloc

import numpy as np
import pytest
from conftest import (
    assemble_by_id,
    contract,
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
    PrecedenceMatrix,
    RemovalRecord,
    ShrinkSequence,
    SolveParams,
    UNSET,
    disassemble,
    floyd_warshall,
    remove_and_preserve,
    solve,
)
from graphshrink import assembly
from graphshrink.assembly import assemble, restore_order, to_id_order
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
    solve_residual_by_id(seq.residual, d, p, reference_solve_residual)
    return seq, d, p


def restores(seq, d, p):
    """(restored vertex, D, P) after each restore step, in replay order:
    every suffix records[t:] replayed from copies of the post-residual D, P."""
    for t in range(len(seq.records) - 1, -1, -1):
        d_t, p_t = d.copy(), copy_p(p)
        assemble_by_id(ShrinkSequence(seq.records[t:], seq.residual), d_t, p_t)
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
    assemble_by_id(seq, d, p)
    assert np.array_equal((d[1:, 1:] // scale).astype(np.float64), m0[1:, 1:])
    assert np.array_equal(d[1:, 1:] % scale, h0[1:, 1:])
    assert np.array_equal(p.cells, p0.cells)
    return seq


# -- the shortcut replay -----------------------------------------------------

def test_precede_shortcuts_triangle():
    g = triangle_graph()
    rec = remove_and_preserve(g, 2)
    p = PrecedenceMatrix(3)
    precede_shortcuts_by_id(ShrinkSequence([rec], g), p)
    assert int(p.cells[1, 3]) == 2
    assert int(p.cells[3, 1]) == 2
    assert np.count_nonzero(p.cells) == 2


def test_precede_shortcuts_chains_through_an_earlier_shortcut():
    # path 1-2-3-4: removing 2 joins 1 and 3; removing 3 then joins 1 and
    # 4, and 3's edge to 1 is that shortcut, so P[4][1] takes the stored
    # P[3][1] = 2 rather than 3
    g = path_graph([1, 1, 1])
    records = [remove_and_preserve(g, 2), remove_and_preserve(g, 3)]
    assert [r.mutations for r in records] == [[(1, 3, INF, 2)], [(1, 4, INF, 3)]]
    p = PrecedenceMatrix(4)
    precede_shortcuts_by_id(ShrinkSequence(records, g), p)
    assert (int(p.cells[1, 3]), int(p.cells[3, 1])) == (2, 2)
    assert int(p.cells[1, 4]) == 3  # P[3][4] is unset: the edge (3, 4) is original
    assert int(p.cells[4, 1]) == 2
    # in the other order the chain is not there yet
    reordered = PrecedenceMatrix(4)
    precede_shortcuts_by_id(ShrinkSequence(records[::-1], g), reordered)
    assert int(reordered.cells[4, 1]) == 3


# -- restore steps on hand-built sequences ----------------------------------

def test_restore_triangle_middle_vertex():
    d = new_d(3)
    p = PrecedenceMatrix(3)
    d[1, 3] = d[3, 1] = 2
    rec = RemovalRecord(vertex=2, incident_edges=[(1, 1), (3, 1)])
    assemble_by_id(sequence(3, {1, 3}, [rec]), d, p)
    assert d[2, 1] == d[1, 2] == 1
    assert d[2, 3] == d[3, 2] == 1
    assert int(p.cells[2, 1]) == UNSET  # direct recorded edge attains the minimum
    assert int(p.cells[2, 3]) == UNSET


def test_restore_degree_one_vertex_extends_row():
    # v=4 hangs off u=1 with weight 5; distances through 1 extend by 5
    d = new_d(4)
    p = PrecedenceMatrix(4)
    for i, j, dist in [(1, 2, 3), (1, 3, 7), (2, 3, 4)]:
        d[i, j] = d[j, i] = dist
    p.cells[1, 3] = 2  # 1 -> 2 -> 3
    p.cells[3, 1] = 2
    rec = RemovalRecord(vertex=4, incident_edges=[(1, 5)])
    assemble_by_id(sequence(4, {1, 2, 3}, [rec]), d, p)
    assert list(d[4, 1:]) == [5, 8, 12, 0]
    assert np.array_equal(d, d.T)
    assert int(p.cells[4, 1]) == UNSET
    assert int(p.cells[4, 2]) == 1       # P[1][2] unset, so the argmin neighbor
    assert int(p.cells[4, 3]) == 2       # P[1][3] carries through
    assert int(p.cells[2, 4]) == 1       # last hop into 4 is the edge (1, 4)
    assert int(p.cells[3, 4]) == 1


@pytest.mark.parametrize("edges, named, bad_first", [
    ([(3, 1)], 3, True),                  # restored after 2
    ([(4, 1)], 4, True),                  # never present
    ([(1, 1), (3, 1), (4, 1)], 3, True),  # both: 4 sits later in the restore order
    ([(4, 1)], 4, False),                 # replayed second, after 3's row
], ids=["restored_later", "never_present", "two_absent", "replayed_second"])
def test_restore_rejects_absent_neighbor(edges, named, bad_first):
    # the replay runs the records backwards: the bad record names a vertex
    # that is neither in the residual nor restored yet; the message names
    # the lowest such id, and no row is written, not even one replayed
    # before the bad record
    good = RemovalRecord(vertex=3, incident_edges=[(1, 1)])
    bad = RemovalRecord(vertex=2, incident_edges=edges)
    records = [good, bad] if bad_first else [bad, good]
    d, p = new_d(4), PrecedenceMatrix(4)
    with pytest.raises(ValueError, match=f"2 names absent neighbor {named}$"):
        assemble_by_id(sequence(4, {1}, records), d, p)
    assert np.array_equal(d, new_d(4)) and not p.cells.any()


@pytest.mark.parametrize("records", [
    [RemovalRecord(vertex=2, incident_edges=[])],
    # 3 is replayed after 2, whose row would be written first
    [RemovalRecord(vertex=3, incident_edges=[]), RemovalRecord(vertex=2, incident_edges=[(1, 1)])],
], ids=["alone", "replayed_last"])
def test_restore_refuses_a_record_without_edges_before_writing(records):
    n = len(records) + 1
    d, p = new_d(n), PrecedenceMatrix(n)
    p.cells[...] = 7
    empty = next(rec.vertex for rec in records if not rec.incident_edges)
    with pytest.raises(ValueError, match=f"removal record for {empty} has no incident edges"):
        assemble_by_id(sequence(n, {1}, records), d, p)
    assert np.array_equal(d, new_d(n)) and (p.cells == 7).all()


def test_restore_accepts_a_neighbor_restored_before_it():
    rec3 = RemovalRecord(vertex=3, incident_edges=[(1, 1)])
    rec2 = RemovalRecord(vertex=2, incident_edges=[(3, 1)])
    d = new_d(3)
    assemble_by_id(sequence(3, {1}, [rec2, rec3]), d, PrecedenceMatrix(3))
    assert list(d[2, 1:]) == [2, 0, 1]


def test_restore_keeps_a_tight_shortcut_entry_over_a_lower_neighbor():
    # G_0: path 1-2-3 of unit edges, plus 1-4 (1), 4-5 (2), 5-3 (1).
    # Removing 5 writes the shortcut 4-3 of weight 3 with P entries 5;
    # removing 4 then needs no shortcut (1-2-3 is shorter than 1-4-3).
    # Restoring 4, the shortcut ties the path through neighbor 1 (1 + 2),
    # and the first tight neighbor is 1, yet P[4][3] and P[3][4] keep 5.
    rec5 = RemovalRecord(vertex=5, incident_edges=[(3, 1), (4, 2)],
                         mutations=[(3, 4, INF, 3)])
    rec4 = RemovalRecord(vertex=4, incident_edges=[(1, 1), (3, 3)])
    seq = sequence(5, {1, 2, 3}, [rec5, rec4])
    d, p = new_d(5), PrecedenceMatrix(5)
    precede_shortcuts_by_id(seq, p)
    assert (int(p.cells[4, 3]), int(p.cells[3, 4])) == (5, 5)
    for i, j, dist in [(1, 2, 1), (1, 3, 2), (2, 3, 1)]:
        d[i, j] = d[j, i] = dist
    p.cells[1, 3] = 2
    p.cells[3, 1] = 2
    assemble_by_id(seq, d, p)
    assert list(d[4, 1:]) == [1, 2, 3, 0, 2]
    assert (int(p.cells[4, 3]), int(p.cells[3, 4])) == (5, 5)   # the shortcut's stored entries
    assert (int(p.cells[4, 2]), int(p.cells[2, 4])) == (1, 1)   # through the first tight neighbor
    assert (int(p.cells[4, 1]), int(p.cells[1, 4])) == (UNSET, UNSET)


def test_restore_refuses_an_unreached_residual_pair_before_writing():
    # the residual {1, 2} has no edge, so 5 + d[1, 2] is past UNREACHED
    d, p = new_d(3), PrecedenceMatrix(3)
    p.cells[...] = 7
    rec = RemovalRecord(vertex=3, incident_edges=[(1, 5)])
    with pytest.raises(ValueError, match="restoring 3 overflows int64"):
        assemble_by_id(sequence(3, {1, 2}, [rec]), d, p)
    assert np.array_equal(d, new_d(3)) and (p.cells == 7).all()


@pytest.mark.parametrize("stage", ["precede_shortcuts", "assemble"])
def test_stages_refuse_a_p_that_is_not_c_contiguous_before_writing(stage):
    # the flat reads would go through a copy of such cells, and the replay
    # would read cells that it had not written yet
    g = random_connected_graph(40, 3)
    seq, d, p = residual_solved(g, SolveParams())
    assert any(rec.mutations for rec in seq.records)
    with laid_out(restore_order(seq), d, p) as (d_pos, p_pos, pos):
        p_pos.cells = np.asfortranarray(p_pos.cells)
        entry_d, entry_p = d_pos.copy(), p_pos.cells.copy()
        with pytest.raises(ValueError, match="P's cells must be C-contiguous"):
            if stage == "assemble":
                assemble(seq, d_pos, pos, p_pos)
            else:
                assembly.precede_shortcuts(seq, p_pos, pos)
        assert np.array_equal(d_pos, entry_d) and np.array_equal(p_pos.cells, entry_p)


class _Sums(np.ndarray):
    """A matrix view that records the dtype of every sum formed on it."""

    dtypes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Sums) else x for x in inputs]
        if "out" in kwargs:  # an in-place sum: unwrapped, or it would recurse
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Sums) else x
                                  for x in kwargs["out"])
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.add and method == "__call__":
            _Sums.dtypes.append(result.dtype)
        return result


def test_replay_forms_its_candidates_in_uint64(monkeypatch):
    # int64 + uint64 arrays promote to float64, which rounds large
    # distances: every candidate block must stay uint64
    g = random_connected_graph(30, 21)
    seq, d, p = residual_solved(g, SolveParams(n_min=8))
    monkeypatch.setattr(_Sums, "dtypes", [])
    with laid_out(restore_order(seq), d, p) as (d_pos, p_pos, pos):
        assemble(seq, d_pos.view(_Sums), pos, p_pos)
    assert len(_Sums.dtypes) == len(seq.records)
    assert set(_Sums.dtypes) == {np.dtype(np.uint64)}
    assert np.array_equal(d, floyd_warshall(g).cells)


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
    assemble_by_id(seq, d, PrecedenceMatrix(1))
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


# -- the restore-order layout ------------------------------------------------

def permutations(n):
    """Permutations of 0..n that fix 0: the identity, one n-cycle over
    1..n, n // 2 swaps of neighbors, a seeded random one, and one cycle
    over 1..8, a row longer than the 7-row blocks of the test below."""
    swaps = np.arange(n + 1)
    swaps[1:n // 2 * 2 + 1] = swaps[1:n // 2 * 2 + 1].reshape(-1, 2)[:, ::-1].ravel()
    k = min(8, n)
    return {"identity": np.arange(n + 1), "one_cycle": np.r_[0, 2:n + 1, 1], "swaps": swaps,
            "random": np.r_[0, 1 + np.random.default_rng(n).permutation(n)],
            "block_and_one": np.r_[0, 2:k + 1, 1, k + 1:n + 1]}


@pytest.mark.parametrize("corner", [False, True])
@pytest.mark.parametrize("rows_a_block", [7, 1])
@pytest.mark.parametrize("shape", list(permutations(1)))
@pytest.mark.parametrize("n", [1, 6, 301])
def test_to_id_order_matches_a_fancy_index(shape, n, rows_a_block, corner, monkeypatch):
    # 7 rows: several blocks, the last short; 1 row: every cycle crosses
    # a block's end.  A corner of a larger matrix is not contiguous
    monkeypatch.setattr(assembly, "_BLOCK_CELLS", rows_a_block * (n + 1))
    pos = permutations(n)[shape]
    rng = np.random.default_rng(n)
    d = rng.integers(0, 2**62, (n + 1, n + 1))
    d[rng.random(d.shape) < 0.1] = UNREACHED
    p = rng.integers(0, n + 1, (n + 1, n + 1), dtype=np.int32)
    # every row i, also a cycle's kept first row, gets a cell holding i
    p[pos, rng.integers(0, n + 1, n + 1)] = np.arange(n + 1)
    row_ids = np.arange(n + 1)[:, None]
    for cells, scale, precedence in [(d, 1, False), (d, n + 1, False), (p, 1, False),
                                     (p, 1, True)]:
        expected = cells[np.ix_(pos, pos)]
        expected[expected != UNREACHED] //= scale
        if precedence:
            expected = np.where(expected == row_ids, UNSET, expected)
        whole = np.pad(cells, (0, 3), constant_values=-5) if corner else cells.copy()
        to_id_order(whole[:n + 1, :n + 1], pos, scale, precedence)
        assert np.array_equal(whole[:n + 1, :n + 1], expected)
        assert (whole[n + 1:] == -5).all() and (whole[:, n + 1:] == -5).all()


def test_to_id_order_on_a_corner_view_holds_two_blocks_and_a_row():
    # a copy of the whole corner (2.9 MB) would pass the bound many times
    n = 601
    rng = np.random.default_rng(3)
    whole = rng.integers(0, 2**62, (n + 40, n + 30))
    pos = np.r_[0, 1 + rng.permutation(n - 1)]
    block = assembly._BLOCK_CELLS // n * n * whole.itemsize
    for scale, precedence in [(1, False), (n, False), (1, True)]:
        tracemalloc.start()
        try:
            to_id_order(whole[:n, :n], pos, scale, precedence)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the walk's own lists and arrays take about 9 words a row, and
        # P's decode one more, its rows' ids
        assert peak <= 2 * block + whole.itemsize * n + 16 * 8 * n, (scale, precedence)


def test_to_id_order_on_a_corner_leaves_the_rest():
    rng = np.random.default_rng(5)
    d = rng.integers(0, 100, (9, 9))
    before = d.copy()
    pos = np.array([0, 3, 1, 4, 2])
    to_id_order(d[:5, :5], pos)
    assert np.array_equal(d[:5, :5], before[np.ix_(pos, pos)])
    assert np.array_equal(d[5:], before[5:]) and np.array_equal(d[:, 5:], before[:, 5:])


@pytest.mark.parametrize("pos", [[0, 1, 1], [0, 2, 2], [0, 1, 3], [0, -1, 2], [2, 0],
                                 [0, 2, 1, 3], []])
def test_to_id_order_refuses_a_non_permutation_before_writing(pos):
    # a repeated index, one out of range, or a wrong length: before the
    # check, [0, 1, 1] sent the cycle walk round forever
    cells = np.arange(9, dtype=np.int64).reshape(3, 3)
    with pytest.raises(ValueError, match="permutation of 0..2"):
        to_id_order(cells, pos)
    assert np.array_equal(cells, np.arange(9).reshape(3, 3))


def test_restore_order_is_the_residual_then_the_records_reversed():
    seq, _, _ = residual_solved(random_connected_graph(30, 21), SolveParams(n_min=8))
    order = restore_order(seq)
    assert order[:8] == sorted(seq.residual.adj)
    assert order[8:] == [rec.vertex for rec in seq.records][::-1]


@pytest.mark.parametrize("params", [SolveParams(), SolveParams(d_max=3, i_max=0)])
def test_assemble_without_p_writes_the_same_d_and_no_p_cell(params):
    work = grid_graph(16)
    for nbrs in work.adj.values():
        for v in nbrs:
            nbrs[v] = nbrs[v] * 257 + 1
    seq, d, p = residual_solved(work, params)
    d_only, p_only = d.copy(), copy_p(p)
    assemble_by_id(seq, d, p)
    with laid_out(restore_order(seq), d_only, p_only) as (d_pos, p_pos, pos):
        entry = p_pos.cells.copy()
        assemble(seq, d_pos, pos)
        assert np.array_equal(p_pos.cells, entry)
    assert np.array_equal(d_only, d)
