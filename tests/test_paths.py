import random
import tracemalloc

import pytest
from conftest import grid_graph, path_graph, random_connected_graph, triangle_graph
from test_fuzz import FAMILIES

from graphshrink import (
    INF,
    UNSET,
    Graph,
    PathError,
    PrecedenceMatrix,
    path_weight,
    reconstruct_path,
    SolveParams,
    apsp_dijkstra,
    first_bad_cell,
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


@pytest.mark.parametrize("i, j", [(1, 4), (4, 1), (0, 2)])
def test_an_id_outside_the_matrix_is_refused(i, j):
    g = path_graph([1, 1])
    result = solve(g)
    with pytest.raises(PathError, match=rf"^pair \({i},{j}\) has an id outside 1\.\.3$"):
        reconstruct_path(result.precedence, g, i, j)


def test_corrupt_matrix_cycle_detected():
    g = path_graph([1, 1])
    p = PrecedenceMatrix(3)
    p.cells[1, 3] = 3  # j's own predecessor points back at j via itself
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
    g = removed_tail_path_graph()  # 5 removed before the solve
    assert path_weight(g, [4, 5]) == path_weight(g, [5, 4]) == INF


def test_path_weight_empty_rejected():
    g = path_graph([1])
    with pytest.raises(PathError, match="^empty path$"):
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


# -- the walk against its per-hop reference ---------------------------------

def reference_reconstruct_path(p, g0, i, j):
    """The earlier walk: one PrecedenceMatrix.get per hop, and a length guard."""
    if i == j:
        raise PathError("reconstruct_path requires i != j")
    path = [j]
    seen = {j}
    cur = j
    while cur != i:
        q = int(p.cells[i, cur])
        pred = q if q != UNSET else i
        if pred in seen:
            raise PathError(f"predecessor cycle at vertex {pred} for pair ({i},{j})")
        if pred not in g0.adj or cur not in g0.adj[pred]:
            raise PathError(f"consecutive pair ({pred},{cur}) not adjacent for pair ({i},{j})")
        if len(path) > g0.n_original:
            raise PathError(f"path for pair ({i},{j}) exceeds {g0.n_original} vertices")
        path.append(pred)
        seen.add(pred)
        cur = pred
    path.reverse()
    return path


def walk_outcome(walk, p, g, i, j):
    try:
        return walk(p, g, i, j)
    except PathError as exc:
        return f"PathError: {exc}"


def removed_tail_path_graph():
    # path 1-2-3-4-5 without 5, removed before the solve
    g = path_graph([3, 3, 3, 3])
    g.remove_vertex(5)
    return g


@pytest.mark.parametrize("g, params", [
    (triangle_graph(), SolveParams()),
    (grid_graph(8), SolveParams()),
    (grid_graph(8), SolveParams(d_max=3, i_max=0)),
    (random_connected_graph(60, 4, wmax=2), SolveParams()),
    (removed_tail_path_graph(), SolveParams()),
], ids=["triangle", "grid8-full", "grid8-bounded", "random60", "path-without-5"])
def test_walk_matches_the_reference_on_every_pair(g, params):
    p = solve(g, params).precedence
    n = g.n_original
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = walk_outcome(reconstruct_path, p, g, i, j)
            assert got == walk_outcome(reference_reconstruct_path, p, g, i, j), (i, j)
            assert isinstance(got, str) or all(type(v) is int for v in got), (i, j)


@pytest.mark.parametrize("g, pair, cells, message", [
    # 4's last hop is 3 and 3's is 4
    (path_graph([1, 1, 1]), (1, 4), [(1, 4, 3), (1, 3, 4)],
     "predecessor cycle at vertex 4 for pair (1,4)"),
    # 4's last hop is 2, which is not adjacent to 4
    (path_graph([1, 1, 1]), (1, 4), [(1, 4, 2)],
     "consecutive pair (2,4) not adjacent for pair (1,4)"),
    # ids beyond n = 4 and below 1
    (path_graph([1, 1, 1]), (1, 4), [(1, 4, 9)],
     "consecutive pair (9,4) not adjacent for pair (1,4)"),
    (path_graph([1, 1, 1]), (1, 4), [(1, 4, -1)],
     "consecutive pair (-1,4) not adjacent for pair (1,4)"),
    # unset: the direct edge (1, 4), which is absent
    (path_graph([1, 1, 1]), (1, 4), [(1, 4, UNSET)],
     "consecutive pair (1,4) not adjacent for pair (1,4)"),
    # the solve leaves the cells of a vertex removed before it unset
    (removed_tail_path_graph(), (1, 5), [],
     "consecutive pair (1,5) not adjacent for pair (1,5)"),
    (removed_tail_path_graph(), (5, 1), [],
     "consecutive pair (5,1) not adjacent for pair (5,1)"),
    # 3's last hop is 3 itself: a repeat and no edge at once, and the repeat wins
    (path_graph([1, 1, 1]), (1, 4), [(1, 3, 3)],
     "predecessor cycle at vertex 3 for pair (1,4)"),
    # 8 -> 7 -> 6 -> 5 -> 4 -> 7: 7 repeats four hops after it was walked,
    # at the step that is also the non-edge (7, 4)
    (path_graph([1] * 7), (1, 8), [(1, 4, 7)],
     "predecessor cycle at vertex 7 for pair (1,8)"),
    # grid edges 20 -> 14 -> 8 -> 9 -> 15 -> 14 that never reach 1: the walk
    # runs to its n-hop bound and names the first repeat, 14
    (grid_graph(6), (1, 20), [(1, 20, 14), (1, 14, 8), (1, 8, 9), (1, 9, 15), (1, 15, 14)],
     "predecessor cycle at vertex 14 for pair (1,20)"),
    # grid edges 8 -> 9 -> 15 -> 14 -> 8, back to j
    (grid_graph(6), (1, 8), [(1, 8, 9), (1, 9, 15), (1, 15, 14), (1, 14, 8)],
     "predecessor cycle at vertex 8 for pair (1,8)"),
], ids=["cycle", "non-adjacent", "beyond-n", "negative", "unset", "removed-target",
        "removed-source", "repeat-and-non-edge", "repeat-hops-back-and-non-edge",
        "edge-cycle-to-bound", "edge-cycle-to-j"])
def test_walk_refuses_a_corrupt_cell_as_the_reference_does(g, pair, cells, message):
    p = solve(g).precedence
    for i, j, q in cells:
        p.cells[i, j] = q
    for walk in (reconstruct_path, reference_reconstruct_path):
        with pytest.raises(PathError) as exc:
            walk(p, g, *pair)
        assert str(exc.value) == message


def test_walk_matches_the_reference_on_random_corruptions_of_the_walked_row():
    g = grid_graph(6)
    n = g.n_original
    p = solve(g).precedence
    rng = random.Random(28)
    kinds = set()
    for _ in range(2000):
        i, j = rng.sample(range(1, n + 1), 2)
        walked = reconstruct_path(p, g, i, j)[1:]  # the vertices whose cells the walk reads
        saved = p.cells[i].copy()
        for cur in rng.sample(walked, rng.randint(1, min(3, len(walked)))):
            # a neighbor (an edge, perhaps closing a cycle), any id, unset or out of range
            p.cells[i, cur] = rng.choice([rng.choice(list(g.adj[cur])), rng.randint(1, n),
                                          UNSET, -1, n + 1])
        got = walk_outcome(reconstruct_path, p, g, i, j)
        assert got == walk_outcome(reference_reconstruct_path, p, g, i, j), (i, j, p.cells[i])
        kinds.add(got.split(" at ")[0].split(" (")[0] if isinstance(got, str) else "path")
        p.cells[i] = saved
    assert kinds == {"path", "PathError: predecessor cycle", "PathError: consecutive pair"}


# -- path_weight against a plain loop ---------------------------------------

def loop_path_weight(g, path):
    total = 0
    for a, b in zip(path, path[1:]):
        if a not in g.adj or b not in g.adj[a]:
            return INF
        total += g.adj[a][b]
    return total


def test_path_weight_matches_a_loop_on_every_pair():
    g = grid_graph(8)
    result = solve(g)
    n = g.n_original
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            path = reconstruct_path(result.precedence, g, i, j) if i != j else [i]
            w = path_weight(g, path)
            assert w == loop_path_weight(g, path) == result.distances.get(i, j), (i, j)


# -- first_bad_cell: D and P certified against the graph alone -------------

def row_walks_check_out(g, d, p, i):
    """Whether every walk of row i of P is a path of weight D[i][j], and
    every pair with no path has P unset."""
    for j in range(1, g.n_original + 1):
        if j == i:
            continue
        if d.get(i, j) == INF:
            if p.cells[i, j] != UNSET:
                return False
            continue
        try:
            path = reconstruct_path(p, g, i, j)
        except PathError:
            return False
        if path_weight(g, path) != d.get(i, j):
            return False
    return True


@pytest.mark.parametrize("g, params", [(triangle_graph(), SolveParams()),
                                       (grid_graph(8), SolveParams(d_max=3, i_max=0)),
                                       (random_connected_graph(60, 4, wmax=2), SolveParams()),
                                       (removed_tail_path_graph(), SolveParams())])
def test_first_bad_cell_passes_every_solve(g, params):
    result = solve(g, params)
    assert first_bad_cell(g, result.distances, result.precedence) is None


@pytest.mark.parametrize("family", FAMILIES)
def test_first_bad_cell_passes_apsp_dijkstra(family):
    # the oracle breaks ties its own way, so the check is not tuned to the
    # pipeline's choice of last hops
    for seed in range(5):
        g = FAMILIES[family](seed)
        d, p = apsp_dijkstra(g)
        assert first_bad_cell(g, d, p) is None


@pytest.mark.parametrize("family", FAMILIES)
def test_first_bad_cell_refuses_single_cell_corruptions(family):
    # D: a pair one more or one less, kept symmetric, is always refused.
    # P: another last hop (a neighbor, perhaps tied or closing a cycle of
    # weight 0, any vertex, unset or out of range) is refused exactly when
    # some walk of its row no longer checks out
    g = FAMILIES[family](0)
    n = g.n_original
    result = solve(g)
    d, p = result.distances, result.precedence
    rng = random.Random(32)
    refused = 0
    for _ in range(100):
        i, j = rng.sample(range(1, n + 1), 2)
        delta = rng.choice([-1, 1])
        d.cells[i, j] += delta
        d.cells[j, i] += delta
        assert first_bad_cell(g, d, p) is not None, (i, j, delta)
        d.cells[i, j] -= delta
        d.cells[j, i] -= delta
    for _ in range(100):
        i, j = rng.sample(range(1, n + 1), 2)
        saved = p.cells[i, j]
        p.cells[i, j] = rng.choice([rng.choice(list(g.adj[j])), rng.randint(1, n), UNSET, n + 1])
        sound = row_walks_check_out(g, d, p, i)
        assert (first_bad_cell(g, d, p) is None) == sound, (i, j, p.cells[i, j])
        refused += not sound
        p.cells[i, j] = saved
    assert first_bad_cell(g, d, p) is None
    assert refused


def test_first_bad_cell_names_each_kind_of_bad_cell():
    g = path_graph([1, 1, 1])
    result = solve(g)
    d, p = result.distances, result.precedence
    assert int(p.cells[4, 1]) == 2
    p.cells[4, 1] = 3  # (3, 1) is not an edge
    assert first_bad_cell(g, d, p) == (
        4, 1, "precedence cell (4,1): last hop from 3: (3,1) is not an edge")
    p.cells[4, 1] = 2
    p.cells[1, 3] = 9  # no such vertex
    assert first_bad_cell(g, d, p) == (
        1, 3, "precedence cell (1,3): last hop from 9: (9,3) is not an edge")
    p.cells[1, 3] = 2
    d.cells[3, 3] = 1
    assert first_bad_cell(g, d, p) == (3, 3, "distance cell (3,3): D[3][3] = 1 != 0")
    d.cells[3, 3] = 0
    d.cells[4, 2] = 7
    assert first_bad_cell(g, d, p) == (2, 4, "distance cell (2,4): D[2][4] = 2 != D[4][2] = 7")
    d.cells[2, 4] = 7
    assert first_bad_cell(g, d, p) == (
        2, 4, "distance cell (2,4): D[2][4] = 7 != min over q in N(4) of D[2][q] + w(q,4) = 2")
    d.cells[2, 4] = d.cells[4, 2] = 2
    assert first_bad_cell(g, d, p) is None
    tri = triangle_graph()
    result = solve(tri)
    result.precedence.cells[1, 3] = 0  # unset: the direct edge (1, 3), 5 > 2
    assert first_bad_cell(tri, result.distances, result.precedence) == (
        1, 3, "precedence cell (1,3): last hop from 1: D[1][1] + w(1,3) = 5 != D[1][3] = 2")


@pytest.mark.parametrize("source", ["solve", "apsp_dijkstra"])
def test_first_bad_cell_passes_a_vertex_removed_before_the_solve(source):
    # 5's pairs have no path and no last hop, so they pass while P stays unset
    g = removed_tail_path_graph()
    if source == "solve":
        result = solve(g)
        d, p = result.distances, result.precedence
    else:
        d, p = apsp_dijkstra(g)
    assert first_bad_cell(g, d, p) is None
    p.cells[1, 5] = 2  # a last hop for a pair with no path
    assert first_bad_cell(g, d, p) == (
        1, 5, "precedence cell (1,5): no path, but P[1][5] = 2 is set")
    p.cells[1, 5] = 0
    p.cells[5, 3] = 4  # (4, 3) is an edge of g, but 5 reaches nothing
    assert first_bad_cell(g, d, p)[:2] == (5, 3)
    p.cells[5, 3] = 0
    d.cells[1, 5] = d.cells[5, 1] = 12  # 5 reaches nothing
    assert first_bad_cell(g, d, p) == (
        1, 5, "distance cell (1,5): D[1][5] = 12 != min over q in N(5) of D[1][q] + w(q,5) = inf")


def test_first_bad_cell_reports_the_first_cell_across_source_blocks(monkeypatch):
    # a star: hub 1 has 39 neighbors, so 4 * 40 cells take 4 sources a
    # block in the hub's column.  Column 1's first bad row is 33, in its
    # ninth block, and column 7's is 30, which comes first in row-major order
    g = Graph(40)
    for leaf in range(2, 41):
        g.set_edge(1, leaf, leaf % 5 + 1)
    result = solve(g)
    d, p = result.distances, result.precedence
    p.cells[33, 1] = 31
    p.cells[35, 1] = 32
    p.cells[30, 7] = UNSET
    by_default = first_bad_cell(g, d, p)
    monkeypatch.setattr(paths, "_CHECK_CELLS", 4 * 40)
    assert first_bad_cell(g, d, p) == by_default
    assert by_default[:2] == (30, 7)


def test_first_bad_cell_holds_a_bounded_block_on_a_hub(monkeypatch):
    # the hub's 599 neighbor rows would gather 600 x 600 sums at once, and
    # the leaves of weight 0 give stage 3 a block of 86 columns; with
    # blocks of 4096 cells the peak stays within 16 blocks of 8-byte cells
    g = Graph(600)
    for leaf in range(2, 601):
        g.set_edge(1, leaf, leaf % 7)
    result = solve(g)
    monkeypatch.setattr(paths, "_CHECK_CELLS", 4096)
    tracemalloc.start()
    try:
        assert first_bad_cell(g, result.distances, result.precedence) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4096 * 8


def zero_hop_path():
    # 1 -(10)- 2 -(0)- 3
    g = Graph(3)
    g.set_edge(1, 2, 10)
    g.set_edge(2, 3, 0)
    return g


def test_first_bad_cell_refuses_a_cycle_of_zero_weight_last_hops():
    # every hop is tight, so a test of each cell alone passes them; the
    # walks from 2 and 3 never reach 1
    g = zero_hop_path()
    result = solve(g)
    d, p = result.distances, result.precedence
    assert first_bad_cell(g, d, p) is None
    p.cells[1, 2] = 3
    p.cells[1, 3] = 2
    assert first_bad_cell(g, d, p) == (
        1, 2, "precedence cell (1,2): its last hops cycle at weight 0 short of 1")


@pytest.mark.parametrize("symmetric, cell", [(True, (2, 1)), (False, (1, 2))])
def test_first_bad_cell_refuses_a_false_distance_shared_across_a_zero_weight_edge(symmetric,
                                                                                  cell):
    # i - a of weight 10 and a - b of weight 0, with D[i][a] = D[i][b] = 5
    # and the last hops of a and b pointing at each other: the cells of
    # source i satisfy their equations, but D[a][i] = 5 does not (or D is
    # not symmetric)
    g = zero_hop_path()
    result = solve(g)
    d, p = result.distances, result.precedence
    d.cells[1, 2] = d.cells[1, 3] = 5
    if symmetric:
        d.cells[2, 1] = d.cells[3, 1] = 5
    p.cells[1, 2] = 3
    p.cells[1, 3] = 2
    bad = first_bad_cell(g, d, p)
    assert bad is not None and bad[:2] == cell and bad[2].startswith("distance cell")
