import hashlib
import random

import pytest
from conftest import grid_graph, path_graph, random_connected_graph, triangle_graph

from graphshrink import (
    INF,
    Graph,
    GraphError,
    SolveParams,
    UNBOUNDED,
    disassemble,
    disassembly,
    dijkstra,
    edge_delta,
    remove_and_preserve,
)
from graphshrink.disassembly import best_alternative_two_hop
from graphshrink.graph import MAX_WEIGHT


def star_graph(leaves=3, w=1):
    g = Graph(leaves + 1)
    for leaf in range(2, leaves + 2):
        g.set_edge(1, leaf, w)
    return g


# -- best_alternative_two_hop ---------------------------------------------

def test_alternative_sole_common_neighbor_excluded():
    g = path_graph([1, 1])
    assert best_alternative_two_hop(g, 1, 3, excluded=2) == INF


def test_alternative_picks_cheapest_remaining():
    g = Graph(5)
    # a=1, b=2; common neighbors 3 (sums 5), 4 (sums 3), 5 (excluded)
    g.set_edge(1, 3, 2)
    g.set_edge(3, 2, 3)
    g.set_edge(1, 4, 1)
    g.set_edge(4, 2, 2)
    g.set_edge(1, 5, 1)
    g.set_edge(5, 2, 1)
    assert best_alternative_two_hop(g, 1, 2, excluded=5) == 3


def test_alternative_no_common_neighbors():
    g = path_graph([1, 1, 1])
    assert best_alternative_two_hop(g, 1, 4, excluded=2) == INF


# -- edge_delta ------------------------------------------------------------

def test_edge_delta_degree_one():
    g = path_graph([1])
    assert edge_delta(g, 1) == -1


def test_edge_delta_triangle_no_new_edge():
    assert edge_delta(triangle_graph(), 2) == -2


def test_edge_delta_star_center():
    assert edge_delta(star_graph(3), 1) == 0


def test_edge_delta_isolated_rejected():
    g = Graph(2)
    g.set_edge(1, 2, 1)
    g.remove_vertex(2)
    with pytest.raises(GraphError):
        edge_delta(g, 1)


def test_remove_and_preserve_isolated_rejected():
    g = Graph(2)
    g.set_edge(1, 2, 1)
    g.remove_vertex(2)
    with pytest.raises(GraphError, match="^cannot remove isolated vertex 1$"):
        remove_and_preserve(g, 1)
    assert g.adj == {1: {}}


def test_edge_delta_is_pure():
    g = triangle_graph()
    before = {v: dict(nbrs) for v, nbrs in g.adj.items()}
    edge_delta(g, 2)
    assert {v: dict(nbrs) for v, nbrs in g.adj.items()} == before


@pytest.mark.parametrize("v", [5, 7], ids=["removed", "never_present"])
@pytest.mark.parametrize("op", [edge_delta, remove_and_preserve])
def test_absent_vertex_refused_with_graph_error(op, v):
    g = path_graph([1, 1, 1, 1])
    g.remove_vertex(5)
    before = {u: dict(nbrs) for u, nbrs in g.adj.items()}
    with pytest.raises(GraphError, match=f"vertex {v} not present"):
        op(g, v)
    assert {u: dict(nbrs) for u, nbrs in g.adj.items()} == before and g.m == 3


@pytest.mark.parametrize("seed", range(20))
def test_edge_delta_matches_realized_removal(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(5, 50), seed)
    v = rng.choice([u for u in sorted(g.adj) if g.adj[u]])
    predicted = edge_delta(g, v)
    m_before = g.m
    remove_and_preserve(g, v)
    assert g.m - m_before == predicted


# -- remove_and_preserve ---------------------------------------------------

def test_remove_preserve_triangle_shortcut():
    g = triangle_graph()
    rec = remove_and_preserve(g, 2)
    assert g.adj[1][3] == g.adj[3][1] == 2
    assert rec.incident_edges == [(1, 1), (3, 1)]
    assert rec.mutations == [(1, 3, 5, 2)]


def test_remove_preserve_degree_one_no_mutations():
    g = path_graph([1, 2])
    rec = remove_and_preserve(g, 1)
    assert rec.mutations == []
    assert rec.incident_edges == [(2, 1)]


def test_remove_preserve_square_tie_adds_nothing():
    # square 1-2-3-4-1, unit weights; removing 2 must not add (1,3): the
    # two-hop via 4 is equally short, and strict comparison leaves it out
    g = Graph(4)
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1)]:
        g.set_edge(u, v, 1)
    dist_before, _ = dijkstra(g, 1)
    assert dist_before[3] == 2
    rec = remove_and_preserve(g, 2)
    assert rec.mutations == []
    assert 3 not in g.adj[1]
    dist_after, _ = dijkstra(g, 1)
    assert dist_after[3] == 2  # still 2, via vertex 4


@pytest.mark.parametrize("seed", range(10))
def test_remove_preserve_keeps_survivor_distances(seed):
    rng = random.Random(seed)
    g = random_connected_graph(40, seed + 100)
    for _ in range(15):
        v = rng.choice(sorted(g.adj))
        survivors = [u for u in sorted(g.adj) if u != v]
        before = {s: dijkstra(g, s)[0] for s in survivors[:8]}
        remove_and_preserve(g, v)
        for s in survivors[:8]:
            after, _ = dijkstra(g, s)
            for t in survivors:
                assert after[t] == before[s][t]


@pytest.mark.parametrize("seed", range(8))
def test_mutations_strictly_improve(seed):
    seq = disassemble(random_connected_graph(50, seed + 7), SolveParams())
    for rec in seq.records:
        for _, _, old, new in rec.mutations:
            assert new < old
        if len(rec.incident_edges) == 1:
            assert rec.mutations == []


# -- disassemble -----------------------------------------------------------

def test_disassemble_path_order():
    seq = disassemble(path_graph([1, 1, 1]), SolveParams())
    assert [r.vertex for r in seq.records] == [1, 2, 3]
    assert sorted(seq.residual.adj) == [4]


def test_disassemble_full_contraction_random():
    for seed in range(6):
        seq = disassemble(random_connected_graph(35, seed), SolveParams())
        assert seq.residual.n_present == 1
        assert len(seq.records) == 34
        removed = {r.vertex for r in seq.records}
        assert len(removed) == 34
        assert removed.isdisjoint(seq.residual.adj)


def test_disassemble_single_vertex():
    g = Graph(1)
    seq = disassemble(g, SolveParams())
    assert seq.records == []
    assert seq.residual is g


def test_disassemble_respects_n_min():
    seq = disassemble(random_connected_graph(30, 3), SolveParams(n_min=10))
    assert seq.residual.n_present == 10
    assert len(seq.records) == 20


def test_disassemble_respects_d_max():
    seq = disassemble(star_graph(5), SolveParams(d_max=1))  # center has degree 5
    # leaves go one by one at degree 1; the center survives with the last leaf
    assert seq.residual.n_present == 1


def test_disassemble_blocked_by_tight_i_max():
    # star center: removing a leaf is fine (delta -1), but once only the
    # center and leaves remain, an i_max below any achievable delta blocks
    seq = disassemble(star_graph(4), SolveParams(i_max=-2))
    # degree-1 leaves have delta -1 > -2, center delta varies; nothing moves
    assert seq.records == []
    assert seq.residual.n_present == 5


def test_disassemble_gate_decides_each_removal_once(monkeypatch):
    g0 = grid_graph(16)
    calls = []
    real_decide = disassembly._decide

    def counting_decide(g, v, nbrs):
        mutations = real_decide(g, v, nbrs)
        calls.append((v, disassembly._edge_delta(mutations, len(nbrs))))
        return mutations

    monkeypatch.setattr(disassembly, "_decide", counting_decide)
    work = g0.copy()
    seq = disassemble(work, SolveParams(i_max=0))
    monkeypatch.undo()
    assert len(seq.records) > 100
    # one decision per removal; a blocked vertex's decision removes nothing
    assert [v for v, delta in calls if delta <= 0] == [r.vertex for r in seq.records]
    assert any(delta > 0 for _, delta in calls)
    # the gate and the removal still agree with the public edge_delta and
    # remove_and_preserve, replayed in the same order
    replay = g0.copy()
    for rec in seq.records:
        assert edge_delta(replay, rec.vertex) <= 0
        assert remove_and_preserve(replay, rec.vertex) == rec
    assert replay.adj == work.adj


# sha256 of repr([(vertex, incident_edges, mutations), ...]) over
# disassemble's records: the order of removals and every shortcut they
# write.  grid32's full and i_max=0 runs remove vertices of degree 16+,
# which decide their pairs in the numpy block.
RECORD_GRAPHS = {
    "grid16": lambda: grid_graph(16),
    "grid32": lambda: grid_graph(32),
    "random200-11": lambda: random_connected_graph(200, 11),
    "random150-3-w2": lambda: random_connected_graph(150, 3, wmax=2),
}
RECORD_KNOBS = {
    "full": SolveParams(),
    "d3-i0": SolveParams(d_max=3, i_max=0),
    "i0": SolveParams(i_max=0),
    "d2-n50": SolveParams(d_max=2, n_min=50),
}
RECORD_DIGESTS = {
    ("grid16", "full"): "8bef6aa3fc9337c7ee2738b27ad35a526c0438bb802574d039e93fcb450a3f06",
    ("grid16", "d3-i0"): "3dcb0defd3cdff77e23d51c50e218e978c7642fe3891ada0ca392639f1810bc3",
    ("grid16", "i0"): "7d049ec0a3a0f7a3c54c1abd326d3a10c13b6163a5c1db52e87e929cba2d0f6b",
    ("grid16", "d2-n50"): "fd70913eb27a2e77042757ff53ecf54e1bfa343ffb41a6915a0bb4c64e0a699e",
    ("random200-11", "full"): "ac84cff81f010e116d8e9e9fd9e6bc38d8fdb1ff62de0fc717338329b2169ea9",
    ("random200-11", "d3-i0"): "904b6af4e5955da95a0c149b95f6863d732278f8b50a57b493f7e93fef653153",
    ("random200-11", "i0"): "1f65dad4d5995217ccd97ed83e2e5e169df271515d1174c652acb105f61defb8",
    ("random200-11", "d2-n50"): "ebd43cbfdc25df95ea13c7e8df8973fa4c2b46bdf79e25dc172d90a725d18a30",
    ("random150-3-w2", "full"): "456fe42e07c13ce1fdb74220d35b91382eff24a6d2bdb4f5ff0d2b0bc74c149d",
    ("random150-3-w2", "d3-i0"): "80d6aa41eb8d1eefddac802972b3a5c804c784a0725b761759a95e15d6ce058d",
    ("random150-3-w2", "i0"): "aa0369e6c090692b777c5c7296c58d71634348c41f5f29784c2f9d1eef25df5c",
    ("random150-3-w2", "d2-n50"): "efb18bc610404d84b815eccdf0336ace3374f7dea77ddee3d1f7dc8b4be3f5d2",
    ("grid32", "full"): "9594b829a61ad568262a906387b7e063bee1d74bcea8b84d96d183468828a3dc",
    ("grid32", "d3-i0"): "9a40cc39c8f4dd26e8a0e4ca5968635448e088fd24e0ea087a4aee78b8fcc58b",
    ("grid32", "i0"): "89635179925685d46fde0e42fc812190c677197fa2bdfcf4c5f9eb485939fdf0",
    ("grid32", "d2-n50"): "0540cd0b10ed33cc2532a4b561d064165494952a79a78bb03131b8f37ae0a953",
}


@pytest.mark.parametrize("graph, knobs", RECORD_DIGESTS)
def test_disassemble_records_are_pinned(graph, knobs):
    seq = disassemble(RECORD_GRAPHS[graph](), RECORD_KNOBS[knobs])
    text = repr([(r.vertex, r.incident_edges, r.mutations) for r in seq.records])
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_DIGESTS[graph, knobs]


def test_disassemble_rejects_disconnected():
    g = Graph(4)
    g.set_edge(1, 2, 1)
    g.set_edge(3, 4, 1)
    with pytest.raises(GraphError, match="disconnected: no path between vertices 1 and 3"):
        disassemble(g, SolveParams())


# -- block decision against the dict decision --------------------------------

def wheel_graph(spokes, w=1):
    g = star_graph(spokes, w)
    for rim in range(2, spokes + 2):
        g.set_edge(rim, rim + 1 if rim <= spokes else 2, w)
    return g


def clique_graph(k, weight):
    g = Graph(k)
    for u in range(1, k + 1):
        for v in range(u + 1, k + 1):
            g.set_edge(u, v, weight(u, v))
    return g


def reweighted(g, weight):
    out = Graph(g.n_original)
    for u, v, _ in g.edges():
        out.set_edge(u, v, weight(u, v))
    return out


def _hashed(u, v):
    return (u * 7919 + v * 104729) % 13


def _gapped(g, gone):
    """g with the ids `gone` removed, as a caller may do before contracting."""
    for v in gone:
        g.remove_vertex(v)
    return g


def _hub(n, seed):
    """Sparse random graph on 1..n with hub n // 2 joined to 1, n and every
    third id, so its H holds both ends of the id range."""
    g = random_connected_graph(n, seed)
    for u in [1, n, *range(3, n, 3)]:
        if u != n // 2:
            g.set_edge(n // 2, u, 1 + u % 7)
    return g


DECISION_CASES = {
    "clique-distinct": clique_graph(20, _hashed),
    "clique-equal": clique_graph(20, lambda u, v: 3),
    "clique-zero": clique_graph(20, lambda u, v: 0),
    "clique-max-weight": clique_graph(18, lambda u, v: MAX_WEIGHT - _hashed(u, v) % 2),
    "wheel": wheel_graph(24),
    "wheel-zero": wheel_graph(24, 0),
    "star": star_graph(30),
    "grid": grid_graph(8, 0.3, 5),
    "grid-equal": reweighted(grid_graph(8, 0.3, 5), lambda u, v: 1),
    "random-zero": random_connected_graph(60, 3, wmax=0),
    "random-ties": random_connected_graph(70, 4, wmax=2),
    "random-max-weight": reweighted(random_connected_graph(60, 5),
                                    lambda u, v: MAX_WEIGHT - _hashed(u, v) % 3),
    **{f"random-{seed}": random_connected_graph(40 + 10 * seed, seed)
       for seed in range(6)},
    # the block numbers H through an array over the ids 0..n_original:
    # H spans both ends of that range, with gaps where ids were removed
    "clique-gaps": _gapped(clique_graph(30, _hashed), [5, 17, 23]),
    "hub-gaps": _gapped(_hub(60, 7), [2, 31, 59]),
    "hub-zero": _gapped(reweighted(_hub(60, 8), lambda u, v: 0), [4, 40]),
}


def _no_dicts(*args):
    raise AssertionError("a removal left the block path")


def _encoded(g):
    work = g.copy()
    for nbrs in work.adj.values():
        for v in nbrs:
            nbrs[v] = nbrs[v] * (g.n_original + 1) + 1
    return work


def _contract(g, encoded, threshold, monkeypatch):
    """Records of a full contraction with every removal of degree >=
    threshold on the block path."""
    work = _encoded(g) if encoded else g.copy()
    with monkeypatch.context() as patch:
        patch.setattr(disassembly, "_BLOCK_DEGREE", threshold)
        seq = disassemble(work, SolveParams())
    return [(r.vertex, r.incident_edges, r.mutations) for r in seq.records]


@pytest.mark.parametrize("encoded", [False, True], ids=["raw", "encoded"])
@pytest.mark.parametrize("name", DECISION_CASES)
def test_block_and_dict_decisions_give_identical_records(name, encoded, monkeypatch):
    g = DECISION_CASES[name]
    # at threshold 1 every removal must take the block path
    monkeypatch.setattr(disassembly, "_decide_dicts", _no_dicts)
    # P is a function of the records (precede_shortcuts), so equal records
    # give equal P
    block = _contract(g, encoded, 1, monkeypatch)
    monkeypatch.undo()
    dicts = _contract(g, encoded, 10**9, monkeypatch)
    assert block == dicts
    for _, _, muts in block:
        for a, b, old, new in muts:
            assert type(a) is type(b) is type(new) is int
            assert old == INF or type(old) is int


@pytest.mark.parametrize("encoded", [False, True], ids=["raw", "encoded"])
@pytest.mark.parametrize("name", DECISION_CASES)
def test_block_and_dict_decide_every_first_removal_alike(name, encoded):
    # a full contraction removes hubs and clique members only once their
    # degree has dropped; here each is decided at its full degree
    g = _encoded(DECISION_CASES[name]) if encoded else DECISION_CASES[name]
    for v in sorted(g.adj):
        nbrs = sorted(g.adj[v])
        assert disassembly._decide_block(g, v, nbrs) == disassembly._decide_dicts(g, v, nbrs)


@pytest.mark.parametrize("weight", [disassembly._BIG // 2, 2**70])
def test_weights_too_large_for_the_block_take_the_dict_path(weight, monkeypatch):
    # s = 2 * weight reaches _BIG, the block's missing-edge value: the
    # block would find s < cur false and drop the needed shortcut
    monkeypatch.setattr(disassembly, "_BLOCK_DEGREE", 1)
    assert disassembly._decide_block(path_graph([weight, weight]), 2, [1, 3]) is None
    g = path_graph([weight, weight])
    rec = remove_and_preserve(g, 2)
    assert rec.mutations == [(1, 3, INF, 2 * weight)]
    assert g.adj[1][3] == 2 * weight


def test_weights_just_below_half_the_sentinel_stay_on_the_block_path(monkeypatch):
    weight = disassembly._BIG // 2 - 1
    monkeypatch.setattr(disassembly, "_BLOCK_DEGREE", 1)
    monkeypatch.setattr(disassembly, "_decide_dicts", _no_dicts)
    rec = remove_and_preserve(path_graph([weight, weight]), 2)
    assert rec.mutations == [(1, 3, INF, 2 * weight)]


# -- the edge count after contraction ----------------------------------------

def _edge_count(g):
    return sum(map(len, g.adj.values())) // 2


# chains, stars, cliques (their first removals decide on the block path),
# zero and MAX_WEIGHT weights, and ids removed before the call
EDGE_COUNT_CASES = {
    "chain": lambda: path_graph([3, 1, 4, 1, 5, 9, 2, 6] * 4),
    **{name: g.copy for name, g in DECISION_CASES.items()},
}

EDGE_COUNT_KNOBS = [SolveParams(d_max=d_max, i_max=i_max, n_min=n_min)
                    for d_max in (1, 2, 3, UNBOUNDED)
                    for i_max in (0, UNBOUNDED)
                    for n_min in (1, 6)]


@pytest.mark.parametrize("params", EDGE_COUNT_KNOBS,
                         ids=lambda k: f"d{k.d_max}-i{k.i_max}-n{k.n_min}")
@pytest.mark.parametrize("name", EDGE_COUNT_CASES)
def test_disassemble_keeps_the_edge_count(name, params):
    # removals write their shortcuts into g.adj directly and count the new
    # edges into g.m themselves
    g = EDGE_COUNT_CASES[name]()
    disassemble(g, params)
    assert g.m == _edge_count(g)


@pytest.mark.parametrize("name", EDGE_COUNT_CASES)
def test_remove_and_preserve_keeps_the_edge_count(name):
    g0 = EDGE_COUNT_CASES[name]()
    for v in sorted(g0.adj):
        g = g0.copy()
        rec = remove_and_preserve(g, v)
        assert g.m == _edge_count(g) == g0.m + edge_delta(g0, v)
        assert rec.mutations == disassembly._decide(g0, v, sorted(g0.adj[v]))


@pytest.mark.parametrize("knob", ["d_max", "i_max", "n_min"])
def test_solve_params_refuse_a_nan_knob(knob):
    # NaN compares false with everything: a NaN d_max never stops the
    # degree sweep, a NaN i_max never gates, a NaN n_min never contracts
    with pytest.raises(ValueError, match=f"^{knob} must be .*, got nan$"):
        SolveParams(**{knob: float("nan")})
