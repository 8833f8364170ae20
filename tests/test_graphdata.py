import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradgen.graphdata import (
    Graph,
    ParseError,
    SizeDistribution,
    gen_community,
    gen_cycles,
    gen_grid,
    gen_lobster,
    load_graphs,
    make_community,
    order_nodes,
    save_graphs,
    split,
    to_lower,
)
from gradgen.evalstats import lobster_validity

from oracles import reconstruct


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


# -- Graph type ----------------------------------------------------------


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after normalization
    g = Graph(3, [(2, 0)])
    assert (0, 2) in g.edges


# -- generators ----------------------------------------------------------


def test_cycles_family():
    gs = gen_cycles(seed=1)
    assert len(gs) == 95
    assert all(g.num_edges() == g.n for g in gs)
    assert all(set(g.degrees()) == {2} for g in gs)
    c5 = next(g for g in gs if g.n == 5)
    assert c5.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def test_grid_family():
    gs = gen_grid(seed=1)
    assert len(gs) == 121
    assert all(100 <= g.n <= 400 for g in gs)
    ten = next(g for g in gs if g.n == 100)
    assert ten.num_edges() == 180  # 2mn - m - n with m = n = 10
    for g in gs[:5]:
        assert set(np.unique(g.degrees())).issubset({2, 3, 4})
    # edge count formula across the family
    dims = [(m, n) for m in range(10, 21) for n in range(10, 21)]
    for (m, n), g in zip(dims, gs):
        assert g.n == m * n
        assert g.num_edges() == 2 * m * n - m - n


def is_tree(g: Graph) -> bool:
    if g.num_edges() != g.n - 1:
        return False
    # connectivity via BFS ordering covering all nodes from one component
    seen = {0}
    frontier = [0]
    adj = g.neighbor_lists()
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == g.n


def test_lobster_family():
    gs = gen_lobster(seed=3)
    assert len(gs) == 100
    assert all(10 <= g.n <= 100 for g in gs)
    assert all(g.num_edges() == g.n - 1 for g in gs)
    assert all(is_tree(g) for g in gs)
    assert all(lobster_validity(g) for g in gs)


def test_lobster_is_reproducible():
    a = gen_lobster(count=10, seed=11)
    b = gen_lobster(count=10, seed=11)
    assert a == b
    c = gen_lobster(count=10, seed=12)
    assert a != c


def test_community_family():
    gs = gen_community(seed=5)
    assert len(gs) == 510
    assert all(60 <= g.n <= 160 and g.n % 2 == 0 for g in gs)
    for g in gs[:20]:
        half = g.n // 2
        cross = [(u, v) for u, v in g.edges if u < half <= v]
        assert len(cross) == int(0.05 * g.n)


def test_community_intra_edge_expectation():
    # per-half intra edges ~ Binomial(C(30,2), 0.3) when |V| = 60
    rng = np.random.default_rng(17)
    totals = []
    for _ in range(200):
        g = make_community(60, rng)
        intra = [(u, v) for u, v in g.edges if (u < 30) == (v < 30)]
        totals.append(len(intra) / 2.0)
    expected = 0.3 * (30 * 29 / 2)
    assert abs(np.mean(totals) - expected) < 0.1 * expected


# -- orderings -----------------------------------------------------------


def test_bfs_on_c5():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert order_nodes(c5, "bfs") == [0, 1, 4, 2, 3]


@pytest.mark.parametrize("scheme", ["default", "dfs", "degree", "kcore"])
def test_unknown_ordering_is_refused(scheme):
    with pytest.raises(ValueError, match=f"unknown ordering scheme: '{scheme}'"):
        order_nodes(Graph(3, [(0, 1)]), scheme)


def test_orderings_handle_disconnected():
    g = Graph(6, [(0, 1), (3, 4)])
    order = order_nodes(g, "bfs")
    assert sorted(order) == list(range(6))
    assert order[0] == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 24), st.floats(0.05, 0.7), st.integers(0, 10_000))
def test_bfs_prefix_property(n, p, seed):
    # every non-root node of a connected graph has an earlier neighbor
    g = random_graph(n, p, seed)
    order = order_nodes(g, "bfs")
    pos = {v: i for i, v in enumerate(order)}
    adj = g.neighbor_lists()
    roots = {order[0]}
    for v in order[1:]:
        earlier = [w for w in adj[v] if pos[w] < pos[v]]
        if not earlier:
            roots.add(v)  # new component root
    # component count equals number of restart points
    comp = _component_count(g)
    assert len(roots) == comp


def _component_count(g: Graph) -> int:
    adj = g.neighbor_lists()
    seen = set()
    comp = 0
    for r in range(g.n):
        if r in seen:
            continue
        comp += 1
        stack = [r]
        seen.add(r)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comp


# -- lower-triangular codec ----------------------------------------------


def test_to_lower_p3():
    p3 = Graph(3, [(0, 1), (1, 2)])
    ol = to_lower(p3, [0, 1, 2])
    assert [list(r) for r in ol.rows] == [[], [0], [1]]


def test_to_lower_single_node():
    ol = to_lower(Graph(1, []), [0])
    assert ol.n == 1 and list(ol.rows[0]) == []
    assert reconstruct(ol) == Graph(1, [])


def test_reconstruct_rejects_bad_rows():
    from gradgen.graphdata import OrderedLower

    with pytest.raises(ValueError):
        reconstruct(OrderedLower(rows=[np.array([], dtype=np.int64), np.array([1])]))


def test_roundtrip_community_graphs():
    rng = np.random.default_rng(23)
    for k in range(100):
        g = make_community(int(rng.integers(30, 41)) * 2, rng)
        perm = list(rng.permutation(g.n))
        ol = to_lower(g, perm)
        back = reconstruct(ol)
        relabeled = Graph(
            g.n,
            [(perm.index(u), perm.index(v)) for u, v in g.edges],
        )
        assert back == relabeled


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.floats(0, 1), st.integers(0, 10_000))
def test_roundtrip_property(n, p, seed):
    # any permutation, not only a BFS order, must survive the codec
    g = random_graph(n, p, seed)
    perm = [int(v) for v in np.random.default_rng([seed, 1]).permutation(n)]
    ol = to_lower(g, perm)
    back = reconstruct(ol)
    pos = {v: i for i, v in enumerate(perm)}
    assert back == Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges])


# -- size distribution -----------------------------------------------------


def test_size_dist_frequencies():
    train = [Graph(5, []), Graph(5, []), Graph(7, [])]
    dist = SizeDistribution.from_sizes([g.n for g in train])
    rng = np.random.default_rng(0)
    draws = np.array([dist.sample(rng) for _ in range(10_000)])
    assert set(np.unique(draws)).issubset({5, 7})
    p5 = (draws == 5).mean()
    sigma = np.sqrt((2 / 3) * (1 / 3) / 10_000)
    assert abs(p5 - 2 / 3) < 3 * sigma


def test_size_dist_single_graph():
    dist = SizeDistribution.from_sizes([9])
    rng = np.random.default_rng(1)
    assert all(dist.sample(rng) == 9 for _ in range(50))


def test_size_dist_chi_square():
    from scipy.stats import chisquare

    train = [Graph(n, []) for n in [4] * 10 + [6] * 30 + [9] * 60]
    dist = SizeDistribution.from_sizes([g.n for g in train])
    rng = np.random.default_rng(7)
    draws = np.array([dist.sample(rng) for _ in range(10_000)])
    observed = [(draws == n).sum() for n in (4, 6, 9)]
    expected = [1000, 3000, 6000]
    _, pvalue = chisquare(observed, expected)
    assert pvalue > 0.01


# -- split and container io ------------------------------------------------


def test_split_80_20():
    gs = [Graph(3 + i % 5, []) for i in range(100)]
    sp = split(gs, seed=3)
    assert len(sp.train) == 80 and len(sp.test) == 20
    ids_a = [id(g) for g in sp.train + sp.test]
    assert sorted(ids_a) == sorted(id(g) for g in gs)
    sp2 = split(gs, seed=3)
    assert [g.n for g in sp2.train] == [g.n for g in sp.train]
    sp3 = split(gs, seed=4)
    assert [id(g) for g in sp3.train] != [id(g) for g in sp.train]


def test_container_roundtrip(tmp_path):
    gs = gen_lobster(count=50, seed=9)
    p = tmp_path / "lobsters.g"
    save_graphs(p, gs, comment="fixture")
    back = load_graphs(p)
    assert back == gs


def test_container_rejects_self_loop(tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("graph 0 5\n0 1\n3 3\n\n")
    with pytest.raises(ParseError, match="self-loop"):
        load_graphs(p)


def test_container_rejects_duplicate_edge(tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("graph 0 5\n0 1\n0 1\n\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_graphs(p)


def test_container_parse_error_has_line_number(tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("# comment\ngraph 0 4\n0 1\n2 nine\n\n")
    with pytest.raises(ParseError, match=":4:"):
        load_graphs(p)


def test_container_missing_trailing_blank_line(tmp_path):
    p = tmp_path / "t.g"
    p.write_text("graph 0 3\n0 2\n1 2")
    (g,) = load_graphs(p)
    assert g == Graph(3, [(0, 2), (1, 2)])
