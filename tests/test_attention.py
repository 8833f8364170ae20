import numpy as np
import pytest

from gradgen.attention import GaParams, NeighborMask, ga_forward, init_ga_params
from gradgen.tensorcore import Tensor, dense_attention, grad, mlp, tsum

from conftest import assert_grads_match, numerical_grad


def make_params(d_in=6, d_s=4, heads=3, seed=0, zero_final=False):
    return init_ga_params(np.random.default_rng(seed), d_in, d_s, heads, zero_final=zero_final)


def random_mask(n, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) < p
    m = np.triu(m, 1)
    m = m | m.T
    return NeighborMask(m)


def test_mask_validation():
    with pytest.raises(ValueError):
        NeighborMask(np.ones((3, 3), dtype=bool))  # diagonal set
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        NeighborMask(asym)
    ok = NeighborMask.from_edges(3, [(0, 2)])
    assert list(ok.cols[ok.rows == 2]) == [0]
    assert NeighborMask.complete(4).matrix.sum() == 12


def attention_weights(z, mask, params):
    """The layer's (H, m, m) attention weights, read from the dense kernel by
    mixing with v = identity."""
    m, heads = z.shape[0], params.heads
    q = mlp(z, [(params.wq1, params.bq1), (params.wq2, params.bq2)])
    k = mlp(z, [(params.wk1, params.bk1), (params.wk2, params.bk2)])
    eye = Tensor(np.broadcast_to(np.eye(m), (heads, m, m)))
    mixed = dense_attention(q, k, eye, mask.matrix, params.d_s**-0.5).data
    return mixed.reshape(m, heads, m).transpose(1, 0, 2)


def test_single_neighbor_attention_weight_is_one():
    params = make_params()
    z = Tensor(np.random.default_rng(1).standard_normal((3, 6)))
    attn = attention_weights(z, NeighborMask.from_edges(3, [(0, 1)]), params)
    assert attn[:, 0, 1] == pytest.approx(1.0)
    assert attn[:, 1, 0] == pytest.approx(1.0)
    assert np.all(attn[:, 2, :] == 0.0)  # isolated node: empty row


def test_attention_rows_sum_to_one():
    params = make_params(seed=3)
    n = 7
    matrix = random_mask(n, 0.5, seed=4).matrix.copy()
    matrix[2] = matrix[:, 2] = False  # an isolated node: its row is empty
    mask = NeighborMask(matrix)
    z = Tensor(np.random.default_rng(5).standard_normal((n, 6)))
    attn = attention_weights(z, mask, params)
    assert np.all(attn[:, ~mask.matrix] == 0.0)
    sums = attn.sum(-1)
    nonempty = mask.matrix.any(-1)
    assert np.abs(sums[:, nonempty] - 1.0).max() < 1e-10
    assert np.all(sums[:, ~nonempty] == 0.0)


def test_output_shape_and_finiteness():
    params = make_params(seed=6)
    for n in (1, 2, 9):
        mask = random_mask(n, 0.4, seed=n)
        z = Tensor(np.random.default_rng(n).standard_normal((n, 6)) * 50)
        out = ga_forward(z, mask, params)
        assert out.shape == (n, 6)
        assert np.isfinite(out.data).all()


def test_permutation_equivariance():
    params = make_params(seed=7)
    rng = np.random.default_rng(8)
    for trial in range(5):
        n = 8
        mask = random_mask(n, 0.45, seed=20 + trial)
        z = rng.standard_normal((n, 6))
        perm = rng.permutation(n)
        out = ga_forward(Tensor(z), mask, params).data
        permuted_mask = NeighborMask(mask.matrix[np.ix_(perm, perm)])
        out_p = ga_forward(Tensor(z[perm]), permuted_mask, params).data
        assert np.abs(out_p - out[perm]).max() < 1e-10


def test_zeroed_branches_reduce_to_double_layer_norm():
    params = make_params(seed=9)
    # zero the residual branches, identity layer-norm affines
    params.wp.data = np.zeros_like(params.wp.data)
    params.ww2.data = np.zeros_like(params.ww2.data)
    params.bw2.data = np.zeros_like(params.bw2.data)
    for name in ("ln1_g", "ln2_g"):
        getattr(params, name).data = np.ones_like(getattr(params, name).data)
    for name in ("ln1_b", "ln2_b"):
        getattr(params, name).data = np.zeros_like(getattr(params, name).data)
    n = 5
    z = np.random.default_rng(10).standard_normal((n, 6))
    out = ga_forward(Tensor(z), random_mask(n, 0.5, seed=11), params).data

    def ln(x):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5)

    np.testing.assert_allclose(out, ln(ln(z)), atol=1e-12)


def test_empty_neighborhood_contributes_zero():
    params = make_params(seed=12)
    z = np.random.default_rng(13).standard_normal((4, 6))
    mask_empty = NeighborMask(np.zeros((4, 4), dtype=bool))
    out = ga_forward(Tensor(z), mask_empty, params).data

    def ln(x, g, b):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    # with zero attention output the layer is LN, FFN, LN of the raw input
    h = ln(z, params.ln1_g.data, params.ln1_b.data)
    ff = np.maximum(h @ params.ww1.data + params.bw1.data, 0) @ params.ww2.data + params.bw2.data
    np.testing.assert_allclose(out, ln(h + ff, params.ln2_g.data, params.ln2_b.data), atol=1e-12)


def test_gradient_matches_finite_differences():
    params = make_params(d_in=4, d_s=3, heads=2, seed=14)
    n = 5
    mask = random_mask(n, 0.6, seed=15)
    z0 = np.random.default_rng(16).standard_normal((n, 4))
    w = np.random.default_rng(17).standard_normal((n, 4))

    def readout(z_arr, p=params):
        return ga_forward(Tensor(z_arr), mask, p)

    z = Tensor(z0, requires_grad=True)
    loss = tsum(ga_forward(z, mask, params) * Tensor(w))
    leaves = [z] + [t for _, t in params.tensors()]
    got = grad(loss, leaves)
    assert_grads_match(got[z], numerical_grad(lambda x: float(tsum(readout(x) * Tensor(w)).data), z0.copy()))
    # finite differences through a couple of parameter tensors as well
    for name in ("wq1", "wp", "ln2_g", "bw1"):
        t = getattr(params, name)
        base = t.data.copy()

        def f(x, t=t, base=base):
            t.data = x
            val = float(tsum(readout(z0) * Tensor(w)).data)
            t.data = base
            return val

        assert_grads_match(got[t], numerical_grad(f, base.copy()))


def test_zero_final_initialization_gives_zero_output():
    params = make_params(seed=18, zero_final=True)
    z = Tensor(np.random.default_rng(19).standard_normal((6, 6)))
    out = ga_forward(z, random_mask(6, 0.5, seed=20), params)
    np.testing.assert_array_equal(out.data, np.zeros((6, 6)))


def test_ga_params_requires_all_fields():
    with pytest.raises(ValueError):
        GaParams(wq1=Tensor(np.zeros((1, 2, 3))))


# -- edge-list kernel against the dense reference --------------------------------


def scaffold_mask(rng, n_prev, k, p):
    from gradgen.decoder import build_scaffold
    from gradgen.graphdata import lower_edges

    rows = [np.flatnonzero(rng.random(i) < p) for i in range(n_prev)]
    return build_scaffold(*lower_edges(rows), n_prev, k)


def sparse_mask(n, n_edges, seed, isolated=()):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < n_edges:
        u, v = rng.choice(n, size=2, replace=False)
        if u not in isolated and v not in isolated:
            edges.add((min(u, v), max(u, v)))
    return NeighborMask.from_edges(n, sorted(edges))


def oracle_cases():
    rng = np.random.default_rng(30)
    yield "scaffold k=1", scaffold_mask(rng, 40, 1, 0.05)
    yield "scaffold k=3", scaffold_mask(rng, 37, 3, 0.05)
    yield "scaffold k=2 dense side", scaffold_mask(rng, 6, 2, 0.5)
    yield "isolated rows", sparse_mask(30, 25, seed=31, isolated=(0, 7, 29))
    yield "no edges", NeighborMask(np.zeros((6, 6), dtype=bool))
    yield "complete m=1", NeighborMask.complete(1)
    yield "complete m=12", NeighborMask.complete(12)


def test_kernel_choice_covers_both_sides():
    from gradgen.attention import DENSE_FILL

    sides = {name: mask.fill > DENSE_FILL for name, mask in oracle_cases()}
    assert not sides["scaffold k=1"] and not sides["isolated rows"] and not sides["complete m=1"]
    assert sides["scaffold k=2 dense side"] and sides["complete m=12"]


@pytest.mark.parametrize("case", [name for name, _ in oracle_cases()])
def test_ga_forward_matches_dense_oracle(case):
    from oracles import dense_ga_forward

    mask = dict(oracle_cases())[case]
    params = make_params(d_in=6, d_s=4, heads=3, seed=32)
    rng = np.random.default_rng(33)
    z0 = rng.standard_normal((mask.n, 6))
    w = Tensor(rng.standard_normal((mask.n, 6)))
    leaves = [t for _, t in params.tensors()]
    results = []
    for layer in (ga_forward, lambda z, m, p: dense_ga_forward(z, m.matrix, p)):
        z = Tensor(z0, requires_grad=True)
        out = layer(z, mask, params)
        got = grad(tsum(out * w), [z] + leaves)
        results.append((out.data, [got[t] for t in [z] + leaves]))
    (out, grads), (ref_out, ref_grads) = results
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    for (name, _), g, ref in zip([("z", None)] + list(params.tensors()), grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("case", ["scaffold k=1", "scaffold k=2 dense side", "complete m=12"])
@pytest.mark.parametrize("frozen", [False, True], ids=["all leaves", "parameters frozen"])
def test_fused_perceptrons_are_bitwise_equal_to_the_unfused_chain(case, frozen, monkeypatch):
    from gradgen.tensorcore import engine as eng
    from oracles import mlp_chain

    mask = dict(oracle_cases())[case]
    params = make_params(d_in=6, d_s=4, heads=3, seed=37)
    rng = np.random.default_rng(38)
    z0 = rng.standard_normal((mask.n, 6))
    w = Tensor(rng.standard_normal((mask.n, 6)))
    leaves = [] if frozen else [t for _, t in params.tensors()]
    for _, t in params.tensors():
        t.data = t.data + 0.3 * rng.standard_normal(t.shape)  # nonzero biases
        t.requires_grad = not frozen
    results = []
    for perceptron in (eng.mlp, mlp_chain):
        monkeypatch.setattr(eng, "mlp", perceptron)
        z = Tensor(z0, requires_grad=True)
        out = ga_forward(z, mask, params)
        got = grad(tsum(out * w), [z] + leaves)
        results.append([out.data.tobytes()] + [got[t].tobytes() for t in [z] + leaves])
    assert results[0] == results[1]


def test_fill_rule_picks_one_kernel_per_side(monkeypatch):
    from gradgen.attention import DENSE_FILL
    from gradgen.tensorcore import engine as eng

    used = []
    for prim in ("edge_attention", "dense_attention"):
        fn = getattr(eng, prim)
        monkeypatch.setattr(eng, prim, lambda *a, _fn=fn, _p=prim: used.append(_p) or _fn(*a))
    params = make_params(seed=34)
    n = 20
    edges = int(DENSE_FILL * n * n / 2)  # each undirected edge fills two entries
    for n_edges, kernel in ((edges, "edge_attention"), (edges + 1, "dense_attention")):
        mask = sparse_mask(n, n_edges, seed=35)
        used.clear()
        ga_forward(Tensor(np.random.default_rng(36).standard_normal((n, 6))), mask, params)
        assert used == [kernel]


def test_neighbor_mask_edge_list():
    mask = NeighborMask.from_edges(5, [(3, 1), (0, 3), (1, 3), (4, 0)])
    assert list(mask.rows) == [0, 0, 1, 3, 3, 4]
    assert list(mask.cols) == [3, 4, 3, 0, 1, 0]
    assert list(mask.cols[mask.rows == 2]) == []
    assert mask.fill == 6 / 25
    again = NeighborMask(mask.matrix)
    for name in ("rows", "cols"):
        np.testing.assert_array_equal(getattr(again, name), getattr(mask, name))
    complete = NeighborMask.complete(3)
    assert list(complete.cols) == [1, 2, 0, 2, 0, 1]
