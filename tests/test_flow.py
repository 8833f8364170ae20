import os

import numpy as np
import pytest

from gradgen.attention import NeighborMask
from gradgen.config import RunConfig
from gradgen.decoder import LatentStore
from gradgen.flow import (
    FlowParams,
    _coupling,
    flow_forward,
    flow_inverse,
    flow_nll,
    init_actnorms,
    init_flow_params,
    mask_from_ordered,
    sample_codes,
    train_flow,
)
from gradgen.graphdata import Graph, load_graphs, order_nodes, to_lower
from gradgen.tensorcore import Tensor, grad

from conftest import assert_grads_match, numerical_grad
from oracles import mask_from_matrix


def flow_config(**kw):
    base = dict(d=4, heads=2, d_s_flow=3, d_s_decoder=4, M=1, R=2, C=2,
                flow_epochs=5, batch=4, seed=0, flow_noise=0.0, decoder_noise=0.0)
    base.update(kw)
    return RunConfig(**base).validate()


def make_flow(cfg=None, seed=0):
    cfg = cfg or flow_config()
    return cfg, init_flow_params(cfg, np.random.default_rng(seed))


def identity_flow(cfg):
    params = init_flow_params(cfg, np.random.default_rng(0))
    for layer in params.layers:
        layer.w.data = np.eye(cfg.d // 2)
    return params


def random_mask(n, p, seed):
    rng = np.random.default_rng(seed)
    m = np.triu(rng.random((n, n)) < p, 1)
    return mask_from_matrix(m | m.T)


def test_mask_from_ordered_is_the_ordered_adjacency():
    """On every committed training lobster in BFS order, the true-structure
    mask is the sorted edge list of the permuted adjacency matrix."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "results", "acceptance", "lobster.ckpt.train.g")
    graphs = load_graphs(path)
    assert len(graphs) == 80
    for g in graphs:
        perm = order_nodes(g, "bfs")
        adj = np.zeros((g.n, g.n), dtype=bool)
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = True
        rows, cols = np.nonzero(adj[np.ix_(perm, perm)])
        mask = mask_from_ordered(to_lower(g, perm))
        assert mask.n == g.n
        np.testing.assert_array_equal(mask.rows, rows)
        np.testing.assert_array_equal(mask.cols, cols)


def perturb(params: FlowParams, scale=0.4, seed=1):
    """Give the zero-initialized GA transforms nontrivial weights."""
    rng = np.random.default_rng(seed)
    for name, t in params.tensors():
        if name.endswith("ln2_g") and "/g" in name:
            t.data = rng.standard_normal(t.data.shape) * scale
        elif name.endswith(("log_s", "/b")) and "/n" in name:
            t.data = rng.standard_normal(t.data.shape) * 0.2
    return params


def test_actnorm_init_standardizes_every_half_step():
    cfg = flow_config(d=6, R=3)
    params = perturb(init_flow_params(cfg, np.random.default_rng(2)), seed=3)
    rng = np.random.default_rng(4)
    batch = [(rng.standard_normal((n, cfg.d)), random_mask(n, 0.4, n)) for n in (5, 7, 9)]
    init_actnorms(params, batch)
    assert params.initialized
    d2 = cfg.d // 2
    pairs = [(Tensor(z[:, :d2]), Tensor(z[:, d2:])) for z, _ in batch]
    for layer in params.layers:
        normed = []
        for (cond, upd), (_, mask) in zip(pairs, batch):
            s, t = _coupling(cond, mask, layer)
            normed.append((upd.data * np.exp(s.data) + t.data) * np.exp(layer.log_s.data) + layer.b.data)
        h = np.concatenate(normed)  # post-actnorm, pre-mixing, over the batch
        np.testing.assert_allclose(h.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(h.std(axis=0), 1.0, atol=1e-10)
        pairs = [(Tensor(x @ layer.w.data), cond) for x, (cond, _) in zip(normed, pairs)]
    # walking the layers this way reproduces the forward pass
    for (cond, upd), (z, mask) in zip(pairs, batch):
        y = flow_forward(z, mask, params).y.data
        np.testing.assert_allclose(np.concatenate([cond.data, upd.data], axis=1), y, atol=1e-12)


def test_identity_flow_is_identity():
    cfg = flow_config()
    params = identity_flow(cfg)
    z = np.random.default_rng(1).standard_normal((5, cfg.d))
    res = flow_forward(z, random_mask(5, 0.5, 2), params)
    np.testing.assert_allclose(res.y.data, z, atol=1e-12)
    assert float(res.logdet.data) == pytest.approx(0.0, abs=1e-12)
    back = flow_inverse(z, random_mask(5, 0.5, 2), params)
    np.testing.assert_allclose(back, z, atol=1e-12)


def test_roundtrip_default_dims():
    cfg = flow_config(d=32, d_s_flow=10, heads=8, R=3)
    params = perturb(init_flow_params(cfg, np.random.default_rng(3)))
    mask = random_mask(10, 0.4, 4)
    z = np.random.default_rng(5).standard_normal((10, 32))
    y = flow_forward(z, mask, params).y.data
    back = flow_inverse(y, mask, params)
    assert np.abs(back - z).max() < 1e-8
    # and the other direction
    fwd_again = flow_forward(back, mask, params).y.data
    assert np.abs(fwd_again - y).max() < 1e-8


def numerical_jacobian_logdet(params, mask, z):
    n, d = z.shape
    jac = np.zeros((n * d, n * d))
    h = 1e-6
    for idx in range(n * d):
        zp = z.copy().reshape(-1)
        zm = z.copy().reshape(-1)
        zp[idx] += h
        zm[idx] -= h
        yp = flow_forward(zp.reshape(n, d), mask, params).y.data.reshape(-1)
        ym = flow_forward(zm.reshape(n, d), mask, params).y.data.reshape(-1)
        jac[:, idx] = (yp - ym) / (2 * h)
    sign, ld = np.linalg.slogdet(jac)
    assert sign != 0
    return ld


def test_logdet_matches_numerical_jacobian():
    cfg = flow_config()
    params = perturb(init_flow_params(cfg, np.random.default_rng(10)), seed=11)
    mask = random_mask(3, 0.7, 12)
    z = np.random.default_rng(13).standard_normal((3, cfg.d))
    analytic = float(flow_forward(z, mask, params).logdet.data)
    numeric = numerical_jacobian_logdet(params, mask, z)
    assert analytic == pytest.approx(numeric, rel=1e-3)


def test_doubling_one_actnorm_scale_shifts_logdet_by_n_log2():
    cfg = flow_config()
    params = perturb(init_flow_params(cfg, np.random.default_rng(14)), seed=15)
    mask = random_mask(6, 0.5, 16)
    z = np.random.default_rng(17).standard_normal((6, cfg.d))
    base = float(flow_forward(z, mask, params).logdet.data)
    params.layers[-1].log_s.data = params.layers[-1].log_s.data.copy()
    params.layers[-1].log_s.data[1] += np.log(2.0)
    shifted = float(flow_forward(z, mask, params).logdet.data)
    assert shifted - base == pytest.approx(6 * np.log(2.0), abs=1e-10)


def test_permutation_matrix_mixing_has_zero_logdet_effect():
    cfg = flow_config()
    params = identity_flow(cfg)
    perm_matrix = np.eye(cfg.d // 2)[[1, 0]]
    params.layers[0].w.data = perm_matrix
    z = np.random.default_rng(18).standard_normal((4, cfg.d))
    res = flow_forward(z, NeighborMask.complete(4), params)
    assert float(res.logdet.data) == pytest.approx(0.0, abs=1e-12)


def test_nll_at_zero_under_identity_flow():
    cfg = flow_config()
    params = identity_flow(cfg)
    nll = flow_nll(np.zeros((2, 4)), NeighborMask.complete(2), params)
    assert float(nll.data) == pytest.approx(8 * 0.5 * np.log(2 * np.pi), rel=1e-12)


def test_nll_gradient_matches_finite_differences():
    cfg = flow_config()
    params = perturb(init_flow_params(cfg, np.random.default_rng(19)), seed=20)
    mask = random_mask(3, 0.6, 21)
    z0 = np.random.default_rng(22).standard_normal((3, cfg.d))
    zt = Tensor(z0, requires_grad=True)
    param_list = dict(params.tensors())
    loss = flow_nll(zt, mask, params)
    got = grad(loss, [zt] + list(param_list.values()))
    assert_grads_match(got[zt], numerical_grad(lambda x: float(flow_nll(x, mask, params).data), z0.copy()))
    for name in ("step0/g1/wq1", "step0/n1/log_s", "step1/n2/w", "step1/g4/ln2_g", "step0/n1/b"):
        t = param_list[name]
        base = t.data.copy()

        def f(x, t=t, base=base):
            t.data = x
            val = float(flow_nll(z0, mask, params).data)
            t.data = base
            return val

        assert_grads_match(got[t], numerical_grad(f, base.copy()))


def test_equivariance_with_complete_mask():
    cfg = flow_config(d=8, d_s_flow=4)
    params = perturb(init_flow_params(cfg, np.random.default_rng(23)), seed=24)
    rng = np.random.default_rng(25)
    z = rng.standard_normal((7, cfg.d))
    perm = rng.permutation(7)
    mask = NeighborMask.complete(7)
    out = flow_forward(z, mask, params).y.data
    out_p = flow_forward(z[perm], mask, params).y.data
    assert np.abs(out_p - out[perm]).max() < 1e-9


def test_sample_codes_identity_flow_std():
    cfg = flow_config(d=4)
    params = identity_flow(cfg)
    rng = np.random.default_rng(26)
    draws = np.concatenate([sample_codes(50, params, sigma=0.7, rng=rng) for _ in range(500)])
    assert draws.shape == (25_000, 4)  # 1e5 entries total
    assert draws.std() == pytest.approx(0.7, rel=0.01)


def test_sample_codes_any_size():
    cfg, params = make_flow(flow_config(), seed=27)
    codes = sample_codes(300, params, sigma=0.7, rng=np.random.default_rng(28))
    assert codes.shape == (300, 4)
    assert np.isfinite(codes).all()


def test_sample_codes_requires_positive_sigma():
    cfg, params = make_flow(seed=29)
    with pytest.raises(ValueError):
        sample_codes(5, params, sigma=0.0, rng=np.random.default_rng(0))


def chain_graphs(n_graphs, n):
    gs = [Graph(n, [(i, i + 1) for i in range(n - 1)]) for _ in range(n_graphs)]
    return [to_lower(g, order_nodes(g, "bfs")) for g in gs]


def test_flow_training_smoke_and_lr():
    cfg = flow_config(flow_epochs=50, batch=1, flow_lr=1e-3)
    ordered = chain_graphs(1, 6)
    rng = np.random.default_rng(30)
    store = LatentStore([np.clip(rng.standard_normal((6, cfg.d)) * 0.5, -1, 1)])
    params, curve = train_flow(store, ordered, cfg)
    nlls = [nll for _, _, nll in curve]
    decreases = sum(1 for a, b in zip(nlls, nlls[1:]) if b < a)
    assert decreases >= 0.9 * (len(nlls) - 1)
    assert curve[0][1] == pytest.approx(1e-3)


def test_trained_flow_beats_standard_normal_on_bimodal_codes():
    cfg = flow_config(d=4, R=3, flow_epochs=150, batch=8, flow_lr=4e-3)
    rng = np.random.default_rng(31)
    n_graphs, n = 16, 5
    ordered = chain_graphs(n_graphs, n)
    # bimodal per-entry distribution centered at +/- 0.6
    signs = rng.choice([-0.6, 0.6], size=(n_graphs, n, cfg.d))
    store = LatentStore([signs[i] + 0.08 * rng.standard_normal((n, cfg.d)) for i in range(n_graphs)])
    params, _ = train_flow(store, ordered, cfg)

    held_rng = np.random.default_rng(32)
    held = held_rng.choice([-0.6, 0.6], size=(n, cfg.d)) + 0.08 * held_rng.standard_normal((n, cfg.d))
    mask = mask_from_ordered(ordered[0])
    flow_val = float(flow_nll(held, mask, params).data)

    # standard-normal fit: NLL of the held-out codes under N(0, I)
    normal_val = 0.5 * (held**2).sum() + 0.5 * held.size * np.log(2 * np.pi)
    assert flow_val < normal_val


def test_roundtrip_after_training():
    cfg = flow_config(d=8, d_s_flow=4, R=2, flow_epochs=25, batch=4, flow_lr=2e-3)
    ordered = chain_graphs(8, 5)
    rng = np.random.default_rng(33)
    store = LatentStore([np.clip(rng.standard_normal((5, cfg.d)) * 0.7, -1, 1) for _ in range(8)])
    params, _ = train_flow(store, ordered, cfg)
    mask = NeighborMask.complete(5)
    z = rng.standard_normal((5, cfg.d))
    y = flow_forward(z, mask, params).y.data
    back = flow_inverse(y, mask, params)
    assert np.abs(back - z).max() < 1e-6


def test_flow_training_is_deterministic():
    cfg = flow_config(flow_epochs=4, batch=3, flow_lr=1e-3)
    ordered = chain_graphs(6, 5)
    rng = np.random.default_rng(34)
    codes = [np.clip(rng.standard_normal((5, cfg.d)) * 0.5, -1, 1) for _ in range(6)]
    p1, c1 = train_flow(LatentStore([c.copy() for c in codes]), ordered, cfg)
    p2, c2 = train_flow(LatentStore([c.copy() for c in codes]), ordered, cfg)
    assert c1 == c2
    for (n1, t1), (n2, t2) in zip(p1.tensors(), p2.tensors()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_nan_in_a_flow_weight_names_the_primitive():
    cfg = flow_config(flow_epochs=1, batch=2)
    ordered = chain_graphs(2, 5)
    rng = np.random.default_rng(36)
    store = LatentStore([np.clip(rng.standard_normal((5, cfg.d)) * 0.5, -1, 1) for _ in range(2)])
    _, params = make_flow(cfg, seed=37)
    params.layers[0].g_s.wq2.data[0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
        RuntimeError,
        match=r"flow training diverged at epoch 0, graph \d+: primitive 'linear' \(layer 2 of 'mlp'\)",
    ):
        train_flow(store, ordered, cfg, params=params)


def test_singular_mixing_matrix_rejected():
    cfg, params = make_flow(seed=35)
    params.layers[0].w.data = np.zeros((cfg.d // 2, cfg.d // 2))
    with pytest.raises(np.linalg.LinAlgError):
        flow_inverse(np.zeros((3, cfg.d)), NeighborMask.complete(3), params)
