import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from gradgen.tensorcore import (
    NonFiniteError,
    Tensor,
    bernoulli_mixture_log_prob,
    checkpoint,
    concat,
    dense_attention,
    edge_attention,
    exp,
    finite_checks,
    gather_rows,
    grad,
    layer_norm,
    logabsdet,
    matmul,
    mlp,
    narrow,
    no_grad,
    tanh,
    tsum,
)

from conftest import assert_grads_match, numerical_grad
from oracles import (
    attention_scores,
    dense_attention_chain,
    linear,
    logsigmoid,
    logsumexp,
    masked_softmax,
    mixture_log_prob_chain,
    relu,
    reshape,
    transpose,
)
from oracles import layer_norm as layer_norm_chain

rng = np.random.default_rng(0)


def check_op(build, *shapes, seed=0):
    """Compare engine gradients of a scalar composite against finite differences."""
    r = np.random.default_rng(seed)
    arrays = [r.standard_normal(s) for s in shapes]
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*leaves)
    got = grad(loss, leaves)
    for i, leaf in enumerate(leaves):
        def f(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return float(build(*args).data)

        assert_grads_match(got[leaf], numerical_grad(f, arrays[i].copy()))


def test_square_gradient_is_analytic():
    x = Tensor(3.0, requires_grad=True)
    g = grad(x * x, [x])
    assert g[x] == pytest.approx(6.0)


def test_add_mul_broadcast():
    check_op(lambda a, b: tsum((a + b) * a), (3, 4), (4,))
    check_op(lambda a, b: tsum(a * b), (2, 1, 4), (3, 4))
    check_op(lambda a, b: tsum((a - b) * -a), (3, 4), (4,))


def test_matmul_shapes():
    check_op(lambda a, b: tsum(matmul(a, b)), (3, 4), (4, 2))
    # broadcast over a leading head axis
    check_op(lambda a, b: tsum(matmul(a, b)), (5, 3, 4), (5, 4, 2))
    check_op(lambda a, b: tsum(matmul(a, b)), (3, 4), (5, 4, 2))


def test_layer_norm_sum_matches_finite_differences():
    gain = Tensor(np.ones(4))
    bias = Tensor(np.zeros(4))
    w = Tensor(np.random.default_rng(3).standard_normal((3, 4)))
    check_op(lambda x, r: tsum(layer_norm(x, r, gain, bias)), (4,), (4,), seed=4)
    check_op(lambda x, r: tsum(tanh(layer_norm(x, r, gain, bias)) * w), (3, 4), (3, 4), seed=5)


def test_layer_norm_affine_gradients():
    check_op(
        lambda x, r, g, b: tsum(layer_norm(x, r, g, b) * layer_norm(x, r, g, b)),
        (3, 4),
        (3, 4),
        (4,),
        (4,),
        seed=6,
    )


def _layer_norm_with_ndarray_mean(x, gain, bias, g, eps=1e-5):
    """Value and gradients of layer_norm with its means taken by ndarray.mean."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    y = xc * inv
    gh = g * gain
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True) - y * (gh * y).mean(axis=-1, keepdims=True))
    return y * gain + bias, gx


@pytest.mark.parametrize("d", [5, 32, 160])
def test_layer_norm_is_bitwise_equal_to_ndarray_mean(d):
    r = np.random.default_rng(50)
    x0, r0 = (r.standard_normal((3, 7, d)) * 3.0 + 1.5 for _ in "xr")
    gain, bias, g = r.standard_normal(d), r.standard_normal(d), r.standard_normal((3, 7, d))
    x, res = Tensor(x0, requires_grad=True), Tensor(r0, requires_grad=True)
    out = layer_norm(x, res, Tensor(gain), Tensor(bias))
    got = grad(tsum(out * Tensor(g)), [x, res])
    ref, ref_gx = _layer_norm_with_ndarray_mean(x0 + r0, gain, bias, g)
    assert out.data.tobytes() == ref.tobytes()
    assert got[x].tobytes() == got[res].tobytes() == ref_gx.tobytes()


def test_layer_norm_moments():
    x = Tensor(rng.standard_normal((7, 16)) * 3.0 + 1.5)
    r = Tensor(rng.standard_normal((7, 16)))
    out = layer_norm(x, r, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    v = (x.data + r.data).var(axis=-1)
    assert np.abs(out.mean(axis=-1)).max() < 1e-10
    assert np.abs(out.var(axis=-1) - v / (v + 1e-5)).max() < 1e-8


@pytest.mark.parametrize("frozen", [(), ("x",), ("r",), ("x", "r"), ("gain", "bias")])
def test_layer_norm_is_bitwise_equal_to_the_oracle_chain(frozen):
    r = np.random.default_rng(61)
    names = ("x", "r", "gain", "bias")
    arrays = [r.standard_normal(s) * 2.0 for s in ((9, 12), (9, 12), (12,), (12,))]
    c = Tensor(r.standard_normal((9, 12)))
    results = []
    for fused in (True, False):
        x, res, gain, bias = (Tensor(a, requires_grad=name not in frozen) for a, name in zip(arrays, names))
        out = layer_norm(x, res, gain, bias) if fused else layer_norm_chain(x + res, gain, bias)
        leaves = [t for t, name in zip((x, res, gain, bias), names) if name not in frozen]
        got = grad(tsum(out * c), leaves)
        results.append([out.data.tobytes()] + [got[t].tobytes() for t in leaves])
    assert results[0] == results[1]


def test_layer_norm_keeps_y_and_inv_but_not_the_sum():
    r = np.random.default_rng(62)
    x, res = (Tensor(r.standard_normal((5, 8)), requires_grad=True) for _ in "xr")
    out = layer_norm(x, res, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert out._parents[:2] == (x, res)
    kept = [c.cell_contents for c in out._bwd.__closure__]
    assert sorted(a.shape for a in kept if isinstance(a, np.ndarray)) == [(5, 1), (5, 8)]


def test_pointwise_gradients():
    check_op(lambda x: tsum(relu(x) * relu(x)), (11,), seed=8)
    check_op(lambda x: tsum(exp(x * Tensor(0.3))), (5,), seed=11)


def test_reductions_and_shape_ops():
    check_op(lambda x: tsum(tsum(x, axis=0)), (3, 4), seed=15)
    check_op(lambda x: tsum(matmul(transpose(x, (1, 0)), x)), (3, 4), seed=17)
    check_op(lambda x: tsum(matmul(reshape(x, (2, 6)), reshape(x, (6, 2)))), (3, 4), seed=18)
    check_op(lambda a, b: tsum(concat([a, b], axis=1) * concat([b, a], axis=1)), (2, 3), (2, 3), seed=19)
    check_op(lambda x: tsum(narrow(x, 1, 1, 2) * narrow(x, 1, 0, 2)), (3, 4), seed=20)


def test_gather_rows_accumulates_duplicates():
    idx = np.array([0, 2, 0])
    check_op(lambda x: tsum(gather_rows(x, idx) * gather_rows(x, idx)), (3, 2), seed=21)


def test_logabsdet_gradient():
    a = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    t = Tensor(a, requires_grad=True)
    g = grad(logabsdet(t), [t])[t]
    assert_grads_match(g, numerical_grad(lambda x: np.linalg.slogdet(x)[1], a.copy()))


def test_unused_leaf_gets_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    g = grad(tsum(x * x), [x, y])
    np.testing.assert_array_equal(g[y], np.zeros(3))


def test_no_grad_skips_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tsum(x * x)
    assert y._bwd is None and not y.requires_grad


def test_reused_tensor_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = x * x * x  # d/dx x^3 = 12 at x=2
    assert grad(y, [x])[x] == pytest.approx(12.0)


def test_non_finite_objective_raises():
    x = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"):
        y = tsum(x * x)  # overflows to inf
    with pytest.raises(NonFiniteError):
        grad(y, [x])


def test_finite_checks_name_offending_primitive():
    x = Tensor(np.array([2000.0]), requires_grad=True)
    with finite_checks(), np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="exp"):
            exp(x)


def test_grad_requires_scalar_objective():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        grad(x * x, [x])


def test_deep_chain_does_not_recurse():
    x = Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + Tensor(0.0)
    assert grad(y, [x])[x] == pytest.approx(1.0)


# -- block mixture ---------------------------------------------------------


def _bits(kind, p, seed=0):
    if kind == "all 0":
        return np.zeros(p, dtype=bool)
    if kind == "all 1":
        return np.ones(p, dtype=bool)
    return np.random.default_rng(seed).random(p) < 0.5


@pytest.mark.parametrize("kind", ["all 0", "all 1", "mixed"])
@pytest.mark.parametrize("p, c", [(5, 3), (0, 3), (4, 1), (0, 1)])
def test_bernoulli_mixture_matches_finite_differences(kind, p, c):
    bits = _bits(kind, p, seed=63)
    check_op(lambda pi, lam: bernoulli_mixture_log_prob(pi, lam, bits) * Tensor(-1.7), (c,), (p, c), seed=64)


def test_bernoulli_mixture_value():
    r = np.random.default_rng(65)
    pi, lam = r.standard_normal(3), r.standard_normal((6, 3)) * 3
    bits = _bits("mixed", 6, seed=66)
    lik = np.where(bits[:, None], 1.0 / (1.0 + np.exp(-lam)), 1.0 / (1.0 + np.exp(lam))).prod(axis=0)
    ref = np.log((np.exp(pi) / np.exp(pi).sum() * lik).sum())
    got = float(bernoulli_mixture_log_prob(Tensor(pi), Tensor(lam), bits).data)
    assert got == pytest.approx(ref, rel=1e-12)
    assert float(bernoulli_mixture_log_prob(Tensor(pi), Tensor(np.zeros((0, 3))), bits[:0]).data) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("upstream", [1.0, -1.0, 0.37, -2.9])
@pytest.mark.parametrize("frozen", [(), ("pi",), ("lam",)], ids=["all leaves", "pi frozen", "lam frozen"])
@pytest.mark.parametrize("kind, p, c", [("mixed", 30, 4), ("all 0", 7, 2), ("all 1", 7, 1), ("mixed", 0, 3)])
def test_bernoulli_mixture_is_bitwise_equal_to_the_oracle_chain(kind, p, c, frozen, upstream):
    r = np.random.default_rng(67)
    pi0 = r.standard_normal(c) * 3
    lam0 = r.standard_normal((p, c)) * 4
    lam0[::5] *= 15  # |lam| past 37: 1 - sigmoid rounds to zero, and so do some gradients
    bits = _bits(kind, p, seed=68)
    results = []
    for mixture in (bernoulli_mixture_log_prob, mixture_log_prob_chain):
        pi, lam = Tensor(pi0, requires_grad="pi" not in frozen), Tensor(lam0, requires_grad="lam" not in frozen)
        out = mixture(pi, lam, bits)
        leaves = [t for t, name in ((pi, "pi"), (lam, "lam")) if name not in frozen]
        got = grad(tsum(out * Tensor(upstream)), leaves)
        results.append([out.data.tobytes()] + [got[t].tobytes() for t in leaves])
    assert results[0] == results[1]


def test_bernoulli_mixture_keeps_the_pair_terms_and_two_component_vectors():
    r = np.random.default_rng(69)
    pi, lam = Tensor(r.standard_normal(4), requires_grad=True), Tensor(r.standard_normal((9, 4)), requires_grad=True)
    out = bernoulli_mixture_log_prob(pi, lam, _bits("mixed", 9))
    kept = [c.cell_contents for c in out._bwd.__closure__]
    shapes = sorted(a.shape for a in kept if isinstance(a, np.ndarray))
    assert shapes == [(4,), (4,), (9,), (9, 4)]


# -- attention -----------------------------------------------------------


def test_edge_attention_gradient():
    # 5 nodes; node 2 has no edges, node 4 a single one
    rows = np.array([0, 0, 1, 1, 3, 3, 3, 4])
    cols = np.array([1, 3, 0, 3, 0, 1, 4, 3])
    w = Tensor(np.random.default_rng(40).standard_normal((5, 6)))
    check_op(lambda q, k, v: tsum(edge_attention(q, k, v, rows, cols, 0.7) * w), (2, 5, 3), (2, 5, 3), (2, 5, 3), seed=41)
    q, k, v = (Tensor(np.random.default_rng(s).standard_normal((2, 5, 3))) for s in (42, 43, 44))
    out = edge_attention(q, k, v, rows, cols, 0.7).data.reshape(5, 2, 3)  # (m, H, d)
    assert np.all(out[2] == 0.0)
    np.testing.assert_allclose(out[4], v.data[:, 3], atol=1e-15)  # one neighbour: weight 1


def _attention_mask(kind, n=5, seed=0):
    if kind == "complete":
        return ~np.eye(n, dtype=bool)  # only the diagonal masked out: its own branch
    if kind == "all pairs":
        return np.ones((n, n), dtype=bool)
    mask = np.random.default_rng(seed).random((n, n)) < 0.6
    if kind == "empty rows":
        mask[[1, 3]] = False
    return mask


@pytest.mark.parametrize("kind", ["dense", "complete", "empty rows"])
def test_dense_attention_gradient(kind):
    mask = _attention_mask(kind, seed=55)
    w = Tensor(np.random.default_rng(56).standard_normal((5, 6)))
    check_op(lambda q, k, v: tsum(dense_attention(q, k, v, mask, 0.7) * w), (2, 5, 3), (2, 5, 3), (2, 5, 3), seed=57)


@pytest.mark.parametrize(
    "kind, n",
    [("complete", 1), ("complete", 6), ("complete", 40), ("all pairs", 6), ("dense", 6), ("empty rows", 6)],
)
@pytest.mark.parametrize("frozen", [(), ("q", "k"), ("v",)], ids=["all leaves", "q k frozen", "v frozen"])
def test_dense_attention_is_bitwise_equal_to_the_oracle_chain(kind, n, frozen):
    r = np.random.default_rng(58)
    mask = _attention_mask(kind, n, seed=59)
    arrays = [r.standard_normal((3, n, 4)) * 4 for _ in "qkv"]
    g = Tensor(r.standard_normal((n, 12)))
    results = []
    for attend in (dense_attention, dense_attention_chain):
        q, k, v = (Tensor(a, requires_grad=name not in frozen) for a, name in zip(arrays, "qkv"))
        out = attend(q, k, v, mask, 0.5)
        leaves = [t for t, name in zip((q, k, v), "qkv") if name not in frozen]
        got = grad(tsum(out * g), leaves)
        results.append([out.data.tobytes()] + [got[t].tobytes() for t in leaves])
    assert results[0] == results[1]


def test_dense_attention_keeps_the_weights_but_not_the_scores():
    r = np.random.default_rng(60)
    q, k, v = (Tensor(r.standard_normal((2, 30, 4)), requires_grad=True) for _ in "qkv")
    out = dense_attention(q, k, v, _attention_mask("complete", 30), 0.5)
    kept = [c.cell_contents for c in out._bwd.__closure__]
    square = [a for a in kept if isinstance(a, np.ndarray) and a.shape == (2, 30, 30)]
    assert len(square) == 1
    np.testing.assert_allclose(square[0].sum(axis=-1), 1.0, atol=1e-12)


# -- the reference chain ------------------------------------------------
# The fused kernels are held, bit for bit, to the unfused chain in
# tests/oracles.py, so the nodes of that chain keep their own checks.


def test_logsigmoid_gradient():
    check_op(lambda x: tsum(logsigmoid(x)), (7,), seed=10)


def test_logsigmoid_is_stable_far_from_zero():
    x = Tensor(np.array([-800.0, 800.0]))
    out = logsigmoid(x).data
    assert out[0] == pytest.approx(-800.0)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_logsumexp_matches_numpy_and_fd():
    x = rng.standard_normal((3, 5)) * 10
    got = logsumexp(Tensor(x), axis=-1).data
    ref = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    check_op(lambda t: tsum(logsumexp(t, axis=-1)), (3, 5), seed=13)
    check_op(lambda t: logsumexp(t), (4,), seed=14)


def test_one_input_layer_norm_gradient():
    check_op(lambda x, g, b: tsum(layer_norm_chain(x, g, b) * layer_norm_chain(x, g, b)), (3, 4), (4,), (4,), seed=7)


def test_linear_fused():
    check_op(lambda x, w, b: tsum(linear(x, w, b) * linear(x, w, b)), (3, 4), (4, 2), (2,))
    # stacked-head form with broadcast bias
    check_op(lambda x, w, b: tsum(relu(linear(x, w, b))), (5, 4), (3, 4, 2), (3, 1, 2))
    check_op(lambda x, w: tsum(linear(x, w)), (3, 4), (4, 2))


def test_attention_scores_fused():
    w = rng.standard_normal((2, 3, 3))
    check_op(lambda q, k: tsum(attention_scores(q, k, 0.5) * Tensor(w)), (2, 3, 4), (2, 3, 4), seed=2)


def test_softmax_then_dot_matches_finite_differences():
    w = rng.standard_normal(5)

    def build(x):
        full = np.ones((5,), dtype=bool)
        return tsum(masked_softmax(x, full) * Tensor(w))

    check_op(build, (5,), seed=3)


def test_masked_softmax_rows():
    logits = Tensor(rng.standard_normal((6, 6)))
    mask = rng.random((6, 6)) < 0.5
    np.fill_diagonal(mask, False)
    mask[3] = False  # empty neighborhood row
    out = masked_softmax(logits, mask).data
    assert np.all(out >= 0.0)
    assert np.all(out[~mask] == 0.0)
    sums = out.sum(axis=-1)
    nonempty = mask.any(axis=-1)
    assert np.abs(sums[nonempty] - 1.0).max() < 1e-12
    assert np.all(sums[~nonempty] == 0.0)


def test_masked_softmax_gradient():
    mask = rng.random((4, 4)) < 0.6
    mask[2] = False
    w = rng.standard_normal((4, 4))
    check_op(lambda x: tsum(masked_softmax(x, mask) * Tensor(w)), (4, 4), seed=7)


def _softmax_with_exp_of_minus_inf(x, mask):
    neg = np.where(mask, x, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(neg - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / np.where(s > 0.0, s, 1.0)


def test_masked_softmax_values_unchanged_without_exp_of_minus_inf():
    r = np.random.default_rng(45)
    x = r.standard_normal((3, 6, 6)) * 4
    mask = r.random((6, 6)) < 0.4
    mask[2] = False  # an empty row
    ref = _softmax_with_exp_of_minus_inf(x, mask)
    assert masked_softmax(Tensor(x), mask).data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 6, 40])
def test_masked_softmax_complete_mask_values_unchanged(n):
    x = np.random.default_rng(46).standard_normal((3, n, n)) * 4
    mask = ~np.eye(n, dtype=bool)  # only the diagonal masked out: its own branch
    ref = _softmax_with_exp_of_minus_inf(x, mask)
    assert masked_softmax(Tensor(x), mask).data.tobytes() == ref.tobytes()


# -- checkpoint ----------------------------------------------------------


def _block(h, w, b):
    """A small residual block that reads its input in three places."""
    return layer_norm(h, tanh(matmul(h, w)), b, b) * h


def test_checkpoint_matches_finite_differences():
    wout = Tensor(np.random.default_rng(46).standard_normal((4, 3)))

    def build(x, w, b):
        return tsum(checkpoint(lambda h: _block(h, w, b), [x], [w, b]) * wout)

    check_op(build, (4, 3), (3, 3), (3,), seed=47)


@pytest.mark.parametrize("frozen", [False, True], ids=["all leaves", "parameters frozen"])
def test_checkpoint_is_bitwise_equal_to_calling_fn(frozen):
    r = np.random.default_rng(48)
    arrays = [r.standard_normal(s) for s in ((5, 3), (3, 3), (3,))]
    wout = Tensor(r.standard_normal((5, 3)))
    results = []
    for wrap in (False, True):
        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        w.requires_grad = b.requires_grad = not frozen
        fn = lambda h: _block(h, w, b)  # noqa: E731
        y = checkpoint(fn, [x], [w, b]) if wrap else fn(x)
        assert (y._opname == "checkpoint") == wrap
        leaves = [x] if frozen else [x, w, b]
        got = grad(tsum(y * wout), leaves)
        results.append([y.data.tobytes()] + [got[t].tobytes() for t in leaves])
    assert results[0] == results[1]


def test_checkpoint_backward_inside_no_grad():
    r = np.random.default_rng(49)
    x = Tensor(r.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    loss = tsum(checkpoint(lambda h: _block(h, w, b), [x], [w, b]))
    ref = grad(tsum(_block(x, w, b)), [x, w, b])
    with no_grad():
        got = grad(loss, [x, w, b])
    for t in (x, w, b):
        assert got[t].tobytes() == ref[t].tobytes()


def test_checkpoint_without_a_tape_is_a_plain_call():
    x = Tensor(np.ones((2, 3)))
    w = Tensor(np.eye(3))
    y = checkpoint(lambda h: matmul(h, w), [x], [w])
    assert y._opname == "leaf" and not y.requires_grad
    with no_grad():
        y = checkpoint(lambda h: matmul(h, w), [Tensor(np.ones((2, 3)), requires_grad=True)], [w])
    assert y._bwd is None


# -- mlp -----------------------------------------------------------------


@pytest.mark.parametrize("head_bias", [True, False], ids=["bias (H, 1, h)", "bias (h,)"])
@pytest.mark.parametrize("depth", [2, 3])
def test_mlp_matches_finite_differences(depth, head_bias):
    # x is (m, d) and every weight is stacked over H = 3 heads
    widths = [4, 3, 2, 3][: depth + 1]
    shapes = [(5, widths[0])]
    for d_in, d_out in zip(widths, widths[1:]):
        shapes += [(3, d_in, d_out), (3, 1, d_out) if head_bias else (d_out,)]
    wout = Tensor(np.random.default_rng(51).standard_normal((3, 5, widths[-1])))

    def build(x, *flat):
        return tsum(mlp(x, list(zip(flat[::2], flat[1::2]))) * wout)

    check_op(build, *shapes, seed=52)


@pytest.mark.parametrize(
    "frozen, x_grad, expected",
    [((0, 1, 2, 3), True, (0,)), ((0, 1), False, (3, 4)), ((2, 3), False, (1, 2))],
    ids=["parameters frozen", "first layer frozen", "last layer frozen"],
)
def test_mlp_frozen_parameters_get_no_gradient(frozen, x_grad, expected):
    r = np.random.default_rng(53)
    x = Tensor(r.standard_normal((4, 3)), requires_grad=x_grad)
    flat = [Tensor(r.standard_normal(s), requires_grad=True) for s in ((3, 5), (5,), (5, 2), (2,))]
    for i in frozen:
        flat[i].requires_grad = False
    y = mlp(x, [(flat[0], flat[1]), (flat[2], flat[3])])
    parts = y._bwd(np.ones(y.shape))
    assert [i for i, p in enumerate(parts) if p is not None] == list(expected)


def test_mlp_names_the_layer_that_is_not_finite():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    w = Tensor(np.ones((3, 3)))
    bad = Tensor(np.full((3, 3), np.nan))
    with finite_checks(), pytest.raises(NonFiniteError, match=r"primitive 'linear' \(layer 2 of 'mlp'\)"):
        mlp(x, [(w, Tensor(np.zeros(3))), (bad, Tensor(np.zeros(3))), (w, Tensor(np.zeros(3)))])


# -- coverage of the gradient checks ---------------------------------------

_OPERATORS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul", ast.USub: "neg"}


def _names_in_gradient_checks() -> set[str]:
    """Engine names that a test function of this directory calls while it
    runs a central-difference check: names called directly or through the
    engine module, and the Tensor operators in the expressions that
    ``check_op`` differentiates, whose operands are all tensors."""
    names = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
            if not {c.func.id for c in calls} & {"check_op", "numerical_grad"}:
                continue
            for n in ast.walk(fn):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "eng":
                    names.add(n.attr)
            for c in calls:
                if c.func.id == "check_op" and c.args:
                    names.update(_OPERATORS[type(n.op)] for n in ast.walk(c.args[0]) if _tensor_operator(n))
    return names


def _tensor_operator(n: ast.AST) -> bool:
    """An arithmetic operator with an operand that is not a literal (so not
    the ``-1`` of ``axis=-1``)."""
    if isinstance(n, ast.BinOp):
        operands = (n.left, n.right)
    elif isinstance(n, ast.UnaryOp):
        operands = (n.operand,)
    else:
        return False
    return type(n.op) in _OPERATORS and not all(isinstance(o, ast.Constant) for o in operands)


def test_every_recording_primitive_has_a_gradient_check():
    from gradgen.tensorcore import engine as eng

    recording = [
        name
        for name in eng.__all__
        if inspect.isfunction(getattr(eng, name)) and "_make(" in inspect.getsource(getattr(eng, name))
    ]
    assert {"add", "neg", "mlp", "dense_attention", "edge_attention", "checkpoint"} <= set(recording)
    missing = sorted(set(recording) - _names_in_gradient_checks())
    assert not missing, f"engine primitives without a central-difference check: {missing}"
