import numpy as np
import pytest

from gradgen.config import RunConfig
from gradgen.decoder import LatentStore, train_autodecoder
from gradgen.flow import train_flow
from gradgen.graphdata import gen_cycles, order_nodes, to_lower
from gradgen.tensorcore import optim
from gradgen.tensorcore import AdamState, Tensor, adam_step, sgd_project_step


def test_adam_zero_gradient_is_fixed_point():
    p = {"w": Tensor(np.array([1.0, -2.0, 3.0]))}
    before = p["w"].data.copy()
    st = AdamState()
    for _ in range(5):
        adam_step(p, {"w": np.zeros(3)}, st, lr=0.1)
    np.testing.assert_array_equal(p["w"].data, before)


def test_adam_first_step_magnitude():
    for g in (4.0, -0.03, 1e-6):
        p = {"w": Tensor(np.array([0.5]))}
        st = AdamState()
        adam_step(p, {"w": np.array([g])}, st, lr=0.01)
        expected = 0.01 * abs(g) / (abs(g) + optim.EPS)
        assert abs(p["w"].data[0] - 0.5) == pytest.approx(expected, rel=1e-12)


def test_adam_two_steps_match_hand_recursion():
    g = 2.0
    lr = 0.1
    b1, b2, eps = 0.9, 0.999, 1e-8
    # hand-computed moment recursion for two constant-gradient steps
    m1 = (1 - b1) * g
    v1 = (1 - b2) * g * g
    w1 = 1.0 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    m2 = b1 * m1 + (1 - b1) * g
    v2 = b2 * v1 + (1 - b2) * g * g
    w2 = w1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)

    p = {"w": Tensor(np.array([1.0]))}
    st = AdamState()
    adam_step(p, {"w": np.array([g])}, st, lr=lr)
    assert p["w"].data[0] == pytest.approx(w1, rel=1e-14)
    adam_step(p, {"w": np.array([g])}, st, lr=lr)
    assert p["w"].data[0] == pytest.approx(w2, rel=1e-14)
    assert st.step == 2


def test_adam_is_deterministic():
    def run():
        p = {"a": Tensor(np.full((2, 2), 0.3)), "b": Tensor(np.ones(4))}
        st = AdamState()
        r = np.random.default_rng(7)
        for _ in range(20):
            adam_step(p, {"a": r.standard_normal((2, 2)), "b": r.standard_normal(4)}, st, lr=3e-3)
        return p["a"].data.tobytes() + p["b"].data.tobytes()

    assert run() == run()


def test_adam_shape_mismatch_rejected():
    p = {"w": Tensor(np.zeros((2, 2)))}
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.zeros(3)}, AdamState(), lr=0.1)


def test_sgd_project_clamps_to_unit_ball():
    out = sgd_project_step(np.array([0.5]), np.array([12.0]), 0.1)
    assert out[0] == pytest.approx(1.0)
    out = sgd_project_step(np.array([-0.9]), np.array([-5.0]), 0.1)
    assert out[0] == pytest.approx(-1.0)
    codes = np.array([0.2, -0.4])
    np.testing.assert_array_equal(sgd_project_step(codes, np.zeros(2), 0.1), codes)
    r = np.random.default_rng(1)
    out = sgd_project_step(r.uniform(-1, 1, 50), r.standard_normal(50) * 30, 0.1)
    assert np.abs(out).max() <= 1.0


def test_sgd_project_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        sgd_project_step(np.zeros(3), np.zeros(4), 0.1)


# -- training arithmetic pinned to recorded constants ---------------------------
# Both trainers' curves and final state are compared with values recorded from
# a reference run. Determinism and resume tests compare a run with itself, so
# only these catch a reordered rng draw or floating-point sum.


PINNED_DECODER_CURVE = {"grad": [18.894529035667237, 17.828490477195853],
                        "grad_r": [18.91773321237873, 18.1723767176177]}
PINNED_CODE_SUM = {"grad": 15.793241862668824, "grad_r": 22.565678111794234}
PINNED_DECODER_PARAM_SUM = {"grad": 17.323847307898024, "grad_r": 17.478462587253244}
PINNED_FLOW_CURVE = [5.1953474190254445, 5.195875335800337]
PINNED_FLOW_PARAM_SUM = -2.6609136983175103


def pinned_config(**kw):
    base = dict(d=8, heads=2, d_s_decoder=4, d_s_flow=4, M=1, R=2, C=3, K=1, decoder_epochs=2, flow_epochs=2,
                batch=4, seed=3, tau=1e-3, delta=0.1, decoder_noise=0.05, flow_noise=0.05)
    base.update(kw)
    return RunConfig(**base).validate()


def pinned_graphs():
    return [to_lower(g, order_nodes(g, "bfs")) for g in gen_cycles()[:6]]


@pytest.mark.parametrize("mode", ["grad", "grad_r"])
def test_decoder_training_matches_recorded_values(mode):
    cfg = pinned_config(mode=mode)
    params, store, curve = train_autodecoder(pinned_graphs(), cfg, stop_epoch=2)
    assert [(e, lr) for e, lr, _ in curve] == [(0, 1e-3), (1, 1e-3 * (0.3 if mode == "grad" else 1.0))]
    np.testing.assert_allclose([nll for _, _, nll in curve], PINNED_DECODER_CURVE[mode], rtol=1e-12)
    np.testing.assert_allclose(sum(float(z.sum()) for z in store.codes), PINNED_CODE_SUM[mode], rtol=1e-12)
    np.testing.assert_allclose(sum(float(t.data.sum()) for _, t in params.tensors()),
                               PINNED_DECODER_PARAM_SUM[mode], rtol=1e-12)


def test_flow_training_matches_recorded_values():
    cfg = pinned_config()
    graphs = pinned_graphs()
    rng = np.random.default_rng(5)
    store = LatentStore([np.clip(rng.standard_normal((ol.n, cfg.d)) * 0.5, -1.0, 1.0) for ol in graphs])
    params, curve = train_flow(store, graphs, cfg)
    assert params.initialized
    np.testing.assert_allclose([nll for _, _, nll in curve], PINNED_FLOW_CURVE, rtol=1e-12)
    np.testing.assert_allclose(sum(float(t.data.sum()) for _, t in params.tensors()), PINNED_FLOW_PARAM_SUM,
                               rtol=1e-12)


def test_each_trainer_logs_its_learning_rate_formula():
    """Three epochs of each trainer: the decoder's rate falls by 0.3 at each
    third of its budget, the flow's by ``flow_gamma`` each epoch. The values
    are the logged ones, compared exactly."""
    cfg = pinned_config(decoder_epochs=3, flow_epochs=3)
    graphs = pinned_graphs()
    rows = []
    _, store, curve = train_autodecoder(graphs, cfg, log=lambda *row: rows.append(row))
    assert rows == curve
    assert [(e, lr) for e, lr, _ in rows] == [(0, 0.001), (1, 0.0003), (2, 8.999999999999999e-05)]
    rows = []
    _, curve = train_flow(store, graphs, cfg, log=lambda *row: rows.append(row))
    assert rows == curve
    assert [(e, lr) for e, lr, _ in rows] == [(0, 0.001), (1, 0.000997), (2, 0.0009940090000000001)]
