import numpy as np
import pytest

from gradgen.tensorcore import optim
from gradgen.tensorcore import AdamState, Tensor, adam_step, lr_schedule, sgd_project_step


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


def test_step_decay_schedule():
    assert lr_schedule("step-decay", 0, base=5e-5, total=500) == pytest.approx(5e-5)
    assert lr_schedule("step-decay", 200, base=5e-5, total=500) == pytest.approx(1.5e-5)
    assert lr_schedule("step-decay", 400, base=5e-5, total=500) == pytest.approx(5e-5 * 0.09)
    # capped at two decays even past the end
    assert lr_schedule("step-decay", 499, base=5e-5, total=500) == pytest.approx(5e-5 * 0.09)
    assert lr_schedule("step-decay", 1000, base=5e-5, total=500) == pytest.approx(5e-5 * 0.09)


def test_exponential_schedule():
    assert lr_schedule("exponential", 0, base=1e-3) == pytest.approx(1e-3)
    assert lr_schedule("exponential", 10, base=1e-3, gamma=0.997) == pytest.approx(1e-3 * 0.997**10)


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        lr_schedule("step-decay", -1, base=1e-3, total=10)
    with pytest.raises(ValueError):
        lr_schedule("cosine", 0, base=1e-3)
