import numpy as np
import pytest

from disptrack.micronet import (
    DenseParams,
    OptState,
    adam_step,
    clr_schedule,
    dense_apply,
)
from gradcheck import gradient_check


def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"w": np.array([1.0, -2.0])}
    state = OptState.init(params)
    new, new_state = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(new["w"], params["w"])
    assert new_state.step == 1


def test_adam_single_step_matches_hand_calculation():
    g = np.array([0.3, -4.0])
    lr = 0.01
    params = {"w": np.array([1.0, 1.0])}
    state = OptState.init(params)
    new, _ = adam_step(params, {"w": g}, state, lr=lr)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = params["w"] - lr * g / (np.abs(g) + 1e-8)
    assert np.allclose(new["w"], expected, atol=1e-15)


def test_adam_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(0)
    p = {"w": rng.normal(size=(3, 2))}
    g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    state = OptState.init(p)
    p1, state = adam_step(p, {"w": g1}, state, lr=0.05)
    p2, state = adam_step(p1, {"w": g2}, state, lr=0.05)

    m = 0.1 * g1
    v = 0.001 * g1 * g1
    ref = p["w"] - 0.05 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2 * g2
    ref = ref - 0.05 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
    assert np.allclose(p2["w"], ref, atol=1e-15)
    assert state.step == 2


def test_adam_validates_shapes_and_keys():
    p = {"w": np.zeros(2)}
    state = OptState.init(p)
    with pytest.raises(ValueError):
        adam_step(p, {"x": np.zeros(2)}, state, lr=0.1)
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.zeros(3)}, state, lr=0.1)


def test_clr_bounds_and_midpoints():
    cycle = 80
    assert clr_schedule(0, cycle, 1e-4, 1e-3) == pytest.approx(1e-4)
    assert clr_schedule(cycle // 2, cycle, 1e-4, 1e-3) == pytest.approx(1e-3)
    assert clr_schedule(cycle // 4, cycle, 1e-4, 1e-3) == pytest.approx(0.00055)
    assert clr_schedule(3 * cycle // 4, cycle, 1e-4, 1e-3) == pytest.approx(0.00055)
    assert clr_schedule(cycle, cycle, 1e-4, 1e-3) == pytest.approx(1e-4)


def test_clr_is_periodic():
    for step in range(0, 33):
        assert clr_schedule(step, 16, 1e-4, 1e-3) == \
            pytest.approx(clr_schedule(step + 16, 16, 1e-4, 1e-3))


def test_clr_validates_cycle():
    with pytest.raises(ValueError):
        clr_schedule(0, 7, 1e-4, 1e-3)
    with pytest.raises(ValueError):
        clr_schedule(0, 0, 1e-4, 1e-3)
    with pytest.raises(ValueError):
        clr_schedule(-1, 8, 1e-4, 1e-3)


# ---------------------------------------------------------------------------
# gradient check harness
# ---------------------------------------------------------------------------

def test_gradcheck_exact_for_linear_quadratic():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3))

    def loss_fn(params):
        w = params["w"]
        r = a @ w
        return float((r ** 2).sum()), {"w": 2.0 * a.T @ r}

    err = gradient_check(loss_fn, {"w": rng.normal(size=(3, 2))}, probe_count=6)
    assert err < 1e-9


def test_gradcheck_detects_corrupted_gradient():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3))

    def bad_loss_fn(params):
        w = params["w"]
        r = a @ w
        return float((r ** 2).sum()), {"w": 4.0 * a.T @ r}  # doubled

    err = gradient_check(bad_loss_fn, {"w": rng.normal(size=(3, 2))}, probe_count=6)
    assert abs(err - 0.5) < 1e-6


def test_gradcheck_rejects_nonfinite_loss():
    def loss_fn(params):
        return float("nan"), {"w": np.zeros(2)}

    with pytest.raises(ValueError):
        gradient_check(loss_fn, {"w": np.zeros(2)}, probe_count=1)

