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
    m, v = state.m["w"], state.v["w"]
    assert adam_step(params, {"w": np.zeros(2)}, state, lr=0.1) is None
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1
    assert state.m["w"] is m and state.v["w"] is v


def test_adam_single_step_matches_hand_calculation():
    g = np.array([0.3, -4.0])
    lr = 0.01
    w = np.array([1.0, 1.0])
    params = {"w": w}
    state = OptState.init(params)
    m, v = state.m["w"], state.v["w"]
    adam_step(params, {"w": g}, state, lr=lr)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = np.array([1.0, 1.0]) - lr * g / (np.abs(g) + 1e-8)
    assert params["w"] is w
    assert np.allclose(w, expected, atol=1e-15)
    # The moments are updated in the state's own arrays.
    assert state.m["w"] is m and np.allclose(m, 0.1 * g, atol=1e-15)
    assert state.v["w"] is v and np.allclose(v, 0.001 * g * g, atol=1e-15)
    assert state.step == 1


def test_adam_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(3, 2))
    g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    p = {"w": p0.copy()}
    state = OptState.init(p)
    adam_step(p, {"w": g1}, state, lr=0.05)
    adam_step(p, {"w": g2}, state, lr=0.05)

    m = 0.1 * g1
    v = 0.001 * g1 * g1
    ref = p0 - 0.05 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2 * g2
    ref = ref - 0.05 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
    assert np.allclose(p["w"], ref, atol=1e-15)
    assert np.allclose(state.m["w"], m, atol=1e-15)
    assert np.allclose(state.v["w"], v, atol=1e-15)
    assert state.step == 2


def test_adam_validates_shapes_and_keys():
    p = {"w": np.zeros(2), "x": np.ones(2)}
    state = OptState.init(p)
    with pytest.raises(ValueError):
        adam_step(p, {"y": np.zeros(2), "x": np.ones(2)}, state, lr=0.1)
    # A bad shape in any array raises before any array is written.
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.ones(2), "x": np.ones(3)}, state, lr=0.1)
    assert np.array_equal(p["w"], np.zeros(2)) and np.array_equal(p["x"], np.ones(2))
    assert not state.m["w"].any() and not state.v["w"].any()
    assert state.step == 0


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
    # A step of True used to run as step 1.
    with pytest.raises(ValueError, match="^step must be an integer, got True$"):
        clr_schedule(True, 4, 0.1, 1.0)


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

