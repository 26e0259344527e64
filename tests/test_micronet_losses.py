import numpy as np
import pytest

from disptrack.micronet import tracking_loss


# ---------------------------------------------------------------------------
# tracking loss
# ---------------------------------------------------------------------------

def balanced_loss(pred, target, mask):
    """tracking_loss (alpha=1, beta=0.5) with no point excluded."""
    return tracking_loss(pred, target, mask, np.zeros(len(mask), dtype=bool))


def test_tracking_loss_zero_when_exact():
    rng = np.random.default_rng(5)
    d = rng.normal(size=(10, 3))
    mask = rng.uniform(size=10) > 0.5
    loss, grad = balanced_loss(d, d, mask)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(d))


def test_tracking_loss_all_positive_reduces_to_alpha_sum():
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(7, 3))
    target = rng.normal(size=(7, 3))
    loss, _ = balanced_loss(pred, target, np.ones(7, dtype=bool))
    assert loss == pytest.approx(float(((pred - target) ** 2).sum()), rel=1e-12)


def test_tracking_loss_hand_value():
    # 2 points: pos error (1,0,0), neg error (0,1,0), alpha=1, beta=0.5 -> 3.0
    pred = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    target = np.zeros((2, 3))
    mask = np.array([True, False])
    loss, _ = balanced_loss(pred, target, mask)
    assert abs(loss - 3.0) < 1e-12


def test_tracking_loss_nonnegative_and_zero_iff_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        pred = rng.normal(size=(n, 3))
        target = rng.normal(size=(n, 3))
        mask = rng.uniform(size=n) > 0.4
        loss, _ = balanced_loss(pred, target, mask)
        assert loss >= 0.0
        if loss == 0.0:
            assert np.allclose(pred, target)


def test_tracking_loss_excluded_points_contribute_nothing():
    pred = np.array([[5.0, 0, 0], [1.0, 0, 0]])
    target = np.zeros((2, 3))
    mask = np.array([True, True])
    excluded = np.array([True, False])
    loss, grad = tracking_loss(pred, target, mask, excluded)
    # only the second point counts: 1 * (2/1) * 1
    assert loss == pytest.approx(2.0, rel=1e-12)
    assert np.array_equal(grad[0], np.zeros(3))


def test_tracking_loss_empty_side_drops_term():
    pred = np.array([[1.0, 0, 0]])
    target = np.zeros((1, 3))
    loss, _ = balanced_loss(pred, target, np.array([False]))
    assert loss == pytest.approx(0.5 * 1.0)  # beta * (1/1) * 1


def test_tracking_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    pred0 = rng.normal(size=(6, 3))
    target = rng.normal(size=(6, 3))
    mask = np.array([True, True, False, False, True, False])
    _, grad = balanced_loss(pred0, target, mask)
    eps = 1e-7
    for idx in [(0, 0), (2, 1), (5, 2)]:
        pp, pm = pred0.copy(), pred0.copy()
        pp[idx] += eps
        pm[idx] -= eps
        numeric = (balanced_loss(pp, target, mask)[0]
                   - balanced_loss(pm, target, mask)[0]) / (2 * eps)
        assert abs(grad[idx] - numeric) < 1e-6 * max(1.0, abs(numeric))


def test_tracking_loss_validates_lengths():
    with pytest.raises(ValueError):
        balanced_loss(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=bool))
    with pytest.raises(ValueError):
        balanced_loss(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="excluded lengths must match"):
        tracking_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2, dtype=bool),
                      np.zeros(3, dtype=bool))
