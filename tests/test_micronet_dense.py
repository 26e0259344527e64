import numpy as np
import pytest

from disptrack.micronet import DenseParams, dense_apply, gradient_check


def test_identity_layer_passes_input_through():
    params = DenseParams([np.eye(4)], [np.zeros(4)])
    x = np.random.default_rng(0).normal(size=(6, 4))
    y, _ = dense_apply(params, x)
    assert np.array_equal(y, x)


def test_hidden_relu_zeroes_negative_preactivations():
    # one hidden layer forced negative, final layer passes it through
    params = DenseParams([np.eye(3), np.eye(3)], [np.full(3, -100.0), np.zeros(3)])
    x = np.random.default_rng(1).uniform(0, 1, size=(5, 3))
    y, _ = dense_apply(params, x)
    assert np.array_equal(y, np.zeros((5, 3)))


def test_final_layer_is_linear_not_relu():
    params = DenseParams([np.eye(2)], [np.array([-10.0, -10.0])])
    y, _ = dense_apply(params, np.zeros((1, 2)))
    assert y.tolist() == [[-10.0, -10.0]]


def test_two_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    params = DenseParams.create([5, 7, 3], rng)
    x = rng.normal(size=(11, 5))
    target = rng.normal(size=(11, 3))

    def pack(p):
        return {f"w{i}": w for i, w in enumerate(p.weights)} | \
               {f"b{i}": b for i, b in enumerate(p.biases)}

    def loss_fn(d):
        p = DenseParams([d["w0"], d["w1"]], [d["b0"], d["b1"]])
        y, tape = dense_apply(p, x, capture=True)
        err = y - target
        g, _ = tape.backward(2.0 * err)
        return float((err ** 2).sum()), pack(g)

    assert gradient_check(loss_fn, pack(params), probe_count=60, epsilon=1e-5) < 1e-4


def test_backward_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = DenseParams.create([4, 6, 2], rng)
    x0 = rng.normal(size=(3, 4))

    def loss_of_x(x):
        y, _ = dense_apply(params, x)
        return float((y ** 2).sum())

    y, tape = dense_apply(params, x0, capture=True)
    _, grad_x = tape.backward(2.0 * y)
    eps = 1e-6
    for idx in [(0, 0), (1, 3), (2, 2)]:
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += eps
        xm[idx] -= eps
        numeric = (loss_of_x(xp) - loss_of_x(xm)) / (2 * eps)
        assert abs(grad_x[idx] - numeric) < 1e-5 * max(1.0, abs(numeric))


def test_row_subset_tape_matches_full_backward_with_zero_gradient_elsewhere():
    rng = np.random.default_rng(5)
    params = DenseParams.create([4, 7, 6, 3], rng)
    _, tape = dense_apply(params, rng.normal(size=(20, 4)), capture=True)
    rows = np.array([1, 4, 5, 11, 19])
    grad = rng.normal(size=(rows.size, 3))
    full_grad = np.zeros((20, 3))
    full_grad[rows] = grad
    want_params, want_input = tape.backward(full_grad)
    got_params, got_input = tape.rows(rows).backward(grad)
    np.testing.assert_allclose(got_input, want_input[rows], rtol=1e-12, atol=0)
    assert not np.delete(want_input, rows, axis=0).any()
    for got, want in zip(got_params.weights + got_params.biases,
                         want_params.weights + want_params.biases):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_dimension_mismatch_raises():
    params = DenseParams([np.eye(3)], [np.zeros(3)])
    with pytest.raises(ValueError):
        dense_apply(params, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        DenseParams([np.eye(3), np.eye(4)], [np.zeros(3), np.zeros(4)])


def test_create_initializes_within_glorot_bound():
    rng = np.random.default_rng(4)
    params = DenseParams.create([10, 20], rng)
    bound = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(params.weights[0]) <= bound)
    assert np.all(params.biases[0] == 0.0)
    assert params.widths == [10, 20]
