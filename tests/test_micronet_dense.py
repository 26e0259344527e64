import tracemalloc

import numpy as np
import pytest

from disptrack.micronet import DenseParams, DenseTape, dense_apply
from gradcheck import gradient_check


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


def test_dimension_mismatch_raises():
    params = DenseParams([np.eye(3)], [np.zeros(3)])
    with pytest.raises(ValueError):
        dense_apply(params, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        DenseParams([np.eye(3), np.eye(4)], [np.zeros(3), np.zeros(4)])
    # A (2, 3) bias used to be raveled into 6 entries.
    with pytest.raises(ValueError, match=r"^biases\[0\] must be a 1-D array, got shape \(2, 3\)$"):
        DenseParams([np.zeros((3, 6))], [np.zeros((2, 3))])


def test_create_initializes_within_glorot_bound():
    rng = np.random.default_rng(4)
    params = DenseParams.create([10, 20], rng)
    bound = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(params.weights[0]) <= bound)
    assert np.all(params.biases[0] == 0.0)


# ---------------------------------------------------------------------------
# the stored-mask kernel as reference
# ---------------------------------------------------------------------------

def reference_dense_apply(params, x):
    """dense_apply as it was with np.where ReLUs and stored masks.  Returns
    (output, layer inputs, ReLU masks)."""
    inputs, masks = [], []
    h = np.asarray(x, dtype=float)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w + b
        if i < last:
            mask = z > 0.0
            h = np.where(mask, z, 0.0)
            masks.append(mask)
        else:
            h = z
    return h, inputs, masks


def reference_backward(params, inputs, masks, grad_out):
    """DenseTape.backward as it was, reading the stored masks."""
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    g = grad_out
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = inputs[i].T @ g
        grads_b[i] = g.sum(axis=0)
        g = g @ params.weights[i].T
        if i > 0:
            g = g * masks[i - 1]
    return grads_w + grads_b, g


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dense_matches_stored_mask_reference_bit_for_bit():
    # Hidden pre-activations include exact zeros (unit 0 reads only its
    # bias) and NaN (row 5), with -0.0 among the inputs and biases.
    rng = np.random.default_rng(12)
    params = DenseParams.create([4, 9, 7, 3], rng)
    params.weights[0][:, 0] = 0.0
    params.biases[0][:3] = [0.0, -0.0, 0.5]
    params.biases[1][0] = -0.0
    x = rng.normal(size=(40, 4))
    x[:5] = -0.0
    x[5, 2] = np.nan
    x[6] = [-0.0, 0.0, -0.0, 2.0]
    z0 = x @ params.weights[0] + params.biases[0]
    assert np.isnan(z0).any() and (z0 == 0.0).any() and (z0 > 0.0).any()
    grad = rng.normal(size=(len(x), 3))
    grad[7, 1] = -0.0

    got, tape = dense_apply(params, x, capture=True)
    plain, _ = dense_apply(params, x)
    want, inputs, masks = reference_dense_apply(params, x)
    assert_same_bytes(got, want)
    assert_same_bytes(plain, want)
    assert np.isfinite(got).all()

    for rows in (slice(None), np.array([0, 5, 6, 11, 12, 39]), np.array([5]), np.array([7])):
        sub = DenseTape(params, [h[rows] for h in tape.inputs])
        grads, grad_x = sub.backward(grad[rows])
        want_grads, want_x = reference_backward(
            params, [h[rows] for h in inputs], [m[rows] for m in masks], grad[rows])
        for g, w in zip(grads.weights + grads.biases, want_grads):
            assert_same_bytes(g, w)
        assert_same_bytes(grad_x, want_x)


def test_relu_maps_nan_to_zero_with_zero_gradient_and_final_nan_passes():
    params = DenseParams([np.array([[1.0, 2.0], [1.0, -1.0]]), np.ones((2, 1))],
                         [np.zeros(2), np.array([0.5])])
    x = np.array([[np.nan, 1.0], [1.0, 1.0]])
    # Row 0's hidden units are NaN and come out of the ReLU as 0; row 1's are [2, 1].
    y, tape = dense_apply(params, x, capture=True)
    assert y.tolist() == [[0.5], [3.5]]
    # backward returns, without raising, the NaN that NaN * 0 puts into the
    # first weight gradient.
    grads, grad_x = tape.backward(np.ones((2, 1)))
    grads_w, grads_b = grads.weights, grads.biases
    assert grad_x.tolist() == [[0.0, 0.0], [3.0, 0.0]]
    assert grads_b[0].tolist() == [1.0, 1.0]
    assert grads_w[1].tolist() == [[2.0], [1.0]]
    assert np.isnan(grads_w[0][0]).all() and grads_w[0][1].tolist() == [1.0, 1.0]

    final, _ = dense_apply(DenseParams(params.weights[:1], params.biases[:1]), x)
    assert np.isnan(final[0]).all() and final[1].tolist() == [2.0, 1.0]


@pytest.mark.parametrize("capture", [False, True])
def test_dense_apply_peak_memory_is_two_outputs(capture):
    # Each layer allocates its output once and works in place on it, so the
    # peak is the hidden activation plus the output.
    rng = np.random.default_rng(14)
    params = DenseParams.create([4, 128, 128], rng)
    x = rng.normal(size=(32768, 4))
    tracemalloc.start()
    try:
        y, tape = dense_apply(params, x, capture=capture)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.05 * y.nbytes, peak / y.nbytes
