"""Shared-MLP parameters with an exact hand-written backward pass.

A DenseParams is a chain of Linear layers with ReLU between them and a linear
final layer.  ``dense_apply`` runs the chain row-wise over a feature matrix
and, when capturing, returns a tape that turns an output gradient into
parameter gradients plus the input gradient.  The tape returns those
parameter gradients as a DenseGrads, which checks nothing: a NaN input
reaches them as NaN, and whoever applies them decides what a non-finite
gradient means.  ``DenseGrads.add_`` sums the gradients of a layer that two
streams share.  A tape's ``inputs`` are the captured input of each layer; a
tape built from some of their rows runs the backward pass of those rows
alone, as ``layers._group_pool`` does for the winners of its max-pool.

Each layer adds its bias and applies its ReLU in place on its GEMM's output,
so it allocates one array of its output's size.  The ReLU maps NaN to 0, so
a NaN stops at a hidden layer and gets no gradient; the final layer passes
it through.  The tape stores no masks: the backward pass rebuilds a hidden
layer's mask ``z > 0`` as ``relu(z) > 0`` from the next layer's input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geom import _rows, _vector


@dataclass(eq=False)
class DenseParams:
    """Weights and biases of a Linear(+ReLU) chain; final layer is linear."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching, non-empty weight and bias lists")
        self.weights = [_rows(f"weights[{i}]", w) for i, w in enumerate(self.weights)]
        self.biases = [_vector(f"biases[{i}]", b, float) for i, b in enumerate(self.biases)]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} incompatible with bias {b.shape}")
            if i > 0 and w.shape[0] != self.weights[i - 1].shape[1]:
                raise ValueError(f"layer {i}: input width {w.shape[0]} does not match "
                                 f"previous output {self.weights[i - 1].shape[1]}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: parameters must be finite")

    @classmethod
    def create(cls, widths, rng: np.random.Generator) -> "DenseParams":
        """Glorot-uniform init for the width chain [d_in, h1, ..., d_out]."""
        widths = list(widths)
        if len(widths) < 2:
            raise ValueError("need at least an input and an output width")
        weights, biases = [], []
        for d_in, d_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (d_in + d_out))
            weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
            biases.append(np.zeros(d_out))
        return cls(weights, biases)

    @property
    def in_width(self) -> int:
        return int(self.weights[0].shape[0])

    @property
    def out_width(self) -> int:
        return int(self.weights[-1].shape[1])


@dataclass(eq=False)
class DenseGrads:
    """Gradients of a DenseParams chain's weights and biases, unchecked."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add_(self, other: "DenseGrads") -> "DenseGrads":
        """In-place accumulation, used to merge gradients of shared layers."""
        for w, ow in zip(self.weights, other.weights):
            w += ow
        for b, ob in zip(self.biases, other.biases):
            b += ob
        return self


class DenseTape:
    """Captured forward state of dense_apply; replays the exact backward pass."""

    def __init__(self, params: DenseParams, inputs: list[np.ndarray]):
        self._params = params
        self.inputs = inputs            # the input of each layer, row for row

    def backward(self, grad_out: np.ndarray) -> tuple[DenseGrads, np.ndarray]:
        """Map d(loss)/d(output) to (parameter gradients, d(loss)/d(input))."""
        grad_out = np.asarray(grad_out, dtype=float)
        grads_w = [None] * len(self._params.weights)
        grads_b = [None] * len(self._params.biases)
        g = grad_out
        for i in range(len(self._params.weights) - 1, -1, -1):
            grads_w[i] = self.inputs[i].T @ g
            grads_b[i] = g.sum(axis=0)
            g = g @ self._params.weights[i].T
            if i > 0:
                np.multiply(g, self.inputs[i] > 0.0, out=g)
        return DenseGrads(grads_w, grads_b), g


def dense_apply(params: DenseParams, x: np.ndarray,
                capture: bool = False) -> tuple[np.ndarray, DenseTape | None]:
    """Apply the Linear->ReLU chain row-wise; final layer has no ReLU."""
    x = _rows("x", x, params.in_width)
    inputs = []
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if capture:
            inputs.append(h)
        h = h @ w
        h += b
        if i < last:
            # Like np.where(z > 0, z, 0.0), fmax maps NaN to 0.0; a -0.0 it
            # may keep reads as 0.0 in every later product and test.
            np.fmax(h, 0.0, out=h)
    return h, DenseTape(params, inputs) if capture else None
