"""Adam with bias correction and the triangular cyclical learning-rate wave.

Parameters live in a flat dict[str, ndarray]; an update writes into those
arrays and into the optimizer state in place, so a caller that passes a
model's own arrays updates the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geom import _integer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(eq=False)
class OptState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "OptState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()},
                   step=0)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptState, lr: float) -> None:
    """One bias-corrected Adam update of params, state.m, state.v and
    state.step, in place.  Keys and shapes are checked before any write.

    Each in-place expression computes what ``m = b1 * m + (1 - b1) * g``
    and the like would, operation for operation, so it rounds alike.
    """
    if set(params) != set(grads):
        raise ValueError("parameter and gradient keys must match")
    for key, p in params.items():
        if grads[key].shape != p.shape:
            raise ValueError(f"gradient shape {grads[key].shape} does not match "
                             f"parameter {key} shape {p.shape}")
    state.step += 1
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** state.step)
        v_hat = v / (1.0 - ADAM_BETA2 ** state.step)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def clr_schedule(step: int, steps_per_cycle: int, lr_low: float,
                 lr_high: float) -> float:
    """Triangular wave: lr_low -> lr_high over the first half cycle, back down
    over the second; periodic in `steps_per_cycle` (which must be even)."""
    steps_per_cycle = _integer("steps_per_cycle", steps_per_cycle, 2)
    if steps_per_cycle % 2 != 0:
        raise ValueError(f"steps_per_cycle must be even, got {steps_per_cycle}")
    step = _integer("step", step, 0)
    half = steps_per_cycle // 2
    pos = step % steps_per_cycle
    if pos <= half:
        frac = pos / half
    else:
        frac = (steps_per_cycle - pos) / half
    return lr_low + (lr_high - lr_low) * frac
