"""Adam with bias correction and the triangular cyclical learning-rate wave.

Parameters live in a flat dict[str, ndarray]; updates are functional (new
arrays, new state) so callers can keep any snapshot they like.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
              state: OptState, lr: float) -> tuple[dict[str, np.ndarray], OptState]:
    """One bias-corrected Adam update; returns (new params, new state)."""
    if set(params) != set(grads):
        raise ValueError("parameter and gradient keys must match")
    t = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter "
                             f"{key} shape {p.shape}")
        m = ADAM_BETA1 * state.m[key] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[key] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        new_params[key] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        new_m[key] = m
        new_v[key] = v
    return new_params, OptState(m=new_m, v=new_v, step=t)


def clr_schedule(step: int, steps_per_cycle: int, lr_low: float,
                 lr_high: float) -> float:
    """Triangular wave: lr_low -> lr_high over the first half cycle, back down
    over the second; periodic in `steps_per_cycle` (which must be even)."""
    if steps_per_cycle <= 0 or steps_per_cycle % 2 != 0:
        raise ValueError("steps_per_cycle must be positive and even")
    if step < 0:
        raise ValueError("step must be non-negative")
    half = steps_per_cycle // 2
    pos = step % steps_per_cycle
    if pos <= half:
        frac = pos / half
    else:
        frac = (steps_per_cycle - pos) / half
    return lr_low + (lr_high - lr_low) * frac
