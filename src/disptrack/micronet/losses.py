"""Tracking loss: class-balanced squared-L2 displacement error with its
analytic gradient, which drives the manual backward pass.
"""

from __future__ import annotations

import numpy as np

from ..geom import _rows, _vector

LOSS_ALPHA = 1.0
LOSS_BETA = 0.5


def tracking_loss(pred_disp: np.ndarray, target_disp: np.ndarray,
                  foreground_mask: np.ndarray,
                  excluded: np.ndarray) -> tuple[float, np.ndarray]:
    """Class-balanced squared-L2 displacement loss.

    loss = alpha * (N/N_pos) * sum_pos ||e||^2 + beta * (N/N_neg) * sum_neg ||e||^2
    with N the total point count, alpha = LOSS_ALPHA = 1 and beta =
    LOSS_BETA = 0.5; a side with no points drops its term.
    Points flagged in `excluded` contribute to neither side (their true
    displacement is unknown) but still count toward N.

    Returns (loss, d(loss)/d(pred) with shape (n, 3)).
    """
    pred = _rows("pred_disp", pred_disp, 3)
    target = _rows("target_disp", target_disp, 3)
    mask = _vector("foreground_mask", foreground_mask, bool)
    excluded = _vector("excluded", excluded, bool)
    n = pred.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    if target.shape[0] != n or mask.shape[0] != n or excluded.shape[0] != n:
        raise ValueError("prediction, target, mask and excluded lengths must match")

    err = pred - target
    sq = np.einsum("ij,ij->i", err, err)
    pos = mask & ~excluded
    neg = ~mask & ~excluded
    n_pos = int(np.count_nonzero(pos))
    n_neg = int(np.count_nonzero(neg))

    loss = 0.0
    grad = np.zeros_like(pred)
    if n_pos:
        scale = LOSS_ALPHA * n / n_pos
        loss += scale * float(sq[pos].sum())
        grad[pos] = 2.0 * scale * err[pos]
    if n_neg:
        scale = LOSS_BETA * n / n_neg
        loss += scale * float(sq[neg].sum())
        grad[neg] = 2.0 * scale * err[neg]
    return loss, grad
