"""Point-set layers with exact manual backward passes.

Three layers cover the whole displacement network:

* ``sa_layer``          -- downsample: farthest-point-sampled centroids group
                           their in-radius neighbours, a shared MLP runs per
                           neighbour, and element-wise max pools each group.
* ``fp_layer``          -- upsample: inverse-distance interpolation of the 3
                           nearest source features, optional skip concat, MLP.
* ``association_head``  -- cross-frame mixer: for every frame-A point, fuse
                           its feature with each of its k nearest frame-B
                           neighbours, append the neighbour displacement,
                           run the MLP per neighbour and max-pool over k.

Every layer selects neighbours with ``geom.nearest``: ascending Euclidean
distance, equal distances to the lower index, and every point tied at the
k-th distance ranked by index too, so a selection is a pure function of the
coordinates.  Feature gradients flow through features only; point
coordinates are data and never differentiated, so finite-difference checks
see a fixed computation graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geom import PointCloud, farthest_point_sample, nearest
from .dense import DenseParams, dense_apply

FUSION_METHODS = ("concat", "elementwise_product", "cosine_distance", "dot_product")

_COSINE_EPS = 1e-10


@dataclass(eq=False)
class SaLayerSpec:
    """Set-abstraction hyperparameters plus the group MLP parameters."""

    sample_count: int
    radius: float
    neighbor_cap: int
    mlp: DenseParams

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.neighbor_cap < 1:
            raise ValueError("neighbor_cap must be at least 1")


@dataclass(eq=False)
class AssociationSpec:
    """Cross-frame association hyperparameters plus the head MLP parameters."""

    k: int
    fusion: str
    mlp: DenseParams

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.fusion not in FUSION_METHODS:
            raise ValueError(f"fusion must be one of {FUSION_METHODS}, got {self.fusion!r}")


def fusion_width(fusion: str, width: int) -> int:
    """Width of the fused part of an association-head input row."""
    if fusion == "concat":
        return 2 * width
    if fusion == "elementwise_product":
        return width
    if fusion in ("cosine_distance", "dot_product"):
        return 1
    raise ValueError(f"fusion must be one of {FUSION_METHODS}, got {fusion!r}")


def _scatter_max_grad(grad_pooled: np.ndarray, argmax: np.ndarray,
                      group_size: int) -> np.ndarray:
    m, c = grad_pooled.shape
    gy = np.zeros((m, group_size, c))
    np.put_along_axis(gy, argmax[:, None, :], grad_pooled[:, None, :], axis=1)
    return gy


class SaTape:
    def __init__(self, order, valid, argmax, dense_tape, n_points, feat_width):
        self.order = order              # (m, cap) neighbour indices
        self.valid = valid              # (m, cap) in-radius mask
        self.argmax = argmax            # (m, c_out) winning neighbour slot
        self.dense_tape = dense_tape
        self.n_points = n_points
        self.feat_width = feat_width
        self.sample_indices = None      # filled by sa_layer

    def backward(self, grad_pooled: np.ndarray) -> tuple[DenseParams, np.ndarray]:
        gy = _scatter_max_grad(np.asarray(grad_pooled, dtype=float), self.argmax,
                               self.order.shape[1])
        mlp_grads, ginp = self.dense_tape.backward(gy.reshape(-1, gy.shape[2]))
        ginp = ginp.reshape(self.order.shape[0], self.order.shape[1], -1)
        grad_feats = np.zeros((self.n_points, self.feat_width))
        if self.feat_width:
            np.add.at(grad_feats, self.order, ginp[:, :, 3:])
        return mlp_grads, grad_feats


def sa_layer(spec: SaLayerSpec, points: np.ndarray, feats: np.ndarray,
             start_index: int, capture: bool = False):
    """Downsample points to spec.sample_count centroids with pooled features.

    Per centroid the MLP input rows are (neighbour - centroid) coordinates
    concatenated with the neighbour feature; pooling is element-wise max over
    the in-radius neighbours.  A centroid with no other in-radius point keeps
    itself as sole neighbour (it is always within its own radius).

    Returns (sampled points (m,3), pooled features (m,c_out), tape or None).
    """
    points = np.asarray(points, dtype=float)
    feats = np.asarray(feats, dtype=float)
    n = points.shape[0]
    if feats.shape[0] != n:
        raise ValueError("points and feats must have matching first dimension")
    if spec.sample_count > n:
        raise ValueError(f"sample_count {spec.sample_count} exceeds point count {n}")
    if spec.mlp.in_width != 3 + feats.shape[1]:
        raise ValueError(f"MLP expects width {spec.mlp.in_width}, "
                         f"inputs provide {3 + feats.shape[1]}")

    idx = farthest_point_sample(PointCloud(points), spec.sample_count, start_index)
    centroids = points[idx]
    cap = min(spec.neighbor_cap, n)
    order, near = nearest(centroids, points, cap)
    valid = near <= spec.radius
    valid[:, 0] = True  # the centroid itself, distance zero

    rel = points[order] - centroids[:, None, :]
    group_in = np.concatenate([rel, feats[order]], axis=2)
    out, dtape = dense_apply(spec.mlp, group_in.reshape(-1, group_in.shape[2]),
                             capture=capture)
    out = out.reshape(spec.sample_count, cap, -1)
    masked = np.where(valid[:, :, None], out, -np.inf)
    argmax = masked.argmax(axis=1)
    pooled = np.take_along_axis(masked, argmax[:, None, :], axis=1)[:, 0, :]

    tape = None
    if capture:
        tape = SaTape(order, valid, argmax, dtape, n, feats.shape[1])
        tape.sample_indices = idx
    return centroids, pooled, tape


class FpTape:
    def __init__(self, order, weights, dense_tape, n_source, source_width, skip_width):
        self.order = order              # (t, kk) source indices
        self.weights = weights          # (t, kk) normalized interpolation weights
        self.dense_tape = dense_tape
        self.n_source = n_source
        self.source_width = source_width
        self.skip_width = skip_width    # None when no skip features were given

    def backward(self, grad_out: np.ndarray):
        mlp_grads, gx = self.dense_tape.backward(np.asarray(grad_out, dtype=float))
        ginterp = gx[:, :self.source_width]
        grad_skip = gx[:, self.source_width:] if self.skip_width is not None else None
        grad_source = np.zeros((self.n_source, self.source_width))
        np.add.at(grad_source, self.order, ginterp[:, None, :] * self.weights[:, :, None])
        return mlp_grads, grad_source, grad_skip


def fp_layer(target_points: np.ndarray, source_points: np.ndarray,
             source_feats: np.ndarray, skip_feats: np.ndarray | None,
             mlp: DenseParams, capture: bool = False):
    """Propagate source features to target points.

    Each target receives the inverse-distance weighted average (weights
    1/(d+1e-10), normalized) of its 3 nearest source features, concatenated
    with its skip feature when one is provided, then passed through the MLP.

    Returns (target features (t,c_out), tape or None).
    """
    target_points = np.asarray(target_points, dtype=float)
    source_points = np.asarray(source_points, dtype=float)
    source_feats = np.asarray(source_feats, dtype=float)
    n_s = source_points.shape[0]
    if n_s < 1:
        raise ValueError("need at least one source point")
    if source_feats.shape[0] != n_s:
        raise ValueError("source points and features must align")

    kk = min(3, n_s)
    order, near = nearest(target_points, source_points, kk)
    w = 1.0 / (near + 1e-10)
    w = w / w.sum(axis=1, keepdims=True)
    interp = np.einsum("tk,tkc->tc", w, source_feats[order])

    if skip_feats is not None:
        skip_feats = np.asarray(skip_feats, dtype=float)
        if skip_feats.shape[0] != target_points.shape[0]:
            raise ValueError("skip features must align with target points")
        x = np.concatenate([interp, skip_feats], axis=1)
        skip_width = skip_feats.shape[1]
    else:
        x = interp
        skip_width = None
    if mlp.in_width != x.shape[1]:
        raise ValueError(f"MLP expects width {mlp.in_width}, inputs provide {x.shape[1]}")

    out, dtape = dense_apply(mlp, x, capture=capture)
    tape = None
    if capture:
        tape = FpTape(order, w, dtape, n_s, source_feats.shape[1], skip_width)
    return out, tape


class AssociationTape:
    def __init__(self, spec, order, argmax, dense_tape, feats_a, feats_b_grouped,
                 disp, fused_width, n_b):
        self.spec = spec
        self.order = order                  # (na, k) frame-B neighbour indices
        self.argmax = argmax                # (na, c_out)
        self.dense_tape = dense_tape
        self.feats_a = feats_a              # (na, c)
        self.feats_b_grouped = feats_b_grouped  # (na, k, c)
        self.neighbor_disp = disp           # (na, k, 3)
        self.fused_width = fused_width
        self.n_b = n_b

    def backward(self, grad_emb: np.ndarray):
        na, k = self.order.shape
        c = self.feats_a.shape[1]
        gy = _scatter_max_grad(np.asarray(grad_emb, dtype=float), self.argmax, k)
        mlp_grads, ginp = self.dense_tape.backward(gy.reshape(na * k, -1))
        ginp = ginp.reshape(na, k, -1)
        gfused = ginp[:, :, :self.fused_width]

        fa = self.feats_a[:, None, :]          # (na, 1, c)
        fb = self.feats_b_grouped               # (na, k, c)
        fusion = self.spec.fusion
        if fusion == "concat":
            grad_fa = gfused[:, :, :c].sum(axis=1)
            gfb = gfused[:, :, c:]
        elif fusion == "elementwise_product":
            grad_fa = (gfused * fb).sum(axis=1)
            gfb = gfused * fa
        elif fusion == "dot_product":
            g = gfused  # (na, k, 1)
            grad_fa = (g * fb).sum(axis=1)
            gfb = g * fa
        else:  # cosine_distance
            g = gfused  # (na, k, 1)
            s = np.einsum("nc,nkc->nk", self.feats_a, fb)[:, :, None]
            norm_a = np.linalg.norm(self.feats_a, axis=1)[:, None, None]
            norm_b = np.linalg.norm(fb, axis=2)[:, :, None]
            denom = norm_a * norm_b + _COSINE_EPS
            with np.errstate(divide="ignore", invalid="ignore"):
                da = fb / denom - np.where(norm_a > 0.0,
                                           s * norm_b * fa / (norm_a * denom ** 2), 0.0)
                db = fa / denom - np.where(norm_b > 0.0,
                                           s * norm_a * fb / (norm_b * denom ** 2), 0.0)
            grad_fa = (g * da).sum(axis=1)
            gfb = g * db

        grad_feats_b = np.zeros((self.n_b, c))
        np.add.at(grad_feats_b, self.order, gfb)
        return mlp_grads, grad_fa, grad_feats_b


def association_head(spec: AssociationSpec, points_a: np.ndarray, feats_a: np.ndarray,
                     points_b: np.ndarray, feats_b: np.ndarray, capture: bool = False):
    """Embed every frame-A point against its k nearest frame-B neighbours.

    Per neighbour j the MLP input row is fuse(f_a, f_b_j) concatenated with
    the displacement p_b_j - p_a; fusion is one of FUSION_METHODS.  The
    embedded feature is the element-wise max over the k neighbour outputs.

    Returns (embedded features (na, c_out), tape or None).
    """
    points_a = np.asarray(points_a, dtype=float)
    points_b = np.asarray(points_b, dtype=float)
    feats_a = np.asarray(feats_a, dtype=float)
    feats_b = np.asarray(feats_b, dtype=float)
    if feats_a.shape[1] != feats_b.shape[1]:
        raise ValueError("frame feature widths must match")
    if feats_a.shape[0] != points_a.shape[0] or feats_b.shape[0] != points_b.shape[0]:
        raise ValueError("points and features must align")
    if spec.k > points_b.shape[0]:
        raise ValueError(f"k={spec.k} exceeds frame-B point count {points_b.shape[0]}")

    c = feats_a.shape[1]
    fwidth = fusion_width(spec.fusion, c)
    if spec.mlp.in_width != fwidth + 3:
        raise ValueError(f"MLP expects width {spec.mlp.in_width}, "
                         f"fusion {spec.fusion!r} provides {fwidth + 3}")

    order, _ = nearest(points_a, points_b, spec.k)
    disp = points_b[order] - points_a[:, None, :]
    fb = feats_b[order]                       # (na, k, c)
    fa = feats_a[:, None, :]                  # (na, 1, c)

    if spec.fusion == "concat":
        fused = np.concatenate([np.broadcast_to(fa, fb.shape), fb], axis=2)
    elif spec.fusion == "elementwise_product":
        fused = fa * fb
    elif spec.fusion == "dot_product":
        fused = np.einsum("nc,nkc->nk", feats_a, fb)[:, :, None]
    else:  # cosine_distance
        s = np.einsum("nc,nkc->nk", feats_a, fb)
        denom = (np.linalg.norm(feats_a, axis=1)[:, None]
                 * np.linalg.norm(fb, axis=2) + _COSINE_EPS)
        fused = (s / denom)[:, :, None]

    group_in = np.concatenate([fused, disp], axis=2)
    na, k = order.shape
    out, dtape = dense_apply(spec.mlp, group_in.reshape(na * k, -1), capture=capture)
    out = out.reshape(na, k, -1)
    argmax = out.argmax(axis=1)
    embedded = np.take_along_axis(out, argmax[:, None, :], axis=1)[:, 0, :]

    tape = None
    if capture:
        tape = AssociationTape(spec, order, argmax, dtape, feats_a, fb, disp, fwidth,
                               points_b.shape[0])
    return embedded, tape
