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

Set abstraction selects neighbours with ``geom.ball_query`` and runs its
MLP on the in-radius rows only, a contiguous run per centroid.  Feature
propagation and the association
head need the k nearest points with no radius and use ``geom.nearest``,
which searches a grid for large inputs (paper-scale fp2 and fp3) and scores
every pair for small ones.  All rank by ascending Euclidean distance, equal
distances to the lower index, so a selection is a pure function of the
coordinates.

Feature propagation applies its MLP's first layer to the source features
before interpolating, which interpolation's linearity allows, so that GEMM
runs over the fewer source rows; its backward pass interpolates the layer's
output gradient back onto the sources.

The association head's dot and cosine fusions never gather frame-B
features: they read one (na, nb) GEMM of the two frames' features at each
point's k neighbours, and one norm per point.  Their backward pass is two
GEMMs against the (na, nb) matrix of per-pair gradient weights.  Concat and
elementwise-product fusion gather frame-B features a block at a time.  With
capture the head keeps the layer inputs of the rows that win some pooled
channel, and only those: its MLP backward runs on them alone, since a row
that wins no channel gets no gradient.

The association head and feature propagation's interpolation build one row
per (point, neighbour) pair, and never all of them at once.  ``_blocks``
splits the points into the fewest blocks of at most ``_BLOCK_ROWS`` such
rows, sized evenly so that no block is a small remainder.  The head builds,
runs through its MLP and max-pools one block of whole frame-A points at a
time, its rows slot-major (slot 0 of every point, then slot 1, ...) so that
each slot the pool folds is one contiguous array.  FP gathers and
interpolates one block of targets at a time into its output.

Blocking changes no output bit.  Interpolation is an einsum, which sums each
target's neighbours in the same order at any block size.  A GEMM split by
rows returns the same bits only where BLAS computes a row the same way in a
short call as in a long one.  With OpenBLAS that held for 32- to 256-wide
layers in blocks of 64 rows or more (the paper-scale head runs 1024-row
blocks), but not for 1- or 7-row blocks, nor for a 3-wide layer at any block
size.  So FP's later layers and the dense head stay whole, and a desk-scale
head (64 points, k = 16) is one block.

Set abstraction and the association head max-pool with one helper,
``_max_pool``.  It folds a group's slots, neighbour by neighbour, into the
pooled array with a running ``np.maximum``: bit for bit the values of
``np.maximum.reduceat`` over the group's rows.  SA orders its centroids
largest group first, so slot s is a prefix of them, while its MLP rows stay
centroid-major.  Each pooled gradient goes to np.argmax's slot: the lowest
slot holding the max, and for a NaN max the lowest NaN slot.

Feature gradients flow through features only; point coordinates are data
and never differentiated, so finite-difference checks see a fixed
computation graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geom import PointCloud, ball_query, farthest_point_sample, nearest
from .dense import DenseGrads, DenseParams, DenseTape, dense_apply

FUSION_METHODS = ("concat", "elementwise_product", "cosine_distance", "dot_product")

_COSINE_EPS = 1e-10

#: Rows of a neighbour-gathered array, one per (point, neighbour) pair, that
#: the association head and feature propagation build at once.
_BLOCK_ROWS = 1024


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
        if not self.radius > 0.0:  # also rejects NaN
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


def _max_pool(slot, depth: int, capture: bool):
    """Element-wise max over the slots of groups, and with capture the slot
    holding it.

    slot(s), for s < depth, returns slot s of the first len(slot(s)) groups
    as a (len, c) array, and no slot is longer than the one before it.
    Slots fold into the pooled array in order with a running np.maximum, as
    np.maximum.reduceat folds rows.  The winner is np.argmax's: the lowest
    slot holding the max, or for a NaN max the lowest NaN slot.  Returns
    (pooled (g, c), winning slot (g, c) or None).
    """
    pooled = slot(0).copy()
    for s in range(1, depth):
        x = slot(s)
        head = pooled[:len(x)]
        np.maximum(head, x, out=head)
    if not capture:
        return pooled, None
    # From the last slot down, so the lowest hit is written last.  A NaN
    # max equals no slot; only a group whose max is NaN has NaN slots.
    has_nan = np.isnan(pooled).any()
    winner = np.empty(pooled.shape, dtype=np.intp)
    for s in range(depth - 1, -1, -1):
        x = slot(s)
        hit = x == pooled[:len(x)]
        if has_nan:
            hit |= np.isnan(x)
        np.copyto(winner[:len(x)], s, where=hit)
    return pooled, winner


def _blocks(n: int, width: int) -> list[slice]:
    """range(n) in the fewest blocks of at most _BLOCK_ROWS // width items
    (at least one), sized evenly: block sizes differ by at most one."""
    count = max(1, -(-n // max(1, _BLOCK_ROWS // width)))
    bounds = np.arange(count + 1) * n // count
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, c) sums of the c-wide rows of values into the rows that index names.

    values has shape index.shape + (c,); rows are added in index order, as
    np.add.at adds them, so the sums match it bit for bit.
    """
    c = values.shape[-1]
    flat = (index[..., None] * c + np.arange(c)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * c).reshape(n, c)


class SaTape:
    def __init__(self, rows, valid, winner, dense_tape, n_points):
        self.rows = rows                # (r,) point index of each in-radius row
        self.valid = valid              # (m, cap) in-radius mask
        self.winner = winner            # (m, c_out) row holding each pooled max
        self.dense_tape = dense_tape    # over the in-radius rows
        self.n_points = n_points

    def backward(self, grad_pooled: np.ndarray) -> tuple[DenseGrads, np.ndarray]:
        gy = np.zeros((self.rows.size, self.winner.shape[1]))
        np.put_along_axis(gy, self.winner, np.asarray(grad_pooled, dtype=float), axis=0)
        mlp_grads, ginp = self.dense_tape.backward(gy)
        return mlp_grads, _scatter_add(self.rows, ginp[:, 3:], self.n_points)


def sa_layer(spec: SaLayerSpec, points: np.ndarray, feats: np.ndarray,
             start_index: int, capture: bool = False):
    """Downsample points to spec.sample_count centroids with pooled features.

    Each centroid groups its spec.neighbor_cap nearest points within
    spec.radius (``geom.ball_query``).  Per grouped neighbour the MLP input
    row is the (neighbour - centroid) coordinates concatenated with the
    neighbour feature; the MLP runs on these in-radius rows only, and pooling
    is their element-wise max.  A centroid with no other in-radius point
    keeps itself as sole neighbour (it is always within its own radius).

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
    order, valid = ball_query(centroids, points, spec.radius, min(spec.neighbor_cap, n))

    # A centroid's in-radius rows are contiguous, slot order, and never
    # empty: the centroid itself is always among them.
    rows = order[valid]
    count = np.count_nonzero(valid, axis=1)
    start = np.cumsum(count) - count
    rel = points[rows] - np.repeat(centroids, count, axis=0)
    out, dtape = dense_apply(spec.mlp, np.concatenate([rel, feats[rows]], axis=1),
                             capture=capture)
    # Pool largest groups first, so the centroids holding slot s are a prefix.
    by_size = np.argsort(-count, kind="stable")
    first = start[by_size]
    by_size_pooled, slot = _max_pool(
        lambda s: out[first[:np.count_nonzero(count > s)] + s], count.max(), capture)
    pooled = np.empty_like(by_size_pooled)
    pooled[by_size] = by_size_pooled

    tape = None
    if capture:
        winner = np.empty_like(slot)
        winner[by_size] = first[:, None] + slot
        tape = SaTape(rows, valid, winner, dtape, n)
    return centroids, pooled, tape


class FpTape:
    def __init__(self, order, weights, source_feats, skip_feats, w0, hidden, dense_tape):
        self.order = order              # (t, kk) source indices
        self.weights = weights          # (t, kk) normalized interpolation weights
        self.source_feats = source_feats
        self.skip_feats = skip_feats    # None when no skip features were given
        self.w0 = w0                    # first layer's weights
        self.hidden = hidden            # (t, h) first layer's ReLU output, or None
        self.dense_tape = dense_tape    # later layers over hidden, or None

    def backward(self, grad_out: np.ndarray):
        g = np.asarray(grad_out, dtype=float)
        grads_w, grads_b = [], []
        if self.dense_tape is not None:
            later, g = self.dense_tape.backward(g)
            np.multiply(g, self.hidden > 0.0, out=g)
            grads_w, grads_b = later.weights, later.biases
        # g is now the gradient of the first layer's pre-activation.  Its
        # source part was interpolated after the GEMM, so g goes back to the
        # sources first and the GEMM's gradients are taken there.
        c_s = self.source_feats.shape[1]
        g_src = _scatter_add(self.order, g[:, None, :] * self.weights[:, :, None],
                             self.source_feats.shape[0])
        grad_w0 = self.source_feats.T @ g_src
        grad_source = g_src @ self.w0[:c_s].T
        grad_skip = None
        if self.skip_feats is not None:
            grad_w0 = np.concatenate([grad_w0, self.skip_feats.T @ g])
            grad_skip = g @ self.w0[c_s:].T
        return (DenseGrads([grad_w0, *grads_w], [g.sum(axis=0), *grads_b]),
                grad_source, grad_skip)


def fp_layer(target_points: np.ndarray, source_points: np.ndarray,
             source_feats: np.ndarray, skip_feats: np.ndarray | None,
             mlp: DenseParams, capture: bool = False):
    """Propagate source features to target points.

    Each target receives the inverse-distance weighted average (weights
    1/(d+1e-10), normalized) of its 3 nearest source features, concatenated
    with its skip feature when one is provided, then passed through the MLP.

    The first layer's source columns run on the sources, before the
    interpolation (``interp(F) @ W == interp(F @ W)``); its skip columns and
    the later layers run on the targets.

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
    c_s = source_feats.shape[1]
    width = c_s
    if skip_feats is not None:
        skip_feats = np.asarray(skip_feats, dtype=float)
        if skip_feats.shape[0] != target_points.shape[0]:
            raise ValueError("skip features must align with target points")
        width += skip_feats.shape[1]
    if mlp.in_width != width:
        raise ValueError(f"MLP expects width {mlp.in_width}, inputs provide {width}")

    kk = min(3, n_s)
    order, near = nearest(target_points, source_points, kk)
    w = 1.0 / (near + 1e-10)
    w = w / w.sum(axis=1, keepdims=True)
    w0 = mlp.weights[0]
    proj = source_feats @ w0[:c_s]
    z = np.empty((len(target_points), proj.shape[1]))
    for t in _blocks(len(z), kk):
        np.einsum("tk,tkc->tc", w[t], proj[order[t]], out=z[t])
    if skip_feats is not None:
        z += skip_feats @ w0[c_s:]
    z += mlp.biases[0]

    hidden = dtape = None
    if len(mlp.weights) == 1:
        out = z
    else:
        hidden = np.fmax(z, 0.0, out=z)     # dense_apply's ReLU
        out, dtape = dense_apply(DenseParams(mlp.weights[1:], mlp.biases[1:]), hidden,
                                 capture=capture)
    tape = None
    if capture:
        tape = FpTape(order, w, source_feats, skip_feats, w0, hidden, dtape)
    return out, tape


class AssociationTape:
    def __init__(self, spec, order, argmax, rows, dense_tape, feats_a, feats_b,
                 fused_width, dots):
        self.spec = spec
        self.order = order              # (na, k) frame-B neighbour indices
        self.argmax = argmax            # (na, c_out) slot holding each pooled max
        self.rows = rows                # (r,) ascending flat (point, slot) rows that win
        self.dense_tape = dense_tape    # over those rows only
        self.feats_a = feats_a          # (na, c)
        self.feats_b = feats_b          # (nb, c)
        self.fused_width = fused_width
        self.dots = dots                # (na, k) f_a . f_b for dot and cosine, else None

    def backward(self, grad_emb: np.ndarray):
        na, k = self.order.shape
        nb = self.feats_b.shape[0]
        c_out = self.argmax.shape[1]
        # A row that holds no channel's max gets no gradient, so the MLP
        # backward runs on the winning rows alone.
        slot = np.empty(na * k, dtype=np.intp)
        slot[self.rows] = np.arange(self.rows.size)
        win = np.arange(na)[:, None] * k + self.argmax
        gy = np.zeros((self.rows.size, c_out))
        gy[slot[win], np.arange(c_out)] = np.asarray(grad_emb, dtype=float)
        mlp_grads, ginp = self.dense_tape.backward(gy)
        gfused = np.zeros((na * k, self.fused_width))
        gfused[self.rows] = ginp[:, :self.fused_width]
        gfused = gfused.reshape(na, k, -1)

        fa, fb = self.feats_a, self.feats_b
        fusion = self.spec.fusion
        if fusion == "concat":
            c = fa.shape[1]
            return (mlp_grads, gfused[:, :, :c].sum(axis=1),
                    _scatter_add(self.order, gfused[:, :, c:], nb))
        if fusion == "elementwise_product":
            return (mlp_grads, (gfused * fb[self.order]).sum(axis=1),
                    _scatter_add(self.order, gfused * fa[:, None, :], nb))

        # Dot and cosine fusion: the (i, j) input gradient is a weight w_ij
        # on f_b[order[i, j]] for f_a[i] and on f_a[i] for f_b[order[i, j]],
        # so both sums are GEMMs against the (na, nb) matrix of those weights
        # (an order row has no repeated index).  Cosine adds the derivative
        # of the norms, a multiple of each point's own feature.
        g = gfused[:, :, 0]
        if fusion == "dot_product":
            w = g
        else:
            norm_a, norm_b, denom = _cosine_norms(fa, fb, self.order)
            w = g / denom
            t = w * self.dots / denom
            with np.errstate(divide="ignore", invalid="ignore"):
                c_a = np.where(norm_a > 0.0, (t * norm_b).sum(axis=1) / norm_a, 0.0)
                c_b = np.bincount(self.order.ravel(), minlength=nb, weights=np.where(
                    norm_b > 0.0, t * norm_a[:, None] / norm_b, 0.0).ravel())
        weights = np.zeros((na, nb))
        np.put_along_axis(weights, self.order, w, axis=1)
        grad_fa = weights @ fb
        grad_fb = weights.T @ fa
        if fusion == "cosine_distance":
            grad_fa -= c_a[:, None] * fa
            grad_fb -= c_b[:, None] * fb
        return mlp_grads, grad_fa, grad_fb


def _cosine_norms(feats_a: np.ndarray, feats_b: np.ndarray, order: np.ndarray):
    """Frame-A norms (na,), frame-B norms gathered at order (na, k), and the
    cosine denominators |f_a| |f_b| + eps (na, k)."""
    norm_a = np.linalg.norm(feats_a, axis=1)
    norm_b = np.linalg.norm(feats_b, axis=1)[order]
    return norm_a, norm_b, norm_a[:, None] * norm_b + _COSINE_EPS


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
    na, k = order.shape
    dots = sim = None
    if spec.fusion in ("dot_product", "cosine_distance"):
        dots = np.take_along_axis(feats_a @ feats_b.T, order, axis=1)
        sim = dots / _cosine_norms(feats_a, feats_b, order)[2] \
            if spec.fusion == "cosine_distance" else dots

    def group_in(a: slice) -> np.ndarray:
        """MLP input rows of frame-A points a, slot-major: slot 0 of each
        point, then slot 1, and so on."""
        near = order[a].T
        if spec.fusion == "concat":
            fb = feats_b[near]
            fused = np.concatenate([np.broadcast_to(feats_a[a], fb.shape), fb], axis=2)
        elif spec.fusion == "elementwise_product":
            fused = feats_a[a] * feats_b[near]
        else:
            fused = sim[a].T[:, :, None]
        disp = points_b[near] - points_a[a]
        return np.concatenate([fused, disp], axis=2).reshape(-1, fwidth + 3)

    embedded = np.empty((na, spec.mlp.out_width))
    argmax = np.empty(embedded.shape, dtype=np.intp)
    rows, kept = [], []
    for a in _blocks(na, k):
        out, dtape = dense_apply(spec.mlp, group_in(a), capture=capture)
        out = out.reshape(k, -1, out.shape[1])
        pooled, slot = _max_pool(lambda j: out[j], k, capture)
        embedded[a] = pooled
        if capture:
            argmax[a] = slot
            # Keep the layer inputs of the rows that win some channel, the
            # only rows the backward pass reads, point-major: point i's slot
            # j is row i * k + j there and row j * n + i in the block.
            n = len(pooled)
            won = np.zeros((n, k), dtype=bool)
            won[np.arange(n)[:, None], slot] = True
            r = np.flatnonzero(won)
            rows.append(a.start * k + r)
            kept.append([x[r % k * n + r // k] for x in dtape.inputs])
    tape = None
    if capture:
        dtape = DenseTape(spec.mlp, [np.concatenate(x) for x in zip(*kept)])
        tape = AssociationTape(spec, order, argmax, np.concatenate(rows), dtape,
                               feats_a, feats_b, fwidth, dots)
    return embedded, tape
