"""Point-set layers with exact manual backward passes.

Three layers cover the whole displacement network:

* ``sa_layer``          -- downsample: given centroids group their
                           in-radius neighbours, a shared MLP runs per
                           neighbour, and element-wise max pools each group.
* ``fp_layer``          -- upsample: inverse-distance interpolation of the 3
                           nearest source features, optional skip concat, MLP.
* ``association_head``  -- cross-frame mixer: for every frame-A point and
                           each of its k nearest frame-B neighbours, the
                           cosine of their features and the neighbour
                           displacement run through the MLP, and
                           element-wise max pools over k.

Set abstraction takes its groups from outside, planned before any layer
runs, as they depend on coordinates and start indices alone:
``sample_centroids`` picks the centroids by farthest-point sampling for
every cloud of one level at once, and ``select_groups`` gives each centroid
its in-radius neighbours (``geom.ball_query``), as an ``SaSelection``.  A
caller may run the layer on some rows of a selection only
(``SaSelection.rows``).  Feature propagation and the association head take
the k nearest with ``geom.nearest`` inside the layer.  All rank by ascending
distance, equal distances to the lower index, so a selection is a pure
function of the coordinates.

Set abstraction and the association head are one kernel, ``_group_pool``,
on different (group, candidate) pairs: a centroid and its in-radius points,
or a frame-A point and its frame-B neighbours.  It takes a selection's
padded (order, valid) pair and a ``rows_of(group, candidate)`` callback that
builds MLP input rows.  It sorts the groups largest first and runs them in
blocks of whole groups, at most ``_BLOCK_ROWS`` rows each, slot-major (slot
0 of every group, then slot 1, ...), so slot s is one contiguous run over a
prefix of the block's groups.  ``_max_pool`` folds those runs with a running
``np.maximum``, bit for bit ``np.maximum.reduceat`` over each group's rows,
and sends each pooled gradient to np.argmax's slot: the lowest one holding
the max, or for a NaN max the lowest NaN slot.  With capture a block keeps
the layer inputs of its winning rows only, as its own ``DenseTape``: a row
that wins no channel gets no gradient.  The backward pass runs block by
block and returns the MLP gradients and each winning row's input gradient
with its (group, candidate) pair.  Set abstraction scatters the
neighbour-feature part; the head reads each pair's cosine from one (na, nb)
GEMM of the two frames' features, and its backward pass is two GEMMs against
the (na, nb) matrix of per-pair gradient weights.  A pair with a zero-norm
feature passes no gradient.

Feature propagation applies its MLP's first layer to the source features
before interpolating (interpolation is linear), so that GEMM runs over the
fewer source rows.  It then runs a chunk of targets at a time through
interpolation, the skip GEMM and the later layers, and writes only the
chunk's rows of the output, so a forward pass never holds a whole (t, c)
pre-activation or hidden array.  Chunking changes no interpolated bit: the
einsum sums each target's neighbours in the same order at any chunk size.
A GEMM split by rows keeps its bits only where BLAS computes a row alike in
short and long calls; with OpenBLAS that held for 32- to 256-wide layers in
chunks of 64 rows or more, not for 1- or 7-row chunks (a 1-row GEMM goes
through gemv) or 3-wide outputs.  So the chunks are even, at most
``_BLOCK_ROWS`` (target, neighbour) pairs each, and never fewer than
``_GEMM_ROWS`` targets unless the layer has fewer in all.  The dense head
runs whole: its 3-wide output GEMM changed bits at every row split tried.
The backward pass sends the first layer's gradient to the sources with
``_interp_transpose``, one round per pair rank over the sources that have
that many pairs, so each source sums its pairs from zero in (target, slot)
order, bit for bit the np.add.at order, without a (t, 3, c) array.

Feature gradients flow through features only; point coordinates are data
and never differentiated, so finite-difference checks see a fixed
computation graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..geom import PointCloud, _integer, _rows, _vector, ball_query, farthest_point_sample, nearest
from .dense import DenseGrads, DenseParams, DenseTape, dense_apply

_COSINE_EPS = 1e-10

#: Rows of a neighbour-gathered array, one per (point, neighbour) pair, that
#: the group kernel and feature propagation build at once.
_BLOCK_ROWS = 1024

#: Fewest target rows feature propagation runs a chunk's GEMMs on.
_GEMM_ROWS = 64


@dataclass(eq=False)
class SaLayerSpec:
    """Set-abstraction sample count plus the group MLP parameters.  The
    neighbour cap is the width of the planned selection."""

    sample_count: int
    mlp: DenseParams

    def __post_init__(self) -> None:
        self.sample_count = _integer("sample_count", self.sample_count, 1)


@dataclass(eq=False)
class AssociationSpec:
    """Cross-frame association hyperparameters plus the head MLP parameters;
    ``geom.nearest`` checks k against the frame-B points."""

    k: int
    mlp: DenseParams


def _max_pool(out: np.ndarray, start: np.ndarray, capture: bool):
    """Element-wise max over the slots of groups, and with capture the slot
    holding it.

    out holds the rows slot-major: out[start[s]:start[s + 1]] is slot s of
    the first start[s + 1] - start[s] groups, and no slot is longer than the
    one before it.  Slots fold into the pooled array in order with a running
    np.maximum, as np.maximum.reduceat folds rows.  The winner is
    np.argmax's: the lowest slot holding the max, or for a NaN max the
    lowest NaN slot.  Returns (pooled (g, c), winning slot (g, c) or None).
    """
    pooled = out[:start[1]].copy()
    for s in range(1, len(start) - 1):
        x = out[start[s]:start[s + 1]]
        head = pooled[:len(x)]
        np.maximum(head, x, out=head)
    if not capture:
        return pooled, None
    # From the last slot down, so the lowest hit is written last.  A NaN
    # max equals no slot; only a group whose max is NaN has NaN slots.
    has_nan = np.isnan(pooled).any()
    winner = np.empty(pooled.shape, dtype=np.intp)
    for s in range(len(start) - 2, -1, -1):
        x = out[start[s]:start[s + 1]]
        hit = x == pooled[:len(x)]
        if has_nan:
            hit |= np.isnan(x)
        np.copyto(winner[:len(x)], s, where=hit)
    return pooled, winner


def _blocks(sizes: np.ndarray) -> list[slice]:
    """Consecutive groups of sizes[i] >= 1 rows in blocks of whole groups:
    the fewest blocks of at most _BLOCK_ROWS rows when the groups are cut at
    evenly spaced row counts, so that no block is a small remainder.  A
    group larger than _BLOCK_ROWS is a block of its own."""
    n = len(sizes)
    if n and sizes.max() > _BLOCK_ROWS:
        return [slice(i, i + 1) for i in range(n)]
    ends = np.concatenate(([0], np.cumsum(sizes)))
    count = -(-int(ends[-1]) // _BLOCK_ROWS)
    if count <= 1:
        return [slice(0, n)] if n else []
    # An even cut leaves a block at most max(sizes) - 1 rows over
    # total / count, so count stops by total / (_BLOCK_ROWS - max + 1).
    while True:
        cuts = np.arange(count + 1) * ends[-1] // count
        bounds = np.searchsorted(ends, cuts, side="right") - 1
        if (np.diff(ends[bounds]) <= _BLOCK_ROWS).all():
            bounds = bounds.tolist()
            return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        count += 1


def _scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, c) sums of the c-wide rows of values into the rows that index names.

    values has shape index.shape + (c,); rows are added in index order, as
    np.add.at adds them, so the sums match it bit for bit.  Set abstraction
    scatters its narrow neighbour-feature rows with it.
    """
    c = values.shape[-1]
    flat = (index[..., None] * c + np.arange(c)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * c).reshape(n, c)


def _interp_transpose(order: np.ndarray, weights: np.ndarray, g: np.ndarray,
                      n: int) -> np.ndarray:
    """(n, c) transpose of an interpolation: row j sums weights[t, s] * g[t]
    over the (t, s) with order[t, s] == j.

    Equals _scatter_add(order, g[:, None, :] * weights[:, :, None], n) bit
    for bit without building those (t, kk, c) products or a flat index.  The
    pairs are grouped by source in (t, s) order and the sources ordered by
    pair count, so round r adds the r-th pair of every source that has more
    than r pairs into a prefix of one zeroed accumulator: each sum runs from
    zero in (t, s) order, the order np.add.at and np.bincount add in.
    """
    kk = order.shape[1]
    src = order.ravel()
    pairs = np.argsort(src, kind="stable")
    count = np.bincount(src, minlength=n)
    by_count = np.argsort(-count, kind="stable")
    depth = count[by_count]
    first = (np.cumsum(count) - count)[by_count]
    # active[r]: how many sources have more than r pairs, a prefix of by_count.
    active = np.searchsorted(-depth, -np.arange(depth[0]), side="left")
    w = weights.ravel()
    acc = np.zeros((n, g.shape[1]))
    for r, m in enumerate(active.tolist()):
        p = pairs[first[:m] + r]
        x = g[p // kk]
        x *= w[p][:, None]
        acc[:m] += x
    out = np.empty_like(acc)
    out[by_count] = acc
    return out


class _GroupTape:
    """Captured state of _group_pool, one entry per block: its groups, the
    kept row holding each of their pooled maxima, and each kept row's
    (group, candidate) pair and layer inputs."""

    def __init__(self, blocks):
        self.blocks = blocks    # [(members, win, group, cand, dense tape)]

    def backward(self, grad_pooled: np.ndarray):
        """(MLP gradients, group (r,), candidate (r,), MLP input gradient
        (r, width)) of the r kept rows."""
        grad_pooled = np.asarray(grad_pooled, dtype=float)
        channels = np.arange(grad_pooled.shape[1])
        rows = []
        for members, win, group, cand, dtape in self.blocks:
            gy = np.zeros((len(group), len(channels)))
            gy[win, channels] = grad_pooled[members]
            grads, ginp = dtape.backward(gy)
            mlp_grads = mlp_grads.add_(grads) if rows else grads
            rows.append((group, cand, ginp))
        return mlp_grads, *(np.concatenate(x) for x in zip(*rows))


def _group_pool(mlp: DenseParams, order: np.ndarray, valid: np.ndarray, rows_of,
                capture: bool):
    """Each group's shared-MLP outputs over its candidates, max-pooled.

    order and valid are (g, cap) candidate indices and the mask of the slots
    that hold one, each row's valid slots first and at least one of them,
    as ``geom.ball_query`` returns them.  rows_of(group, cand) returns the
    MLP input rows of those (group, candidate) pairs.  Returns (pooled
    (g, c_out), _GroupTape or None).
    """
    count = np.count_nonzero(valid, axis=1)
    by_size = np.argsort(-count, kind="stable")
    pooled = np.empty((len(count), mlp.out_width))
    blocks = []
    for b in _blocks(count[by_size]):
        members = by_size[b]
        size = count[members]
        # Slot-major rows; members run largest first, so the groups holding
        # slot s are a prefix of them and slot s is rows start[s]:start[s+1].
        held = size > np.arange(size[0])[:, None]
        group = np.broadcast_to(members, held.shape)[held]
        cand = order[members, :size[0]].T[held]
        start = np.concatenate(([0], np.cumsum(held.sum(axis=1))))
        out, dtape = dense_apply(mlp, rows_of(group, cand), capture=capture)
        pooled[members], win = _max_pool(out, start, capture)
        if capture:
            # Keep the layer inputs of the rows that win some channel, the
            # only rows the backward pass reads.
            win = start[win] + np.arange(len(members))[:, None]
            won = np.zeros(len(out), dtype=bool)
            won[win] = True
            rows = np.flatnonzero(won)
            blocks.append((members, (np.cumsum(won) - 1)[win], group[rows], cand[rows],
                           DenseTape(mlp, [x[rows] for x in dtape.inputs])))
    return pooled, _GroupTape(blocks) if capture else None


class SaTape:
    def __init__(self, valid, group_tape, n_points):
        self.valid = valid              # (m, cap) in-radius mask
        self.group_tape = group_tape
        self.n_points = n_points

    def backward(self, grad_pooled: np.ndarray) -> tuple[DenseGrads, np.ndarray]:
        mlp_grads, _, cand, ginp = self.group_tape.backward(grad_pooled)
        return mlp_grads, _scatter_add(cand, ginp[:, 3:], self.n_points)


def sample_centroids(clouds, counts, starts) -> list[np.ndarray]:
    """Set-abstraction centroid indices of several clouds of one level.

    clouds are (n_i, 3) point arrays; cloud i gets counts[i] farthest-point
    samples from starts[i].  ``farthest_point_sample`` takes one count per
    call, so the clouds of each distinct count are sampled in lock-step by
    one call, and each result is that of sampling its cloud alone.
    """
    clouds = [PointCloud(points) for points in clouds]
    counts = list(counts)
    out: list = [None] * len(clouds)
    for m in dict.fromkeys(counts):
        which = [i for i, count in enumerate(counts) if count == m]
        picks = farthest_point_sample([clouds[i] for i in which], m,
                                      [starts[i] for i in which])
        for i, idx in zip(which, picks):
            out[i] = idx
    return out


class SaSelection(NamedTuple):
    """The groups of one set-abstraction level: centroid indices (m,) into
    the level's input points, and each centroid's candidates as
    ``geom.ball_query`` returns them, (m, cap) point indices and the mask of
    the slots that hold one."""

    centroids: np.ndarray
    order: np.ndarray
    valid: np.ndarray

    def rows(self, which) -> "SaSelection":
        """The groups of the centroids that which indexes, in its order."""
        return SaSelection(self.centroids[which], self.order[which], self.valid[which])

    def read(self, n: int) -> np.ndarray:
        """Ascending indices of the input points that some group holds: the
        only rows of an (n, c) input whose values reach the layer's output."""
        held = np.zeros(n, dtype=bool)
        held[self.order[self.valid]] = True
        return np.flatnonzero(held)


def select_groups(points, centroid_index, radius: float, cap: int) -> SaSelection:
    """Each centroid's min(cap, n) nearest points within radius, nearest
    first and equal distances to the lower index (``geom.ball_query``).  A
    centroid is within its own radius, so its slot 0 always holds a point."""
    points = _rows("points", points, 3)
    idx = _vector("centroid_index", centroid_index, int)
    order, valid = ball_query(points[idx], points, radius, min(cap, len(points)))
    return SaSelection(idx, order, valid)


def _check_selection(spec: SaLayerSpec, selection, n: int) -> SaSelection:
    """selection as an SaSelection of spec.sample_count distinct centroids
    over n points, in the layout ``_group_pool`` reads; raises ValueError
    otherwise."""
    if not isinstance(selection, SaSelection):
        raise ValueError(f"expected an SaSelection, got {type(selection).__name__}")
    idx, order, valid = (np.asarray(x) for x in selection)
    m = spec.sample_count
    if idx.dtype.kind not in "iu":
        raise ValueError(f"centroid indices must be integers, got dtype {idx.dtype}")
    if idx.shape != (m,):
        raise ValueError(f"expected {m} centroid indices, got shape {idx.shape}")
    if not np.all((idx >= 0) & (idx < n)):
        raise ValueError(f"centroid indices must lie in [0, {n})")
    if np.unique(idx).size != idx.size:
        raise ValueError("centroid indices must be distinct")
    width = order.shape[-1] if order.ndim == 2 else 0
    if width < 1 or order.shape != (m, width) or valid.shape != (m, width):
        raise ValueError(f"expected ({m}, w) candidate order and mask with w >= 1, got "
                         f"{order.shape} and {valid.shape}")
    if order.dtype.kind not in "iu":
        raise ValueError(f"candidate indices must be integers, got dtype {order.dtype}")
    if not np.all((order >= 0) & (order < n)):
        raise ValueError(f"candidate indices must lie in [0, {n})")
    if valid.dtype != bool:
        raise ValueError(f"the candidate mask must be boolean, got dtype {valid.dtype}")
    if not valid[:, 0].all():
        raise ValueError("every group must hold a candidate in slot 0")
    if (valid[:, 1:] & ~valid[:, :-1]).any():
        raise ValueError("each group's valid slots must come first")
    return SaSelection(idx, order, valid)


def sa_layer(spec: SaLayerSpec, points: np.ndarray, feats: np.ndarray,
             selection, capture: bool = False):
    """Group and pool points around spec.sample_count planned centroids.

    selection is the ``SaSelection`` of the centroids' groups, as
    ``select_groups`` plans it, or some of its rows: distinct centroid
    indices among the points, and each centroid's candidates and mask, of
    one width of at least 1 (the neighbour cap), valid slots first and slot
    0 valid.  The layer selects no neighbours itself.
    Per grouped neighbour the MLP input row is the (neighbour - centroid)
    coordinates concatenated with the neighbour feature; the MLP runs on
    the valid rows only, and pooling is their element-wise max.

    Returns (centroid points (m,3), pooled features (m,c_out), tape or None).
    """
    points = _rows("points", points, 3)
    feats = _rows("feats", feats)
    n = points.shape[0]
    if feats.shape[0] != n:
        raise ValueError("points and feats must have matching first dimension")
    if spec.sample_count > n:
        raise ValueError(f"sample_count {spec.sample_count} exceeds point count {n}")
    if spec.mlp.in_width != 3 + feats.shape[1]:
        raise ValueError(f"MLP expects width {spec.mlp.in_width}, "
                         f"inputs provide {3 + feats.shape[1]}")
    idx, order, valid = _check_selection(spec, selection, n)

    centroids = points[idx]

    def rows_of(group: np.ndarray, cand: np.ndarray) -> np.ndarray:
        return np.concatenate([points[cand] - centroids[group], feats[cand]], axis=1)

    pooled, group_tape = _group_pool(spec.mlp, order, valid, rows_of, capture)
    return centroids, pooled, SaTape(valid, group_tape, n) if capture else None


class FpTape:
    def __init__(self, order, weights, source_feats, skip_feats, w0, dense_tape):
        self.order = order              # (t, kk) source indices
        self.weights = weights          # (t, kk) normalized interpolation weights
        self.source_feats = source_feats
        self.skip_feats = skip_feats    # None when no skip features were given
        self.w0 = w0                    # first layer's weights
        self.dense_tape = dense_tape    # later layers over the first's ReLU output, or None

    def backward(self, grad_out: np.ndarray):
        g = np.asarray(grad_out, dtype=float)
        grads_w, grads_b = [], []
        if self.dense_tape is not None:
            later, g = self.dense_tape.backward(g)
            np.multiply(g, self.dense_tape.inputs[0] > 0.0, out=g)
            grads_w, grads_b = later.weights, later.biases
        # g is now the gradient of the first layer's pre-activation.  Its
        # source part was interpolated after the GEMM, so g goes back to the
        # sources first and the GEMM's gradients are taken there.
        n_s, c_s = self.source_feats.shape
        g_src = _interp_transpose(self.order, self.weights, g, n_s)
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
    the later layers run on the targets, in even chunks of at most
    ``_BLOCK_ROWS`` (target, neighbour) pairs and at least ``_GEMM_ROWS``
    targets (or all of them, when there are fewer), so that every chunk
    GEMM computes its rows' bits as one whole GEMM would.  With capture the
    chunks write the input of each later layer into whole arrays for the
    tape.

    Returns (target features (t,c_out), tape or None).
    """
    target_points = _rows("target_points", target_points, 3)
    source_points = _rows("source_points", source_points, 3)
    source_feats = _rows("source_feats", source_feats)
    n_s = source_points.shape[0]
    if n_s < 1:
        raise ValueError("need at least one source point")
    if source_feats.shape[0] != n_s:
        raise ValueError("source points and features must align")
    c_s = source_feats.shape[1]
    width = c_s
    if skip_feats is not None:
        skip_feats = _rows("skip_feats", skip_feats)
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
    later = DenseParams(mlp.weights[1:], mlp.biases[1:]) if len(mlp.weights) > 1 else None
    n_t = len(target_points)
    out = np.empty((n_t, mlp.out_width))
    # With capture, the input of each later layer, whole, for the tape.
    inputs = [np.empty((n_t, x.shape[0])) for x in mlp.weights[1:]] if capture else []
    count = max(1, min(-(-n_t * kk // _BLOCK_ROWS), n_t // _GEMM_ROWS))
    cuts = (np.arange(count + 1) * n_t // count).tolist()
    for t in map(slice, cuts[:-1], cuts[1:]):
        z = np.einsum("tk,tkc->tc", w[t], proj[order[t]])
        if skip_feats is not None:
            z += skip_feats[t] @ w0[c_s:]
        z += mlp.biases[0]
        if later is None:
            out[t] = z
            continue
        np.fmax(z, 0.0, out=z)      # dense_apply's ReLU
        out[t], dtape = dense_apply(later, z, capture=capture)
        if capture:
            for whole, part in zip(inputs, dtape.inputs):
                whole[t] = part
    if not capture:
        return out, None
    dtape = DenseTape(later, inputs) if later else None
    return out, FpTape(order, w, source_feats, skip_feats, w0, dtape)


class AssociationTape:
    def __init__(self, group_tape, feats_a, feats_b, dots, norm_a, norm_b):
        self.group_tape = group_tape
        self.feats_a = feats_a          # (na, c)
        self.feats_b = feats_b          # (nb, c)
        self.dots = dots                # (na, nb) F_a @ F_b.T
        self.norm_a = norm_a            # (na,) feature norms
        self.norm_b = norm_b            # (nb,)

    def backward(self, grad_emb: np.ndarray):
        mlp_grads, a, b, ginp = self.group_tape.backward(grad_emb)
        fa, fb = self.feats_a, self.feats_b
        norm_a, norm_b = self.norm_a, self.norm_b
        na, nb = len(fa), len(fb)
        # Pair (i, j)'s input gradient is a weight w_ij on f_b[j] for f_a[i]
        # and on f_a[i] for f_b[j], so both sums are GEMMs against the (na, nb)
        # matrix of those weights (no pair repeats).  The derivative of the
        # norms adds a multiple of each point's own feature.
        pair_a, pair_b = norm_a[a], norm_b[b]
        denom = pair_a * pair_b + _COSINE_EPS
        # A pair with a zero feature reads cosine 0 whatever the other feature
        # is, and passes no gradient (not f / eps).
        w = np.where((pair_a > 0.0) & (pair_b > 0.0), ginp[:, 0] / denom, 0.0)
        t = w * self.dots[a, b] / denom
        c_a = np.bincount(a, weights=t * pair_b, minlength=na)
        c_b = np.bincount(b, weights=t * pair_a, minlength=nb)
        np.divide(c_a, norm_a, out=c_a, where=norm_a > 0.0)
        np.divide(c_b, norm_b, out=c_b, where=norm_b > 0.0)
        weights = np.zeros((na, nb))
        weights[a, b] = w
        grad_fa = weights @ fb
        grad_fb = weights.T @ fa
        grad_fa -= c_a[:, None] * fa
        grad_fb -= c_b[:, None] * fb
        return mlp_grads, grad_fa, grad_fb


def association_head(spec: AssociationSpec, points_a: np.ndarray, feats_a: np.ndarray,
                     points_b: np.ndarray, feats_b: np.ndarray, capture: bool = False):
    """Embed every frame-A point against its k nearest frame-B neighbours.

    Per neighbour j the MLP input row is the cosine similarity
    f_a . f_b_j / (|f_a| |f_b_j| + 1e-10) followed by the displacement
    p_b_j - p_a.  The embedded feature is the element-wise max over the k
    neighbour outputs.

    Returns (embedded features (na, c_out), tape or None).
    """
    points_a, points_b = _rows("points_a", points_a, 3), _rows("points_b", points_b, 3)
    feats_a, feats_b = _rows("feats_a", feats_a), _rows("feats_b", feats_b)
    if feats_a.shape[1] != feats_b.shape[1]:
        raise ValueError("frame feature widths must match")
    if feats_a.shape[0] != points_a.shape[0] or feats_b.shape[0] != points_b.shape[0]:
        raise ValueError("points and features must align")
    if spec.mlp.in_width != 4:
        raise ValueError(f"MLP expects width {spec.mlp.in_width}, the head provides 4")

    order, _ = nearest(points_a, points_b, spec.k)
    dots = feats_a @ feats_b.T
    norm_a = np.linalg.norm(feats_a, axis=1)
    norm_b = np.linalg.norm(feats_b, axis=1)

    def rows_of(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cosine = dots[a, b] / (norm_a[a] * norm_b[b] + _COSINE_EPS)
        return np.concatenate([cosine[:, None], points_b[b] - points_a[a]], axis=1)

    embedded, group_tape = _group_pool(spec.mlp, order, np.ones(order.shape, dtype=bool),
                                       rows_of, capture)
    if not capture:
        return embedded, None
    return embedded, AssociationTape(group_tape, feats_a, feats_b, dots, norm_a, norm_b)
