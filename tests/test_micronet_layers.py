import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disptrack.micronet import (
    AssociationSpec,
    DenseParams,
    SaLayerSpec,
    SaSelection,
    association_head,
    dense_apply,
    fp_layer,
    sa_layer,
    sample_centroids,
    select_groups,
)
from disptrack.geom import nearest
from disptrack.micronet import layers as layers_module
from gradcheck import gradient_check


#: The neighbour cap of the layer tests' selections.
CAP = 8


def make_sa_spec(rng, feat_width, sample_count=4, widths=(6, 5)):
    mlp = DenseParams.create([3 + feat_width, *widths], rng)
    return SaLayerSpec(sample_count, mlp)


def planned(spec, points, start, radius, cap=CAP):
    """The groups of spec.sample_count farthest-point centroids of points
    from start, selected within radius and cap, as a plan makes them."""
    [idx] = sample_centroids([points], [spec.sample_count], [start])
    return select_groups(points, idx, radius, cap)


# ---------------------------------------------------------------------------
# neighbour selection
# ---------------------------------------------------------------------------

def test_nearest_orders_by_distance_then_lower_index():
    points = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 0.5], [2, 0, 0]])
    order, dist = nearest(np.array([[0.0, 0, 0], [2, 0, 0]]), points, 5)
    assert order.tolist() == [[3, 0, 1, 2, 4], [4, 0, 3, 2, 1]]
    assert dist[0].tolist() == [0.5, 1.0, 1.0, 1.0, 2.0]
    assert dist[1, 0] == 0.0


def test_nearest_matches_lexsort_reference_on_tied_grid():
    rng = np.random.default_rng(7)
    points = rng.integers(-2, 3, size=(40, 3)).astype(float)  # many equal distances
    query = rng.integers(-2, 3, size=(12, 3)).astype(float)
    order, dist = nearest(query, points, 9)
    for row, q in enumerate(query):
        d = np.sqrt(((points - q) ** 2).sum(axis=1))
        ref = np.lexsort((np.arange(len(points)), d))[:9]
        assert order[row].tolist() == ref.tolist()
        assert dist[row].tolist() == d[ref].tolist()


# ---------------------------------------------------------------------------
# set abstraction
# ---------------------------------------------------------------------------

def test_sa_spec_rejects_bad_hyperparameters():
    mlp = DenseParams.create([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError, match="sample_count must be at least 1"):
        SaLayerSpec(0, mlp)


def test_sa_single_point_uses_itself():
    rng = np.random.default_rng(0)
    spec = make_sa_spec(rng, feat_width=2, sample_count=1)
    pts = np.array([[1.0, 2.0, 3.0]])
    feats = np.array([[0.5, -0.25]])
    sampled, pooled, _ = sa_layer(spec, pts, feats, planned(spec, pts, 0, 1.5))
    assert np.array_equal(sampled, pts)
    expect, _ = dense_apply(spec.mlp, np.array([[0.0, 0.0, 0.0, 0.5, -0.25]]))
    assert np.allclose(pooled, expect)


def test_sa_identical_points_get_identical_features():
    rng = np.random.default_rng(1)
    spec = make_sa_spec(rng, feat_width=1, sample_count=2)
    pts = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    feats = np.array([[0.3], [0.3]])
    _, pooled, _ = sa_layer(spec, pts, feats, planned(spec, pts, 0, 1.5))
    assert np.array_equal(pooled[0], pooled[1])


def test_sa_isolated_centroid_falls_back_to_itself():
    rng = np.random.default_rng(2)
    spec = make_sa_spec(rng, feat_width=1, sample_count=2)
    pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
    feats = np.array([[1.0], [2.0]])
    sampled, pooled, tape = sa_layer(spec, pts, feats, planned(spec, pts, 0, 0.5),
                                     capture=True)
    # each centroid's only in-radius neighbour is itself
    assert np.count_nonzero(tape.valid[0]) == 1
    expect0, _ = dense_apply(spec.mlp, np.array([[0.0, 0.0, 0.0, 1.0]]))
    assert np.allclose(pooled[[0] if sampled[0, 0] == 0 else [1]], expect0)


def test_sa_neighbor_order_permutation_invariant():
    rng = np.random.default_rng(3)
    spec = make_sa_spec(rng, feat_width=2, sample_count=1)
    pts = rng.normal(size=(12, 3))
    feats = rng.normal(size=(12, 2))
    _, pooled_a, _ = sa_layer(spec, pts, feats, planned(spec, pts, 0, 10.0))
    perm = rng.permutation(12)
    inv_start = int(np.where(perm == 0)[0][0])
    _, pooled_b, _ = sa_layer(spec, pts[perm], feats[perm],
                              planned(spec, pts[perm], inv_start, 10.0))
    assert np.max(np.abs(pooled_a - pooled_b)) < 1e-12


def test_sa_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    spec = make_sa_spec(rng, feat_width=2, sample_count=4)
    pts = rng.uniform(-1.5, 1.5, size=(10, 3))
    feats = rng.normal(size=(10, 2))
    target = rng.normal(size=(4, 5))

    def pack(p):
        return {f"w{i}": w for i, w in enumerate(p.weights)} | \
               {f"b{i}": b for i, b in enumerate(p.biases)}

    def loss_fn(d):
        mlp = DenseParams([d["w0"], d["w1"]], [d["b0"], d["b1"]])
        s = SaLayerSpec(spec.sample_count, mlp)
        _, pooled, tape = sa_layer(s, pts, feats, planned(s, pts, 1, 2.0), capture=True)
        err = pooled - target
        grads, _ = tape.backward(2.0 * err)
        return float((err ** 2).sum()), pack(grads)

    assert gradient_check(loss_fn, pack(spec.mlp), probe_count=50, epsilon=1e-5) < 1e-4


def test_sa_input_feature_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = make_sa_spec(rng, feat_width=2, sample_count=3)
    pts = rng.uniform(-1, 1, size=(8, 3))
    feats0 = rng.normal(size=(8, 2))
    selection = planned(spec, pts, 0, 2.5)

    def loss_of(feats):
        _, pooled, tape = sa_layer(spec, pts, feats, selection, capture=True)
        return float((pooled ** 2).sum()), tape

    _, tape = loss_of(feats0)
    _, pooled, _ = sa_layer(spec, pts, feats0, selection)
    _, grad_feats = tape.backward(2.0 * pooled)
    eps = 1e-6
    for idx in [(0, 0), (3, 1), (7, 0)]:
        fp_, fm = feats0.copy(), feats0.copy()
        fp_[idx] += eps
        fm[idx] -= eps
        numeric = (loss_of(fp_)[0] - loss_of(fm)[0]) / (2 * eps)
        assert abs(grad_feats[idx] - numeric) < 1e-5 * max(1.0, abs(numeric))


def padded_sa_reference(spec, radius, points, feats, start_index, grad_pooled):
    """The all-slot set abstraction: the cap nearest points, the MLP on every
    slot, a max over the ones within radius.  Returns (centroids, pooled,
    feature gradient for grad_pooled, the candidate holding each max)."""
    centroids = points[planned(spec, points, start_index, radius).centroids]
    order, dist = nearest(centroids, points, min(CAP, len(points)))
    valid = dist <= radius
    group_in = np.concatenate([points[order] - centroids[:, None, :], feats[order]], axis=2)
    out, tape = dense_apply(spec.mlp, group_in.reshape(-1, group_in.shape[2]), capture=True)
    masked = np.where(valid[:, :, None], out.reshape(*valid.shape, -1), -np.inf)
    argmax = masked.argmax(axis=1)
    pooled = np.take_along_axis(masked, argmax[:, None, :], axis=1)[:, 0, :]
    gy = np.zeros_like(masked)
    np.put_along_axis(gy, argmax[:, None, :], grad_pooled[:, None, :], axis=1)
    _, ginp = tape.backward(gy.reshape(-1, gy.shape[2]))
    grad_feats = np.zeros_like(feats)
    np.add.at(grad_feats, order, ginp.reshape(*valid.shape, -1)[:, :, 3:])
    return centroids, pooled, grad_feats, np.take_along_axis(order, argmax, axis=1)


@pytest.mark.parametrize("radius", [0.5, 0.75, 5.0])
def test_sa_matches_padded_nearest_reference(radius):
    rng = np.random.default_rng(8)
    # A quarter-step grid: duplicate points, equal distances, points exactly
    # at the radius; at radius 5 every point is in range and the cap decides.
    pts = rng.integers(-3, 4, size=(60, 3)) * 0.25
    feats = rng.normal(size=(60, 2))
    spec = make_sa_spec(rng, feat_width=2, sample_count=12)
    grad = rng.normal(size=(12, 5))
    centroids, pooled, tape = sa_layer(spec, pts, feats, planned(spec, pts, 3, radius),
                                       capture=True)
    _, grad_feats = tape.backward(grad)
    ref_centroids, ref_pooled, ref_grad, _ = padded_sa_reference(spec, radius, pts, feats,
                                                                 3, grad)
    assert np.array_equal(centroids, ref_centroids)
    np.testing.assert_allclose(pooled, ref_pooled, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grad_feats, ref_grad, rtol=1e-12, atol=0)


def kernel_winners(group_tape, n_groups: int, width: int) -> np.ndarray:
    """The candidate holding each pooled max, (g, c), read off a
    ``_group_pool`` tape."""
    won = np.empty((n_groups, width), dtype=np.intp)
    for members, win, _, cand, _ in group_tape.blocks:
        won[members] = cand[win]
    return won


def test_sa_max_pool_ties_send_the_gradient_to_the_lowest_slot():
    rng = np.random.default_rng(9)
    # Every point twice, same feature: each group holds pairs of equal MLP
    # rows, and the copy with the higher index sorts to the later slot.
    pts = np.tile(rng.integers(-2, 3, size=(20, 3)) * 0.5, (2, 1))
    feats = np.tile(rng.normal(size=(20, 2)), (2, 1))
    spec = make_sa_spec(rng, feat_width=2, sample_count=6)
    grad = rng.normal(size=(6, 5))
    _, pooled, tape = sa_layer(spec, pts, feats, planned(spec, pts, 0, 1.0), capture=True)
    _, grad_feats = tape.backward(grad)
    _, ref_pooled, ref_grad, ref_won = padded_sa_reference(spec, 1.0, pts, feats, 0, grad)
    assert np.array_equal(pooled, ref_pooled)
    assert np.array_equal(grad_feats, ref_grad)
    assert np.array_equal(kernel_winners(tape.group_tape, 6, 5), ref_won)
    assert not grad_feats[20:].any() and grad_feats[:20].any()

    # A NaN column from an inf feature (a one-layer MLP passes inf - inf on),
    # which reaches some group at a later slot than its first: the max and
    # its gradient go to the lowest NaN slot.
    spec = make_sa_spec(rng, feat_width=2, sample_count=6, widths=(5,))
    feats = feats.copy()
    feats[33] = [np.inf, np.inf]
    selection = planned(spec, pts, 0, 1.0)
    with np.errstate(invalid="ignore"):
        centroids, pooled, tape = sa_layer(spec, pts, feats, selection, capture=True)
        _, plain, _ = sa_layer(spec, pts, feats, selection)
        _, ref_pooled, _, ref_won = padded_sa_reference(spec, 1.0, pts, feats, 0, grad)
        tape.backward(grad)
    assert np.array_equal(plain, pooled, equal_nan=True)
    np.testing.assert_allclose(pooled, ref_pooled, rtol=1e-12, atol=0)
    won = kernel_winners(tape.group_tape, 6, 5)
    assert np.array_equal(won, ref_won)
    nan = np.isnan(pooled)
    assert nan[:, 1:].any() and (won[nan] == 33).all()
    first = nearest(centroids, pts, 1)[0][:, 0]
    assert (first[nan.any(axis=1)] != 33).any()     # 33 is not every such group's slot 0


def test_sa_rejects_oversampling():
    rng = np.random.default_rng(6)
    spec = make_sa_spec(rng, feat_width=0, sample_count=5)
    selection = SaSelection(np.arange(5), np.zeros((5, 3), dtype=int),
                            np.ones((5, 3), dtype=bool))
    with pytest.raises(ValueError, match="sample_count 5 exceeds point count 3"):
        sa_layer(spec, np.zeros((3, 3)), np.zeros((3, 0)), selection)


def bad_selection_case(seed: int = 10):
    """(spec, points, feats, the planned selection of centroids 0, 3 and 5)."""
    rng = np.random.default_rng(seed)
    spec = make_sa_spec(rng, feat_width=1, sample_count=3)
    pts, feats = rng.normal(size=(8, 3)), rng.normal(size=(8, 1))
    return spec, pts, feats, select_groups(pts, np.array([0, 3, 5]), 1.5, 4)


@pytest.mark.parametrize("centroids, message", [
    (np.array([0, 3]), r"expected 3 centroid indices, got shape \(2,\)"),
    (np.array([0, 3, 5, 7]), r"expected 3 centroid indices, got shape \(4,\)"),
    (np.array([[0, 3, 5]]), r"expected 3 centroid indices, got shape \(1, 3\)"),
    (np.array([0, 3, 8]), r"centroid indices must lie in \[0, 8\)"),
    (np.array([-1, 3, 5]), r"centroid indices must lie in \[0, 8\)"),
    (np.array([0, 3, 3]), "centroid indices must be distinct"),
    (np.array([0.0, 3.0, 5.0]), "centroid indices must be integers"),
    (np.array([True, False, True]), "centroid indices must be integers"),
])
def test_sa_rejects_bad_centroid_indices(centroids, message):
    # The layer takes its centroids from outside; a wrong set must not pool
    # a silently different (or repeated) group.
    spec, pts, feats, good = bad_selection_case()
    with pytest.raises(ValueError, match=message):
        sa_layer(spec, pts, feats, good._replace(centroids=centroids))
    sa_layer(spec, pts, feats, good)


def edited(array, index, value):
    """A copy of array with array[index] = value."""
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize("change, message", [
    # The rows of a selection must be the spec's sample count.
    (lambda s: s.rows([0, 1]), r"expected 3 centroid indices, got shape \(2,\)"),
    (lambda s: s._replace(order=s.order[:2], valid=s.valid[:2]),
     r"expected \(3, w\) candidate order and mask with w >= 1, got \(2, 4\) and \(2, 4\)"),
    (lambda s: s._replace(order=s.order[:, :0], valid=s.valid[:, :0]),
     r"expected \(3, w\) candidate order and mask with w >= 1, got \(3, 0\) and \(3, 0\)"),
    (lambda s: s._replace(valid=s.valid[:, :3]),
     r"expected \(3, w\) candidate order and mask with w >= 1, got \(3, 4\) and \(3, 3\)"),
    (lambda s: s._replace(valid=s.valid[:, :, None]),
     r"expected \(3, w\) candidate order and mask with w >= 1, got \(3, 4\) and \(3, 4, 1\)"),
    # Candidates must be integer indices of the points.
    (lambda s: s._replace(order=s.order.astype(float)), "candidate indices must be integers"),
    (lambda s: s._replace(order=s.order.astype(bool)), "candidate indices must be integers"),
    (lambda s: s._replace(order=edited(s.order, (0, 0), 8)),
     r"candidate indices must lie in \[0, 8\)"),
    (lambda s: s._replace(order=s.order - 1), r"candidate indices must lie in \[0, 8\)"),
    # The mask must be boolean, slot 0 valid, valid slots first.
    (lambda s: s._replace(valid=s.valid.astype(int)), "candidate mask must be boolean"),
    (lambda s: s._replace(valid=edited(s.valid, (2, 0), False)),
     "every group must hold a candidate in slot 0"),
    (lambda s: s._replace(valid=edited(np.ones_like(s.valid), (1, 1), False)),
     "valid slots must come first"),
    # Centroids must be distinct.
    (lambda s: s.rows([0, 1, 1]), "centroid indices must be distinct"),
    # Bare centroid indices are no selection.
    (lambda s: s.centroids, "expected an SaSelection, got ndarray"),
    (lambda s: tuple(s), "expected an SaSelection, got tuple"),
], ids=["rows", "order rows", "order width", "mask width", "mask shape", "float order", "bool order",
        "order above", "order below", "int mask", "empty slot 0", "hole", "duplicate",
        "bare indices", "plain tuple"])
def test_sa_rejects_a_bad_selection(change, message):
    # Every group's rows come from the plan; a malformed selection must raise
    # rather than pool a silently different group.
    spec, pts, feats, good = bad_selection_case()
    with pytest.raises(ValueError, match=message):
        sa_layer(spec, pts, feats, change(good))


def test_sa_runs_any_rows_of_a_selection_as_the_whole():
    # A forward pass that needs only some groups runs just their rows of the
    # planned selection; each such group pools what the whole layer pools.
    rng = np.random.default_rng(12)
    spec = make_sa_spec(rng, feat_width=2, sample_count=10)
    pts = rng.integers(-3, 4, size=(50, 3)) * 0.25
    feats = rng.normal(size=(50, 2))
    whole = planned(spec, pts, 0, 0.75, cap=6)
    centroids, pooled, _ = sa_layer(spec, pts, feats, whole)
    for rows in ([3], [7, 0, 4], np.arange(10)[::-1]):
        part = whole.rows(rows)
        sub = SaLayerSpec(len(rows), spec.mlp)
        got_centroids, got, _ = sa_layer(sub, pts, feats, part)
        assert got_centroids.tobytes() == centroids[rows].tobytes()
        assert got.tobytes() == pooled[rows].tobytes()
    # The input rows the groups read, and only those, reach the output.
    read = whole.read(len(pts))
    assert read.tolist() == np.unique(whole.order[whole.valid]).tolist()
    poisoned = np.full_like(feats, np.nan)
    poisoned[read] = feats[read]
    assert sa_layer(spec, pts, poisoned, whole)[1].tobytes() == pooled.tobytes()


def test_sample_centroids_runs_one_lock_step_call_per_distinct_count(monkeypatch):
    rng = np.random.default_rng(11)
    clouds = [rng.normal(size=(n, 3)) for n in (40, 9, 40, 25, 9)]
    counts, starts = [16, 9, 16, 16, 4], [3, 0, 39, 24, 8]
    alone = [sample_centroids([c], [m], [s])[0] for c, m, s in zip(clouds, counts, starts)]
    calls = []
    real = layers_module.farthest_point_sample

    def recording(cloud_list, m, start_list):
        calls.append((len(cloud_list), m))
        return real(cloud_list, m, start_list)
    monkeypatch.setattr(layers_module, "farthest_point_sample", recording)
    picks = sample_centroids(clouds, counts, starts)
    # Counts stay Python ints: a tracer multiplies them by the cloud count.
    assert calls == [(3, 16), (1, 9), (1, 4)]
    assert all(type(m) is int for _, m in calls)
    for idx, ref in zip(picks, alone):
        assert idx.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# feature propagation
# ---------------------------------------------------------------------------

def test_fp_coincident_target_copies_source_feature():
    rng = np.random.default_rng(7)
    mlp = DenseParams([np.eye(3)], [np.zeros(3)])
    src_pts = rng.uniform(-2, 2, size=(5, 3))
    src_feats = rng.normal(size=(5, 3))
    out, _ = fp_layer(src_pts[[2]], src_pts, src_feats, None, mlp)
    assert np.allclose(out[0], src_feats[2], atol=1e-6)


def test_fp_constant_features_are_preserved():
    rng = np.random.default_rng(8)
    mlp = DenseParams([np.eye(2)], [np.zeros(2)])
    src_pts = rng.uniform(-2, 2, size=(6, 3))
    v = np.array([0.7, -1.3])
    out, _ = fp_layer(rng.uniform(-2, 2, size=(4, 3)), src_pts,
                      np.tile(v, (6, 1)), None, mlp)
    assert np.allclose(out, np.tile(v, (4, 1)))


def test_fp_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    mlp = DenseParams.create([5, 6, 4], rng)  # 3 source dims + 2 skip dims
    tgt = rng.uniform(-1, 1, size=(7, 3))
    src = rng.uniform(-1, 1, size=(5, 3))
    src_feats = rng.normal(size=(5, 3))
    skip = rng.normal(size=(7, 2))
    target = rng.normal(size=(7, 4))

    def pack(p):
        return {f"w{i}": w for i, w in enumerate(p.weights)} | \
               {f"b{i}": b for i, b in enumerate(p.biases)}

    def loss_fn(d):
        m = DenseParams([d["w0"], d["w1"]], [d["b0"], d["b1"]])
        out, tape = fp_layer(tgt, src, src_feats, skip, m, capture=True)
        err = out - target
        grads, _, _ = tape.backward(2.0 * err)
        return float((err ** 2).sum()), pack(grads)

    assert gradient_check(loss_fn, pack(mlp), probe_count=50, epsilon=1e-5) < 1e-4


def test_fp_source_and_skip_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    mlp = DenseParams.create([4, 3], rng)
    tgt = rng.uniform(-1, 1, size=(6, 3))
    src = rng.uniform(-1, 1, size=(4, 3))
    src_feats0 = rng.normal(size=(4, 2))
    skip0 = rng.normal(size=(6, 2))

    def loss_of(src_feats, skip):
        out, tape = fp_layer(tgt, src, src_feats, skip, mlp, capture=True)
        return float((out ** 2).sum()), out, tape

    loss0, out0, tape = loss_of(src_feats0, skip0)
    _, grad_src, grad_skip = tape.backward(2.0 * out0)
    eps = 1e-6
    for idx in [(0, 0), (3, 1)]:
        fp_, fm = src_feats0.copy(), src_feats0.copy()
        fp_[idx] += eps
        fm[idx] -= eps
        numeric = (loss_of(fp_, skip0)[0] - loss_of(fm, skip0)[0]) / (2 * eps)
        assert abs(grad_src[idx] - numeric) < 1e-5 * max(1.0, abs(numeric))
        sp, sm = skip0.copy(), skip0.copy()
        sp[idx] += eps
        sm[idx] -= eps
        numeric = (loss_of(src_feats0, sp)[0] - loss_of(src_feats0, sm)[0]) / (2 * eps)
        assert abs(grad_skip[idx] - numeric) < 1e-5 * max(1.0, abs(numeric))


def gathered_fp_reference(target_points, source_points, source_feats, skip_feats, mlp,
                          grad_out):
    """Feature propagation with the whole MLP on the targets: interpolate the
    source features, concatenate the skip features, run the MLP.  Returns
    (output, MLP gradients, source gradient, skip gradient) for grad_out."""
    order, near = nearest(target_points, source_points, min(3, len(source_points)))
    w = 1.0 / (near + 1e-10)
    w = w / w.sum(axis=1, keepdims=True)
    interp = np.einsum("tk,tkc->tc", w, source_feats[order])
    x = interp if skip_feats is None else np.concatenate([interp, skip_feats], axis=1)
    out, tape = dense_apply(mlp, x, capture=True)
    mlp_grads, gx = tape.backward(grad_out)
    c = source_feats.shape[1]
    grad_source = np.zeros_like(source_feats)
    np.add.at(grad_source, order, gx[:, None, :c] * w[:, :, None])
    grad_skip = None if skip_feats is None else gx[:, c:]
    return out, mlp_grads, grad_source, grad_skip


@pytest.mark.parametrize("n_source, skip_width, widths", [
    (7, 2, (6, 4)),
    (7, None, (6, 4)),
    (7, 2, (4,)),          # one linear layer
    (7, None, (5, 6, 4)),
    (2, 2, (6, 4)),        # fewer sources than interpolation neighbours
    (1, None, (6, 4)),
])
def test_fp_matches_gathered_reference(n_source, skip_width, widths):
    # The layer applies its first GEMM before interpolating, which reorders
    # sums: each array must agree to 1e-12 of its largest magnitude.
    rng = np.random.default_rng(19)
    src = rng.uniform(-1, 1, size=(n_source, 3))
    tgt = np.concatenate([src[:1], rng.uniform(-1, 1, size=(8, 3))])  # target 0 on a source
    src_feats = rng.normal(size=(n_source, 3))
    skip = None if skip_width is None else rng.normal(size=(9, skip_width))
    mlp = DenseParams.create([3 + (skip_width or 0), *widths], rng)
    grad = rng.normal(size=(9, widths[-1]))

    out, tape = fp_layer(tgt, src, src_feats, skip, mlp, capture=True)
    plain, _ = fp_layer(tgt, src, src_feats, skip, mlp)
    assert np.array_equal(plain, out)
    mlp_grads, grad_src, grad_skip = tape.backward(grad)
    ref_out, ref_mlp, ref_src, ref_skip = gathered_fp_reference(tgt, src, src_feats, skip,
                                                                mlp, grad)
    got = [out, grad_src, *mlp_grads.weights, *mlp_grads.biases]
    want = [ref_out, ref_src, *ref_mlp.weights, *ref_mlp.biases]
    if skip is None:
        assert grad_skip is None
    else:
        got.append(grad_skip)
        want.append(ref_skip)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_fp_requires_sources_and_matching_widths():
    mlp = DenseParams([np.eye(2)], [np.zeros(2)])
    with pytest.raises(ValueError):
        fp_layer(np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((0, 2)), None, mlp)
    with pytest.raises(ValueError):
        fp_layer(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((3, 3)), None, mlp)


def unblocked_fp_layer(target_points, source_points, source_feats, skip_feats, mlp):
    """fp_layer's forward pass with the whole (t, kk, c) gather interpolated
    by one einsum and the later layers run whole.  Returns (target features,
    the input of each later layer)."""
    order, near = nearest(target_points, source_points, min(3, len(source_points)))
    w = 1.0 / (near + 1e-10)
    w = w / w.sum(axis=1, keepdims=True)
    c_s = source_feats.shape[1]
    z = np.einsum("tk,tkc->tc", w, (source_feats @ mlp.weights[0][:c_s])[order])
    if skip_feats is not None:
        z += skip_feats @ mlp.weights[0][c_s:]
    z += mlp.biases[0]
    if len(mlp.weights) == 1:
        return z, []
    out, tape = dense_apply(DenseParams(mlp.weights[1:], mlp.biases[1:]), np.fmax(z, 0.0),
                            capture=True)
    return out, tape.inputs


@pytest.mark.parametrize("block_rows, n_target, n_source, skip_width, widths", [
    # At most 341 targets a chunk: 233, 233, 234.
    pytest.param(1024, 700, 40, 2, (8, 5), id="1024-700-40-2"),
    # Two neighbours per target: two chunks of 350.
    pytest.param(1024, 700, 2, None, (8, 5), id="1024-700-2-None"),
    # Fewer than 64 targets: one chunk, however small _BLOCK_ROWS is.
    pytest.param(7, 11, 9, 2, (8, 5), id="7-11-9-2"),
    pytest.param(1, 5, 9, None, (8, 5), id="1-5-9-None"),
    # fp2's skip and MLP widths at paper scale, in five chunks of 300 targets.
    pytest.param(1024, 1500, 400, 64, (128, 256, 256), id="1024-1500-400-64-wide"),
    # Chunks of 65 to 66 targets: a small _BLOCK_ROWS stops at 64.
    pytest.param(7, 1500, 400, 64, (128, 256, 256), id="7-1500-400-64-wide"),
])
def test_fp_blocked_interpolation_equals_unblocked_bit_for_bit(
        monkeypatch, block_rows, n_target, n_source, skip_width, widths):
    monkeypatch.setattr(layers_module, "_BLOCK_ROWS", block_rows)
    rows = []

    def counting_dense_apply(params, x, capture=False):
        rows.append(len(x))
        return dense_apply(params, x, capture=capture)
    monkeypatch.setattr(layers_module, "dense_apply", counting_dense_apply)
    rng = np.random.default_rng(20)
    src = rng.uniform(-1, 1, size=(n_source, 3))
    tgt = rng.uniform(-1, 1, size=(n_target, 3))
    src_feats = rng.normal(size=(n_source, 6))
    skip = None if skip_width is None else rng.normal(size=(n_target, skip_width))
    mlp = DenseParams.create([6 + (skip_width or 0), *widths], rng)
    want, want_inputs = unblocked_fp_layer(tgt, src, src_feats, skip, mlp)
    for capture in (False, True):
        rows.clear()
        out, tape = fp_layer(tgt, src, src_feats, skip, mlp, capture=capture)
        assert out.tobytes() == want.tobytes(), capture
        assert sum(rows) == n_target and min(rows) >= min(64, n_target), rows
    # The tape holds each later layer's whole input, as one whole run makes it.
    assert len(tape.dense_tape.inputs) == len(want_inputs)
    for got, expected in zip(tape.dense_tape.inputs, want_inputs):
        assert got.tobytes() == expected.tobytes()


def add_at(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, c) np.add.at sums of the c-wide rows of values into the rows that
    index names."""
    out = np.zeros((n, values.shape[-1]))
    np.add.at(out, index, values)
    return out


# Signed zeros, and magnitudes whose sums depend on the order of addition.
SCATTER_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 3e16, -3e16, 5e-324])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interp_transpose_matches_add_at_bit_for_bit(data):
    kk = data.draw(st.integers(1, 3), label="kk")
    n = data.draw(st.integers(1, 6), label="n")         # n = 1: a single source
    t = data.draw(st.integers(0, 12), label="t")
    c = data.draw(st.integers(1, 3), label="c")
    # Few sources for many pairs repeat sources; the top index is often
    # unused, so some sources get no pairs.
    order = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=t * kk,
                                        max_size=t * kk)), dtype=np.intp).reshape(t, kk)
    weights = np.array(data.draw(st.lists(SCATTER_VALUES, min_size=t * kk,
                                          max_size=t * kk))).reshape(t, kk)
    g = np.array(data.draw(st.lists(SCATTER_VALUES, min_size=t * c,
                                    max_size=t * c))).reshape(t, c)
    got = layers_module._interp_transpose(order, weights, g, n)
    want = add_at(order, g[:, None, :] * weights[:, :, None], n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order, n", [
    ([[0, 0, 0], [0, 0, 0]], 1),        # one source takes every pair
    ([[2, 2], [2, 0], [0, 2]], 4),      # sources 1 and 3 get no pair
    ([[1], [0], [1], [1]], 2),          # one neighbour per target
])
def test_interp_transpose_signed_zero_cases(order, n):
    # np.add.at starts every sum from +0.0, so a source whose products are
    # all -0.0 sums to +0.0; a sum seeded with its first product stays -0.0.
    order = np.array(order)
    weights = np.full(order.shape, -0.0)
    weights[::2, 0] = 0.5
    g = np.array([[-0.0, 1.0], [0.0, -0.0], [-0.0, -2.0], [3.0, -0.0]])[:len(order)]
    got = layers_module._interp_transpose(order, weights, g, n)
    assert got.tobytes() == add_at(order, g[:, None, :] * weights[:, :, None], n).tobytes()


@pytest.mark.parametrize("n_target, n_source, skip_width, widths", [
    (256, 64, 16, (32, 64, 64)),        # desk fp2, with its skip features
    (512, 256, None, (64, 64)),         # desk fp3
], ids=["fp2-skip", "fp3"])
def test_fp_backward_transpose_matches_add_at(monkeypatch, n_target, n_source, skip_width,
                                              widths):
    # With _interp_transpose swapped for the np.add.at reference, every
    # gradient of the layer keeps its bytes.
    rng = np.random.default_rng(23)
    tgt = rng.uniform(-4, 4, size=(n_target, 3))
    src = rng.uniform(-4, 4, size=(n_source, 3))
    src_feats = rng.normal(size=(n_source, 16))
    skip = None if skip_width is None else rng.normal(size=(n_target, skip_width))
    mlp = DenseParams.create([16 + (skip_width or 0), *widths], rng)
    out, tape = fp_layer(tgt, src, src_feats, skip, mlp, capture=True)
    grad = rng.normal(size=out.shape)

    def backward_bytes():
        mlp_grads, grad_source, grad_skip = tape.backward(grad)
        return [x.tobytes() for x in (*mlp_grads.weights, *mlp_grads.biases, grad_source,
                                      *([] if grad_skip is None else [grad_skip]))]
    got = backward_bytes()
    ran = []

    def reference(order, weights, g, n):
        ran.append(n)
        return add_at(order, g[:, None, :] * weights[:, :, None], n)
    monkeypatch.setattr(layers_module, "_interp_transpose", reference)
    assert backward_bytes() == got
    assert ran == [n_source]


# ---------------------------------------------------------------------------
# association head
# ---------------------------------------------------------------------------

def make_assoc_spec(rng, k=3, widths=(6, 4)):
    # Input rows: the pair's cosine, then the 3-vector displacement.
    return AssociationSpec(k, DenseParams.create([4, *widths], rng))


def recorded_mlp_inputs(monkeypatch) -> list[np.ndarray]:
    """Record the input of every MLP call the layers make."""
    inputs = []
    real = layers_module.dense_apply

    def recording(params, x, capture=False):
        inputs.append(x)
        return real(params, x, capture=capture)
    monkeypatch.setattr(layers_module, "dense_apply", recording)
    return inputs


def test_assoc_identical_frames_zero_displacement(monkeypatch):
    rng = np.random.default_rng(11)
    spec = make_assoc_spec(rng, k=1)
    pts = rng.uniform(-3, 3, size=(6, 3))
    feats = rng.normal(size=(6, 2))
    inputs = recorded_mlp_inputs(monkeypatch)
    association_head(spec, pts, feats, pts, feats)
    # One MLP input row per (point, neighbour): [cos(f_a, f_b), p_b - p_a],
    # and each point's nearest neighbour is its own copy.
    (rows,) = inputs
    np.testing.assert_allclose(rows[:, 0], 1.0, rtol=0, atol=1e-9)
    assert np.array_equal(rows[:, 1:], np.zeros((6, 3)))


def test_assoc_cosine_identical_features_is_one(monkeypatch):
    rng = np.random.default_rng(12)
    spec = make_assoc_spec(rng, k=1)
    pts = np.array([[0.0, 0.0, 0.0]])
    feats = np.array([[1.0, 2.0, -1.0]])
    inputs = recorded_mlp_inputs(monkeypatch)
    association_head(spec, pts, feats, pts, feats)
    fused = inputs[0][0, 0]
    assert fused == pytest.approx(1.0, abs=1e-9)


def test_assoc_cosine_of_orthogonal_features_is_zero(monkeypatch):
    rng = np.random.default_rng(13)
    spec = make_assoc_spec(rng, k=1)
    pts = np.zeros((1, 3))
    inputs = recorded_mlp_inputs(monkeypatch)
    association_head(spec, pts, np.array([[1.0, 0.0, 2.0]]), pts, np.array([[0.0, 3.0, 0.0]]))
    assert inputs[0][0, 0] == 0.0


def test_assoc_cosine_of_negated_features_is_minus_one(monkeypatch):
    rng = np.random.default_rng(13)
    spec = make_assoc_spec(rng, k=1)
    pts = rng.uniform(-3, 3, size=(6, 3))
    feats = rng.normal(size=(6, 4))
    inputs = recorded_mlp_inputs(monkeypatch)
    association_head(spec, pts, feats, pts, -feats)
    np.testing.assert_allclose(inputs[0][:, 0], -1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("scale", [0.25, 4.0, 1e3])
def test_assoc_output_does_not_change_with_the_feature_scale(scale):
    # The head reads features only through their cosine, so scaling either
    # frame's features by a positive factor leaves it unchanged but for the
    # 1e-10 guard in the cosine's denominator.
    rng = np.random.default_rng(20)
    spec = make_assoc_spec(rng, k=3)
    pts_a, pts_b = rng.uniform(-2, 2, size=(5, 3)), rng.uniform(-2, 2, size=(7, 3))
    feats_a, feats_b = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
    base, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b)
    scaled_a, _ = association_head(spec, pts_a, scale * feats_a, pts_b, feats_b)
    scaled_b, _ = association_head(spec, pts_a, feats_a, pts_b, scale * feats_b)
    np.testing.assert_allclose(scaled_a, base, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(scaled_b, base, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_assoc_output_is_local_to_knn_neighbourhood(k):
    rng = np.random.default_rng(14)
    spec = make_assoc_spec(rng, k=k)
    pts_a = np.array([[0.0, 0.0, 0.0]])
    feats_a = rng.normal(size=(1, 2))
    pts_b = np.array([[0.1, 0, 0], [0.2, 0, 0], [50.0, 0, 0]])
    feats_b = rng.normal(size=(3, 2))
    out1, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b)
    feats_b2 = feats_b.copy()
    feats_b2[2] += 100.0  # not among the k nearest
    out2, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b2)
    assert np.array_equal(out1, out2)


# k=7 takes every frame-B point into each neighbourhood.
@pytest.mark.parametrize("k", [1, 3, 7])
def test_assoc_gradients_match_finite_differences(k):
    rng = np.random.default_rng(15)
    spec = make_assoc_spec(rng, k=k)
    pts_a = rng.uniform(-2, 2, size=(5, 3))
    pts_b = rng.uniform(-2, 2, size=(7, 3))
    feats_a = rng.normal(size=(5, 3))
    feats_b = rng.normal(size=(7, 3))
    target = rng.normal(size=(5, 4))

    def pack(p):
        return {f"w{i}": w for i, w in enumerate(p.weights)} | \
               {f"b{i}": b for i, b in enumerate(p.biases)}

    def loss_fn(d):
        mlp = DenseParams([d["w0"], d["w1"]], [d["b0"], d["b1"]])
        s = AssociationSpec(spec.k, mlp)
        out, tape = association_head(s, pts_a, feats_a, pts_b, feats_b, capture=True)
        err = out - target
        grads, _, _ = tape.backward(2.0 * err)
        return float((err ** 2).sum()), pack(grads)

    assert gradient_check(loss_fn, pack(spec.mlp), probe_count=50, epsilon=1e-5) < 1e-4


@pytest.mark.parametrize("k", [1, 2, 6])
def test_assoc_feature_gradients_match_finite_differences(k):
    rng = np.random.default_rng(16)
    spec = make_assoc_spec(rng, k=k)
    pts_a = rng.uniform(-2, 2, size=(4, 3))
    pts_b = rng.uniform(-2, 2, size=(6, 3))
    fa0 = rng.normal(size=(4, 2))
    fb0 = rng.normal(size=(6, 2))

    def loss_of(fa, fb):
        out, tape = association_head(spec, pts_a, fa, pts_b, fb, capture=True)
        return float((out ** 2).sum()), out, tape

    _, out0, tape = loss_of(fa0, fb0)
    _, grad_fa, grad_fb = tape.backward(2.0 * out0)
    eps = 1e-6
    for idx in [(0, 0), (3, 1)]:
        ap, am = fa0.copy(), fa0.copy()
        ap[idx] += eps
        am[idx] -= eps
        numeric = (loss_of(ap, fb0)[0] - loss_of(am, fb0)[0]) / (2 * eps)
        assert abs(grad_fa[idx] - numeric) < 1e-4 * max(1.0, abs(numeric))
    for idx in [(1, 0), (5, 1)]:
        bp, bm = fb0.copy(), fb0.copy()
        bp[idx] += eps
        bm[idx] -= eps
        numeric = (loss_of(fa0, bp)[0] - loss_of(fa0, bm)[0]) / (2 * eps)
        assert abs(grad_fb[idx] - numeric) < 1e-4 * max(1.0, abs(numeric))


def gathered_association_reference(spec, points_a, feats_a, points_b, feats_b, grad_emb):
    """The association head on gathered (na, k, c) frame-B features: the
    cosine formed per neighbour, argmax pooling and the MLP backward on all
    na * k rows.  Returns (embedded, MLP gradients, frame-A and frame-B
    feature gradients for grad_emb)."""
    order, _ = nearest(points_a, points_b, spec.k)
    na, k = order.shape
    fa, fb = feats_a[:, None, :], feats_b[order]
    s = np.einsum("nc,nkc->nk", feats_a, fb)[:, :, None]
    norm_a = np.linalg.norm(feats_a, axis=1)[:, None, None]
    norm_b = np.linalg.norm(fb, axis=2)[:, :, None]
    denom = norm_a * norm_b + 1e-10
    group_in = np.concatenate([s / denom, points_b[order] - points_a[:, None, :]], axis=2)
    out, tape = dense_apply(spec.mlp, group_in.reshape(na * k, -1), capture=True)
    out = out.reshape(na, k, -1)
    argmax = out.argmax(axis=1)
    embedded = np.take_along_axis(out, argmax[:, None, :], axis=1)[:, 0, :]
    gy = np.zeros_like(out)
    np.put_along_axis(gy, argmax[:, None, :], grad_emb[:, None, :], axis=1)
    mlp_grads, ginp = tape.backward(gy.reshape(na * k, -1))
    gcos = ginp.reshape(na, k, -1)[:, :, :1]
    # A pair with a zero-norm feature passes no gradient.
    live = (norm_a > 0.0) & (norm_b > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        da = np.where(live, fb / denom - s * norm_b * fa / (norm_a * denom ** 2), 0.0)
        db = np.where(live, fa / denom - s * norm_a * fb / (norm_b * denom ** 2), 0.0)
    grad_fa, gfb = (gcos * da).sum(axis=1), gcos * db
    grad_fb = np.zeros_like(feats_b)
    np.add.at(grad_fb, order, gfb)
    return embedded, mlp_grads, grad_fa, grad_fb


def assert_assoc_matches_reference(spec, pts_a, feats_a, pts_b, feats_b, grad):
    """The head matches the gathered reference at rtol 1e-10, and its
    embedding does not depend on capture.  Returns its feature gradients."""
    embedded, tape = association_head(spec, pts_a, feats_a, pts_b, feats_b, capture=True)
    plain, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b)
    assert np.array_equal(plain, embedded)
    mlp_grads, grad_fa, grad_fb = tape.backward(grad)
    ref_embedded, ref_mlp, ref_fa, ref_fb = gathered_association_reference(
        spec, pts_a, feats_a, pts_b, feats_b, grad)
    tol = dict(rtol=1e-10, atol=0)
    np.testing.assert_allclose(embedded, ref_embedded, **tol)
    for got, want in zip(mlp_grads.weights + mlp_grads.biases,
                         ref_mlp.weights + ref_mlp.biases):
        np.testing.assert_allclose(got, want, **tol)
    np.testing.assert_allclose(grad_fa, ref_fa, **tol)
    np.testing.assert_allclose(grad_fb, ref_fb, **tol)
    return grad_fa, grad_fb


@pytest.mark.parametrize("k", [1, 4, 11])
@pytest.mark.parametrize("zero_rows", [False, True])
def test_assoc_matches_gathered_reference(zero_rows, k):
    rng = np.random.default_rng(18)
    spec = make_assoc_spec(rng, k=k, widths=(8, 6))
    pts_a = rng.uniform(-2, 2, size=(9, 3))
    pts_b = rng.uniform(-2, 2, size=(11, 3))
    feats_a = rng.normal(size=(9, 5))
    feats_b = rng.normal(size=(11, 5))
    if zero_rows:
        # Zero-norm features read cosine 0 and pass no gradient.
        feats_a[2] = 0.0
        feats_b[nearest(pts_a, pts_b, k)[0][0, min(1, k - 1)]] = 0.0
    grad_fa, grad_fb = assert_assoc_matches_reference(
        spec, pts_a, feats_a, pts_b, feats_b, rng.normal(size=(9, 6)))
    assert grad_fa.any() and grad_fb.any()


def test_assoc_cosine_passes_no_gradient_through_a_zero_norm_feature():
    # Frame-A point 0 and frame-A point 1's nearest frame-B neighbour carry
    # all-zero features: their pairs read cosine 0 for any other feature, so
    # the gradient is zero there, not f / eps (up to 1e10 times f).
    rng = np.random.default_rng(24)
    spec = make_assoc_spec(rng, k=2)
    pts_a, pts_b = rng.uniform(-2, 2, size=(3, 3)), rng.uniform(-2, 2, size=(4, 3))
    feats_a, feats_b = rng.normal(size=(3, 3)), rng.normal(size=(4, 3))
    order, _ = nearest(pts_a, pts_b, 2)
    zero_b = order[1, 0]
    feats_a[0] = 0.0
    feats_b[zero_b] = 0.0
    embedded, tape = association_head(spec, pts_a, feats_a, pts_b, feats_b, capture=True)
    _, grad_fa, grad_fb = tape.backward(np.ones_like(embedded))
    assert not grad_fa[0].any() and not grad_fb[zero_b].any()
    assert grad_fa[1:].any() and np.abs(np.concatenate([grad_fa, grad_fb])).max() < 1e3


# k=12 takes both copies of every frame-B point into each neighbourhood.
@pytest.mark.parametrize("k", [2, 4, 12])
def test_assoc_max_pool_ties_send_the_gradient_to_the_lowest_slot(k):
    rng = np.random.default_rng(19)
    # Every frame-B point twice, same feature: each neighbourhood holds pairs
    # of equal MLP rows, and the copy with the higher index sorts to the later
    # slot.
    pts_b = np.tile(rng.uniform(-2, 2, size=(6, 3)), (2, 1))
    feats_b = np.tile(rng.normal(size=(6, 3)), (2, 1))
    pts_a = rng.uniform(-2, 2, size=(5, 3))
    feats_a = rng.normal(size=(5, 3))
    spec = make_assoc_spec(rng, k=k)
    _, grad_fb = assert_assoc_matches_reference(spec, pts_a, feats_a, pts_b, feats_b,
                                                rng.normal(size=(5, 4)))
    assert not grad_fb[6:].any() and grad_fb[:6].any()

    # A NaN column from an inf feature on frame-A point 0's second neighbour
    # (a one-layer MLP passes it on): the max and its gradient go to that
    # lowest NaN slot.
    spec = make_assoc_spec(rng, k=k, widths=(5,))
    order, _ = nearest(pts_a, pts_b, k)
    feats_b = feats_b.copy()
    feats_b[order[0, 1]] = np.inf
    grad = rng.normal(size=(5, 5))
    with np.errstate(invalid="ignore"):
        embedded, tape = association_head(spec, pts_a, feats_a, pts_b, feats_b, capture=True)
        plain, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b)
        tape.backward(grad)
        ref_embedded, argmax, *_ = unblocked_association_head(spec, pts_a, feats_a, pts_b,
                                                              feats_b, grad)
    assert np.array_equal(plain, embedded, equal_nan=True)
    np.testing.assert_allclose(embedded, ref_embedded, rtol=1e-12, atol=0)
    won = kernel_winners(tape.group_tape, 5, 5)
    assert np.array_equal(won, np.take_along_axis(order, argmax, axis=1))
    nan = np.isnan(embedded[0])
    assert nan[1:].any() and (won[0][nan] == order[0, 1]).all()


def test_assoc_rejects_oversized_k_and_mismatched_widths():
    rng = np.random.default_rng(17)
    spec = make_assoc_spec(rng, k=2)
    pts_a, pts_b = rng.uniform(-2, 2, size=(3, 3)), rng.uniform(-2, 2, size=(4, 3))
    feats_a, feats_b = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    # geom.nearest checks k, against the frame-B points.
    with pytest.raises(ValueError, match=r"^k must lie in \[1, 4\], got 5$"):
        association_head(make_assoc_spec(rng, k=5), pts_a, feats_a, pts_b, feats_b)
    with pytest.raises(ValueError, match=r"^k must lie in \[1, 4\], got 0$"):
        association_head(AssociationSpec(0, spec.mlp), pts_a, feats_a, pts_b, feats_b)
    wide = AssociationSpec(2, DenseParams.create([5, 6, 4], rng))
    with pytest.raises(ValueError, match="^MLP expects width 5, the head provides 4$"):
        association_head(wide, pts_a, feats_a, pts_b, feats_b)
    with pytest.raises(ValueError, match="^frame feature widths must match$"):
        association_head(spec, pts_a, feats_a, pts_b, rng.normal(size=(4, 3)))
    # Bools used to run as 0.0 and 1.0, and 1-D features raised "tuple index
    # out of range".
    with pytest.raises(ValueError, match="^points_a must hold float values, got dtype bool$"):
        association_head(spec, pts_a > 0, feats_a, pts_b, feats_b)
    with pytest.raises(ValueError, match="^feats_b must hold float values, got dtype bool$"):
        association_head(spec, pts_a, feats_a, pts_b, feats_b > 0)
    with pytest.raises(ValueError, match=r"^feats_a must be a 2-D array, got shape \(3,\)$"):
        association_head(spec, pts_a, feats_a[:, 0], pts_b, feats_b)


def unblocked_association_head(spec, points_a, feats_a, points_b, feats_b, grad_emb):
    """The association head as one MLP call over all na * k rows, pooled at
    once, with its backward pass on the full MLP tape: zero output gradient
    on every row that holds no channel's max.  Returns (embedded, winning
    slots (na, c_out), MLP gradients, MLP input gradient (na * k, width),
    frame-A and frame-B feature gradients)."""
    order, _ = nearest(points_a, points_b, spec.k)
    na, k = order.shape
    nb = feats_b.shape[0]
    dots = np.take_along_axis(feats_a @ feats_b.T, order, axis=1)
    norm_a = np.linalg.norm(feats_a, axis=1)
    norm_b = np.linalg.norm(feats_b, axis=1)[order]
    denom = norm_a[:, None] * norm_b + 1e-10
    x = np.concatenate([(dots / denom)[:, :, None], points_b[order] - points_a[:, None, :]],
                       axis=2)
    out, tape = dense_apply(spec.mlp, x.reshape(na * k, -1), capture=True)
    out = out.reshape(na, k, -1)
    argmax = out.argmax(axis=1)
    embedded = np.take_along_axis(out, argmax[:, None, :], axis=1)[:, 0, :]
    gy = np.zeros_like(out)
    np.put_along_axis(gy, argmax[:, None, :], grad_emb[:, None, :], axis=1)
    mlp_grads, ginp = tape.backward(gy.reshape(na * k, -1))
    w = ginp.reshape(na, k, -1)[:, :, 0]
    w = np.where((norm_a[:, None] > 0.0) & (norm_b > 0.0), w / denom, 0.0)
    t = w * dots / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        c_a = np.where(norm_a > 0.0, (t * norm_b).sum(axis=1) / norm_a, 0.0)
        c_b = add_at(order, np.where(norm_b > 0.0, t * norm_a[:, None] / norm_b,
                                     0.0)[:, :, None], nb)[:, 0]
    weights = np.zeros((na, nb))
    np.put_along_axis(weights, order, w, axis=1)
    grad_fa = weights @ feats_b - c_a[:, None] * feats_a
    grad_fb = weights.T @ feats_a - c_b[:, None] * feats_b
    return embedded, argmax, mlp_grads, ginp, grad_fa, grad_fb


def assert_close(got, want):
    """Equal shapes, and equal to 1e-12 of want's largest magnitude."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


def blocked_head_case(monkeypatch, block_rows, duplicates, k=4):
    """A 23-point frame A against 16 frame-B points with _BLOCK_ROWS set to
    block_rows; with duplicates frame B is 8 points twice over."""
    monkeypatch.setattr(layers_module, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(21)
    pts_b = rng.uniform(-2, 2, size=(16, 3))
    feats_b = rng.normal(size=(16, 5))
    if duplicates:
        pts_b[8:], feats_b[8:] = pts_b[:8], feats_b[:8]
    pts_a = rng.uniform(-2, 2, size=(23, 3))
    feats_a = rng.normal(size=(23, 5))
    spec = make_assoc_spec(rng, k=k, widths=(8, 6))
    return spec, pts_a, feats_a, pts_b, feats_b, rng.normal(size=(23, 6))


# At k=4, 1024 rows: one block; 24: four blocks of 5 or 6 points; 4: one
# point each.  k=16 takes all of frame B, a group over a 4- or 24-row budget.
@pytest.mark.parametrize("k", [1, 4, 16])
@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("block_rows", [1024, 24, 4])
def test_assoc_blocked_head_matches_unblocked_reference(monkeypatch, block_rows, duplicates, k):
    spec, pts_a, feats_a, pts_b, feats_b, grad = blocked_head_case(
        monkeypatch, block_rows, duplicates, k)
    embedded, tape = association_head(spec, pts_a, feats_a, pts_b, feats_b, capture=True)
    plain, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b)
    assert np.array_equal(plain, embedded)
    mlp_grads, grad_fa, grad_fb = tape.backward(grad)
    ref_embedded, ref_argmax, ref_mlp, _, ref_fa, ref_fb = unblocked_association_head(
        spec, pts_a, feats_a, pts_b, feats_b, grad)
    order, _ = nearest(pts_a, pts_b, spec.k)
    assert np.array_equal(kernel_winners(tape.group_tape, 23, 6),
                          np.take_along_axis(order, ref_argmax, axis=1))
    for got, want in zip([embedded, grad_fa, grad_fb, *mlp_grads.weights, *mlp_grads.biases],
                         [ref_embedded, ref_fa, ref_fb, *ref_mlp.weights, *ref_mlp.biases]):
        assert_close(got, want)
    if duplicates:
        # Every slot tie goes to the lower-index copy, in every block.
        assert not grad_fb[8:].any() and grad_fb[:8].any()


@pytest.mark.parametrize("k", [4, 16])
@pytest.mark.parametrize("block_rows", [1024, 24, 4])
def test_assoc_winner_tape_matches_full_backward_with_zero_gradient_elsewhere(
        monkeypatch, block_rows, k):
    spec, pts_a, feats_a, pts_b, feats_b, grad = blocked_head_case(
        monkeypatch, block_rows, duplicates=True, k=k)
    _, tape = association_head(spec, pts_a, feats_a, pts_b, feats_b, capture=True)
    _, argmax, want_params, want_input, _, _ = unblocked_association_head(
        spec, pts_a, feats_a, pts_b, feats_b, grad)
    # The tape keeps the MLP inputs of the rows that win some channel, and
    # only those, each once.
    na, k = 23, spec.k
    order, _ = nearest(pts_a, pts_b, k)
    won = np.zeros((na, k), dtype=bool)
    won[np.arange(na)[:, None], argmax] = True
    got_params, group, cand, got_input = tape.group_tape.backward(grad)
    slot = (order[group] == cand[:, None]).argmax(axis=1)
    assert won[group, slot].all() and len(group) == won.sum() and not won.all()
    want_input = want_input.reshape(na, k, -1)
    assert_close(got_input, want_input[group, slot])
    assert not want_input[~won].any()
    for got, want in zip(got_params.weights + got_params.biases,
                         want_params.weights + want_params.biases):
        assert_close(got, want)


@pytest.mark.parametrize("sizes, block_rows, groups", [
    ([64] * 512, 1024, [16] * 32),
    ([4] * 23, 24, [5, 6, 6, 6]),
    ([4] * 10, 12, [2, 3, 2, 3]),
    ([4] * 3, 2, [1, 1, 1]),            # a group over the budget is a block alone
    ([5, 5, 4, 3, 3, 1], 8, [1, 1, 1, 3]),
    ([], 1024, []),
])
def test_blocks_split_evenly_within_the_row_budget(monkeypatch, sizes, block_rows, groups):
    monkeypatch.setattr(layers_module, "_BLOCK_ROWS", block_rows)
    sizes = np.array(sizes, dtype=int)
    blocks = layers_module._blocks(sizes)
    assert [b.stop - b.start for b in blocks] == groups
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert all(sizes[b].sum() <= block_rows or b.stop - b.start == 1 for b in blocks)
    if blocks:
        assert blocks[0].start == 0 and blocks[-1].stop == len(sizes)


def marked_mlp(params, x, capture=False):
    """dense_apply, then output channel 0 set to +0.0 or -0.0 and channel 1
    to NaN where input column 2 is positive, both by the row's content."""
    out, tape = dense_apply(params, x, capture=capture)
    out[:, 0] = np.where(x[:, 0] % 2 == 0, 0.0, -0.0)
    out[x[:, 2] > 0, 1] = np.nan
    return out, tape


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_group_pool_matches_a_per_group_reference(data):
    cap = data.draw(st.integers(1, 6), label="cap")
    sizes = np.array(data.draw(st.lists(st.integers(1, cap), min_size=1, max_size=12),
                               label="sizes"))
    block_rows = data.draw(st.sampled_from([1, 2, 5, 9, 1024]), label="block_rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g, n = len(sizes), 8
    # Small integers throughout, so every sum is exact in any order and
    # blocked and per-group MLP calls agree bit for bit.  Candidate j + 4
    # repeats candidate j, so a group holding both has equal rows; column 2
    # marks the candidates whose rows output NaN in channel 1.
    cand_feats = rng.integers(-3, 4, size=(n, 3)).astype(float)
    cand_feats[:, 2] = rng.random(n) < 0.2
    cand_feats[4:] = cand_feats[:4]
    group_feats = rng.integers(-3, 4, size=(g, 2)).astype(float)
    mlp = DenseParams([rng.integers(-2, 3, size=(5, 4)).astype(float),
                       rng.integers(-2, 3, size=(4, 3)).astype(float)],
                      [rng.integers(-2, 3, size=4).astype(float),
                       rng.integers(-2, 3, size=3).astype(float)])
    grad = rng.integers(-3, 4, size=(g, 3)).astype(float)
    # ball_query's layout: distinct candidates, valid slots first, invalid
    # slots repeating slot 0.
    order = np.array([rng.permutation(n)[:cap] for _ in range(g)]).reshape(g, cap)
    valid = np.arange(cap) < sizes[:, None]
    order = np.where(valid, order, order[:, :1])

    def rows_of(group, cand):
        return np.concatenate([cand_feats[cand], group_feats[group]], axis=1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers_module, "_BLOCK_ROWS", block_rows)
        mp.setattr(layers_module, "dense_apply", marked_mlp)
        pooled, tape = layers_module._group_pool(mlp, order, valid, rows_of, True)
        plain, _ = layers_module._group_pool(mlp, order, valid, rows_of, False)
    mlp_grads, group, cand, ginp = tape.backward(grad)

    ref_pooled, ref_won = np.empty((g, 3)), np.empty((g, 3), dtype=np.intp)
    ref_grads, ref_inputs = [], {}
    for i, size in enumerate(sizes):
        out, dtape = marked_mlp(mlp, rows_of(np.full(size, i), order[i, :size]), capture=True)
        ref_pooled[i] = np.maximum.reduceat(out, [0], axis=0)[0]
        slot = out.argmax(axis=0)       # the lowest max, or the lowest NaN
        ref_won[i] = order[i, slot]
        gy = np.zeros_like(out)
        gy[slot, np.arange(3)] = grad[i]
        grads, gx = dtape.backward(gy)
        ref_grads.append(grads.weights + grads.biases)
        ref_inputs.update({(i, order[i, s]): gx[s] for s in np.unique(slot)})

    for got in (pooled, plain):
        assert np.array_equal(got, ref_pooled, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref_pooled))
    assert np.array_equal(kernel_winners(tape, g, 3), ref_won)
    for got, want in zip(mlp_grads.weights + mlp_grads.biases, zip(*ref_grads)):
        assert np.array_equal(got, np.sum(want, axis=0))
    # Input gradients for the rows that win some channel, each once.
    pairs = list(zip(group.tolist(), cand.tolist()))
    assert sorted(pairs) == sorted(ref_inputs)
    for pair, row in zip(pairs, ginp):
        assert np.array_equal(row, ref_inputs[pair])


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paper_shaped_assoc_forward_never_holds_a_full_activation():
    # na = nb = 512, k = 64, 128 channels: one (na * k, 128) activation is
    # 33.5 MB, and the unblocked head held two of them at once.
    rng = np.random.default_rng(22)
    spec = AssociationSpec(64, DenseParams.create([4, 128, 128], rng))
    pts_a, pts_b = rng.uniform(-10, 10, size=(2, 512, 3))
    feats_a, feats_b = rng.normal(size=(2, 512, 128))
    activation = 512 * 64 * 128 * 8
    peak = traced_peak(association_head, spec, pts_a, feats_a, pts_b, feats_b)
    assert peak < activation / 2, peak / activation


def test_paper_shaped_fp_forward_never_holds_the_full_gather():
    # 5000 targets, 2048 sources, 256 channels: the (5000, 3, 256) gather of
    # projected source features is 30.7 MB.
    rng = np.random.default_rng(23)
    mlp = DenseParams.create([256, 256], rng)
    tgt, src = rng.uniform(-10, 10, size=(5000, 3)), rng.uniform(-10, 10, size=(2048, 3))
    src_feats = rng.normal(size=(2048, 256))
    gather = 5000 * 3 * 256 * 8
    peak = traced_peak(fp_layer, tgt, src, src_feats, None, mlp)
    assert peak < 0.75 * gather, peak / gather


def test_paper_shaped_fp_forward_never_holds_a_whole_activation():
    # fp3 at paper scale: 5000 targets, 2048 sources, 256 -> 256 -> 256.  The
    # (5000, 256) output is one activation; the projected sources are 0.41
    # of one.  Run whole, the MLP held its pre-activation beside its output,
    # and the layer peaked at 2.56 activations; in chunks it peaks at 1.89.
    rng = np.random.default_rng(25)
    mlp = DenseParams.create([256, 256, 256], rng)
    tgt, src = rng.uniform(-10, 10, size=(5000, 3)), rng.uniform(-10, 10, size=(2048, 3))
    src_feats = rng.normal(size=(2048, 256))
    activation = 5000 * 256 * 8
    peak = traced_peak(fp_layer, tgt, src, src_feats, None, mlp)
    assert peak < 2.2 * activation, peak / activation


def test_fp_backward_scatter_never_holds_the_weighted_gradient():
    # 4000 targets, 3 neighbours, 128 channels, 1500 sources: the (t, 3, c)
    # weighted gradient and its int64 flat index are 3 (t, c) arrays each.
    # The transpose needs its (n_s, c) output and less than one (t, c) more.
    rng = np.random.default_rng(24)
    n_t, n_s, c = 4000, 1500, 128
    mlp = DenseParams.create([16, c], rng)
    tgt, src = rng.uniform(-10, 10, size=(n_t, 3)), rng.uniform(-10, 10, size=(n_s, 3))
    _, tape = fp_layer(tgt, src, rng.normal(size=(n_s, 16)), None, mlp, capture=True)
    grad = rng.normal(size=(n_t, c))
    bound = (n_s + n_t) * c * 8
    peak = traced_peak(tape.backward, grad)
    assert peak < bound, peak / bound
