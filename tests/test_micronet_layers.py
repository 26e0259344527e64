import numpy as np
import pytest

from disptrack.micronet import (
    FUSION_METHODS,
    AssociationSpec,
    DenseParams,
    SaLayerSpec,
    association_head,
    dense_apply,
    fp_layer,
    gradient_check,
    sa_layer,
)
from disptrack.geom import nearest


def make_sa_spec(rng, feat_width, sample_count=4, radius=1.5, cap=8, widths=(6, 5)):
    mlp = DenseParams.create([3 + feat_width, *widths], rng)
    return SaLayerSpec(sample_count, radius, cap, mlp)


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

def test_sa_single_point_uses_itself():
    rng = np.random.default_rng(0)
    spec = make_sa_spec(rng, feat_width=2, sample_count=1)
    pts = np.array([[1.0, 2.0, 3.0]])
    feats = np.array([[0.5, -0.25]])
    sampled, pooled, _ = sa_layer(spec, pts, feats, start_index=0)
    assert np.array_equal(sampled, pts)
    expect, _ = dense_apply(spec.mlp, np.array([[0.0, 0.0, 0.0, 0.5, -0.25]]))
    assert np.allclose(pooled, expect)


def test_sa_identical_points_get_identical_features():
    rng = np.random.default_rng(1)
    spec = make_sa_spec(rng, feat_width=1, sample_count=2)
    pts = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    feats = np.array([[0.3], [0.3]])
    _, pooled, _ = sa_layer(spec, pts, feats, start_index=0)
    assert np.array_equal(pooled[0], pooled[1])


def test_sa_isolated_centroid_falls_back_to_itself():
    rng = np.random.default_rng(2)
    spec = make_sa_spec(rng, feat_width=1, sample_count=2, radius=0.5)
    pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
    feats = np.array([[1.0], [2.0]])
    sampled, pooled, tape = sa_layer(spec, pts, feats, start_index=0, capture=True)
    # each centroid's only in-radius neighbour is itself
    assert np.count_nonzero(tape.valid[0]) == 1
    expect0, _ = dense_apply(spec.mlp, np.array([[0.0, 0.0, 0.0, 1.0]]))
    assert np.allclose(pooled[[0] if sampled[0, 0] == 0 else [1]], expect0)


def test_sa_neighbor_order_permutation_invariant():
    rng = np.random.default_rng(3)
    spec = make_sa_spec(rng, feat_width=2, sample_count=1, radius=10.0)
    pts = rng.normal(size=(12, 3))
    feats = rng.normal(size=(12, 2))
    _, pooled_a, _ = sa_layer(spec, pts, feats, start_index=0)
    perm = rng.permutation(12)
    inv_start = int(np.where(perm == 0)[0][0])
    _, pooled_b, _ = sa_layer(spec, pts[perm], feats[perm], start_index=inv_start)
    assert np.max(np.abs(pooled_a - pooled_b)) < 1e-12


def test_sa_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    spec = make_sa_spec(rng, feat_width=2, sample_count=4, radius=2.0)
    pts = rng.uniform(-1.5, 1.5, size=(10, 3))
    feats = rng.normal(size=(10, 2))
    target = rng.normal(size=(4, 5))

    def pack(p):
        return {f"w{i}": w for i, w in enumerate(p.weights)} | \
               {f"b{i}": b for i, b in enumerate(p.biases)}

    def loss_fn(d):
        mlp = DenseParams([d["w0"], d["w1"]], [d["b0"], d["b1"]])
        s = SaLayerSpec(spec.sample_count, spec.radius, spec.neighbor_cap, mlp)
        _, pooled, tape = sa_layer(s, pts, feats, start_index=1, capture=True)
        err = pooled - target
        grads, _ = tape.backward(2.0 * err)
        return float((err ** 2).sum()), pack(grads)

    assert gradient_check(loss_fn, pack(spec.mlp), probe_count=50, epsilon=1e-5) < 1e-4


def test_sa_input_feature_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = make_sa_spec(rng, feat_width=2, sample_count=3, radius=2.5)
    pts = rng.uniform(-1, 1, size=(8, 3))
    feats0 = rng.normal(size=(8, 2))

    def loss_of(feats):
        _, pooled, tape = sa_layer(spec, pts, feats, start_index=0, capture=True)
        return float((pooled ** 2).sum()), tape

    _, tape = loss_of(feats0)
    _, pooled, _ = sa_layer(spec, pts, feats0, start_index=0)
    _, grad_feats = tape.backward(2.0 * pooled)
    eps = 1e-6
    for idx in [(0, 0), (3, 1), (7, 0)]:
        fp_, fm = feats0.copy(), feats0.copy()
        fp_[idx] += eps
        fm[idx] -= eps
        numeric = (loss_of(fp_)[0] - loss_of(fm)[0]) / (2 * eps)
        assert abs(grad_feats[idx] - numeric) < 1e-5 * max(1.0, abs(numeric))


def test_sa_rejects_oversampling():
    rng = np.random.default_rng(6)
    spec = make_sa_spec(rng, feat_width=0, sample_count=5)
    with pytest.raises(ValueError):
        sa_layer(spec, np.zeros((3, 3)), np.zeros((3, 0)), start_index=0)


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


def test_fp_requires_sources_and_matching_widths():
    mlp = DenseParams([np.eye(2)], [np.zeros(2)])
    with pytest.raises(ValueError):
        fp_layer(np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((0, 2)), None, mlp)
    with pytest.raises(ValueError):
        fp_layer(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((3, 3)), None, mlp)


# ---------------------------------------------------------------------------
# association head
# ---------------------------------------------------------------------------

def make_assoc_spec(rng, fusion, feat_width, k=3, widths=(6, 4)):
    from disptrack.micronet.layers import fusion_width
    mlp = DenseParams.create([fusion_width(fusion, feat_width) + 3, *widths], rng)
    return AssociationSpec(k, fusion, mlp)


def test_assoc_identical_frames_zero_displacement():
    rng = np.random.default_rng(11)
    spec = make_assoc_spec(rng, "concat", feat_width=2, k=1)
    pts = rng.uniform(-3, 3, size=(6, 3))
    feats = rng.normal(size=(6, 2))
    _, tape = association_head(spec, pts, feats, pts, feats, capture=True)
    assert np.array_equal(tape.neighbor_disp, np.zeros((6, 1, 3)))


def test_assoc_cosine_identical_features_is_one():
    rng = np.random.default_rng(12)
    spec = make_assoc_spec(rng, "cosine_distance", feat_width=3, k=1)
    pts = np.array([[0.0, 0.0, 0.0]])
    feats = np.array([[1.0, 2.0, -1.0]])
    _, tape = association_head(spec, pts, feats, pts, feats, capture=True)
    fused = tape.dense_tape._inputs[0][0, 0]
    assert fused == pytest.approx(1.0, abs=1e-9)


def test_assoc_dot_orthogonal_features_is_zero():
    rng = np.random.default_rng(13)
    spec = make_assoc_spec(rng, "dot_product", feat_width=2, k=1)
    pts = np.array([[0.0, 0.0, 0.0]])
    fa = np.array([[1.0, 0.0]])
    fb = np.array([[0.0, 5.0]])
    _, tape = association_head(spec, pts, fa, pts, fb, capture=True)
    assert tape.dense_tape._inputs[0][0, 0] == 0.0


def test_assoc_output_is_local_to_knn_neighbourhood():
    rng = np.random.default_rng(14)
    spec = make_assoc_spec(rng, "concat", feat_width=2, k=2)
    pts_a = np.array([[0.0, 0.0, 0.0]])
    feats_a = rng.normal(size=(1, 2))
    pts_b = np.array([[0.1, 0, 0], [0.2, 0, 0], [50.0, 0, 0]])
    feats_b = rng.normal(size=(3, 2))
    out1, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b)
    feats_b2 = feats_b.copy()
    feats_b2[2] += 100.0  # not among the k=2 nearest
    out2, _ = association_head(spec, pts_a, feats_a, pts_b, feats_b2)
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("fusion", FUSION_METHODS)
def test_assoc_gradients_match_finite_differences(fusion):
    rng = np.random.default_rng(15)
    spec = make_assoc_spec(rng, fusion, feat_width=3, k=3)
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
        s = AssociationSpec(spec.k, fusion, mlp)
        out, tape = association_head(s, pts_a, feats_a, pts_b, feats_b, capture=True)
        err = out - target
        grads, _, _ = tape.backward(2.0 * err)
        return float((err ** 2).sum()), pack(grads)

    assert gradient_check(loss_fn, pack(spec.mlp), probe_count=50, epsilon=1e-5) < 1e-4


@pytest.mark.parametrize("fusion", FUSION_METHODS)
def test_assoc_feature_gradients_match_finite_differences(fusion):
    rng = np.random.default_rng(16)
    spec = make_assoc_spec(rng, fusion, feat_width=2, k=2)
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


def test_assoc_rejects_oversized_k_and_mismatched_widths():
    rng = np.random.default_rng(17)
    spec = make_assoc_spec(rng, "concat", feat_width=2, k=5)
    pts = np.zeros((2, 3))
    feats = np.zeros((2, 2))
    with pytest.raises(ValueError):
        association_head(spec, pts, feats, pts, feats)
    with pytest.raises(ValueError):
        AssociationSpec(2, "butterfly", spec.mlp)
