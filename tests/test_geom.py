import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disptrack.geom import (
    Box3D,
    PointCloud,
    box_iou,
    farthest_point_sample,
    nearest,
    points_in_box,
)
from disptrack.micronet import DenseParams, SaLayerSpec


def cloud_of(*pts):
    return PointCloud(np.array(pts, dtype=float))


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------

def fps_oracle(points, m, start):
    """Exhaustive reference: greedily maximize min distance to chosen set."""
    chosen = [start]
    while len(chosen) < m:
        best, best_d = None, -1.0
        for i in range(len(points)):
            if i in chosen:
                continue
            d = min(np.linalg.norm(points[i] - points[j]) for j in chosen)
            if d > best_d:
                best, best_d = i, d
        chosen.append(best)
    return chosen


def test_fps_single_point():
    assert farthest_point_sample(cloud_of((0, 0, 0)), 1, 0).tolist() == [0]


def test_fps_picks_farthest_then_next():
    c = cloud_of((0, 0, 0), (1, 0, 0), (10, 0, 0))
    assert farthest_point_sample(c, 2, 0).tolist() == fps_oracle(c.points, 2, 0) == [0, 2]


def test_fps_full_sample_is_permutation():
    rng = np.random.default_rng(0)
    c = PointCloud(rng.normal(size=(40, 3)))
    idx = farthest_point_sample(c, 40, 7)
    assert sorted(idx.tolist()) == list(range(40))


def test_fps_matches_oracle_on_random_clouds():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.normal(size=(12, 3))
        c = PointCloud(pts)
        m = int(rng.integers(1, 13))
        start = int(rng.integers(0, 12))
        assert farthest_point_sample(c, m, start).tolist() == fps_oracle(pts, m, start)


def test_fps_handles_duplicate_points():
    c = cloud_of((0, 0, 0), (0, 0, 0), (1, 0, 0))
    idx = farthest_point_sample(c, 3, 0)
    assert sorted(idx.tolist()) == [0, 1, 2]


def test_fps_invalid_arguments():
    c = cloud_of((0, 0, 0))
    with pytest.raises(ValueError):
        farthest_point_sample(c, 2, 0)
    with pytest.raises(ValueError):
        farthest_point_sample(c, 0, 0)
    with pytest.raises(ValueError):
        farthest_point_sample(c, 1, 5)
    with pytest.raises(ValueError):
        farthest_point_sample(PointCloud(np.empty((0, 3))), 1, 0)


def min_pairwise(points, idx):
    idx = list(idx)
    best = np.inf
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            best = min(best, np.linalg.norm(points[idx[i]] - points[idx[j]]))
    return best


def test_fps_spreads_better_than_random_subsets():
    rng = np.random.default_rng(42)
    wins = 0
    trials = 100
    for _ in range(trials):
        centers = rng.uniform(-20, 20, size=(4, 3))
        pts = np.concatenate([c + rng.normal(scale=0.5, size=(25, 3)) for c in centers])
        cloud = PointCloud(pts)
        m = 10
        fps_idx = farthest_point_sample(cloud, m, int(rng.integers(0, len(pts))))
        rand_idx = rng.choice(len(pts), size=m, replace=False)
        if min_pairwise(pts, fps_idx) >= min_pairwise(pts, rand_idx):
            wins += 1
    assert wins >= 95


def test_fps_matches_oracle_on_integer_grid_ties():
    # Integer coordinates in [-2, 2]: many equal distances and duplicate
    # points, so most picks are ties that must go to the lowest index.
    rng = np.random.default_rng(2)
    for _ in range(30):
        pts = rng.integers(-2, 3, size=(16, 3)).astype(float)
        m = int(rng.integers(1, 17))
        start = int(rng.integers(0, 16))
        assert farthest_point_sample(PointCloud(pts), m, start).tolist() \
            == fps_oracle(pts, m, start)


# ---------------------------------------------------------------------------
# nearest neighbours
# ---------------------------------------------------------------------------

def lexsort_reference(query, points, k):
    """Per query row: indices ordered by (distance, index), first k."""
    order, dist = [], []
    for q in query:
        d = np.sqrt(((points - q) ** 2).sum(axis=1))
        idx = np.lexsort((np.arange(len(points)), d))[:k]
        order.append(idx)
        dist.append(d[idx])
    return np.array(order), np.array(dist)


def test_nearest_sorted_by_distance():
    c = cloud_of((1, 0, 0), (2, 0, 0), (3, 0, 0))
    idx, dist = nearest([(0, 0, 0)], c.points, 2)
    assert idx.tolist() == [[0, 1]]
    assert dist.tolist() == [[1.0, 2.0]]


def test_nearest_full_set_in_distance_order():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(15, 3))
    idx, dist = nearest([(0.1, 0.2, 0.3)], pts, 15)
    assert sorted(idx[0].tolist()) == list(range(15))
    assert np.all(np.diff(dist[0]) >= 0)


def test_nearest_zero_distance_first():
    c = cloud_of((5, 5, 5), (1, 2, 3), (0, 0, 1))
    idx, dist = nearest([(1, 2, 3)], c.points, 1)
    assert idx.tolist() == [[1]]
    assert dist[0, 0] == 0.0


def test_nearest_tie_breaks_by_lower_index():
    c = cloud_of((1, 0, 0), (-1, 0, 0), (0, 1, 0))
    idx, _ = nearest([(0, 0, 0)], c.points, 3)
    assert idx.tolist() == [[0, 1, 2]]


def test_nearest_invalid_k():
    c = cloud_of((0, 0, 0))
    with pytest.raises(ValueError):
        nearest([(0, 0, 0)], c.points, 2)
    with pytest.raises(ValueError):
        nearest([(0, 0, 0)], c.points, 0)


def test_nearest_keeps_lowest_index_ties_across_the_kth_distance():
    # Six points at distance 1 and one at 0.5: with k = 3, the k-th distance
    # is 1 and six points share it, so the partition splits a tie and the
    # exact-tie path must pick indices 0 and 1 among them.
    pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                    [0, 0, -1], [0, 0, 0.5]])
    query = np.zeros((1, 3))
    d = np.linalg.norm(pts, axis=1)
    assert np.count_nonzero(d <= 1.0) > 3
    idx, dist = nearest(query, pts, 3)
    assert idx.tolist() == [[6, 0, 1]]
    assert dist.tolist() == [[0.5, 1.0, 1.0]]


@st.composite
def grid_case(draw):
    n = draw(st.integers(1, 24))
    coord = st.integers(-2, 2)
    points = np.array(draw(st.lists(st.tuples(coord, coord, coord),
                                    min_size=n, max_size=n)), dtype=float)
    query = np.array(draw(st.lists(st.tuples(coord, coord, coord),
                                   min_size=1, max_size=6)), dtype=float)
    return query, points, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(grid_case())
def test_nearest_matches_lexsort_reference_on_integer_grids(case):
    query, points, k = case
    idx, dist = nearest(query, points, k)
    ref_idx, ref_dist = lexsort_reference(query, points, k)
    assert idx.tolist() == ref_idx.tolist()
    assert dist.tolist() == ref_dist.tolist()


# The ball queries that sa_layer makes: the cap nearest points, masked to the
# radius (sa_layer also always keeps the centroid itself).

def in_radius(center, radius, points, cap):
    idx, dist = nearest([center], points, min(cap, len(points)))
    return idx[0][dist[0] <= radius]


def test_nearest_in_radius_basic():
    c = cloud_of((0.5, 0, 0), (2, 0, 0))
    assert in_radius((0, 0, 0), 1.0, c.points, 8).tolist() == [0]


def test_nearest_in_radius_empty_when_radius_too_small():
    c = cloud_of((1, 0, 0), (2, 0, 0))
    assert in_radius((0, 0, 0), 0.5, c.points, 8).tolist() == []


def test_nearest_in_radius_cap_keeps_nearest():
    c = cloud_of((0.6, 0, 0), (0.2, 0, 0))
    assert in_radius((0, 0, 0), 1.0, c.points, 1).tolist() == [1]


def test_nearest_in_radius_boundary_inclusive_and_validated():
    c = cloud_of((1.0, 0, 0))
    assert in_radius((0, 0, 0), 1.0, c.points, 4).tolist() == [0]
    mlp = DenseParams.create([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        SaLayerSpec(1, 0.0, 4, mlp)


# ---------------------------------------------------------------------------
# points in box
# ---------------------------------------------------------------------------

def test_points_in_box_inside_outside():
    box = Box3D((0, 0, 0), (2, 2, 2), 0.0)
    c = cloud_of((0.5, 0, 0), (1.5, 0, 0))
    assert points_in_box(c, box).tolist() == [True, False]


def test_points_in_box_boundary_counts_inside():
    box = Box3D((0, 0, 0), (2, 2, 2), 0.0)
    c = cloud_of((1.0, 1.0, 1.0))
    assert points_in_box(c, box).tolist() == [True]


def test_points_in_box_rotated_corner():
    # corner of a yaw=pi/4 unit box, rotated by hand, pulled inward by eps
    yaw = np.pi / 4
    box = Box3D((0, 0, 0), (2, 2, 2), yaw)
    rot = np.array([[np.cos(yaw), -np.sin(yaw)], [np.sin(yaw), np.cos(yaw)]])
    corner = rot @ np.array([1.0 - 1e-9, 1.0 - 1e-9])
    inside = cloud_of((corner[0], corner[1], 0.0))
    outside_corner = rot @ np.array([1.0 + 1e-6, 1.0 + 1e-6])
    outside = cloud_of((outside_corner[0], outside_corner[1], 0.0))
    assert points_in_box(inside, box).tolist() == [True]
    assert points_in_box(outside, box).tolist() == [False]


def test_points_in_box_rigid_transform_invariant():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4, 4, size=(200, 3))
    box = Box3D((0.5, -0.3, 0.2), (3.0, 1.5, 1.2), 0.7)
    base = points_in_box(PointCloud(pts), box)
    for _ in range(5):
        ang = float(rng.uniform(-np.pi, np.pi))
        shift = rng.uniform(-10, 10, size=3)
        rot = np.array([[np.cos(ang), -np.sin(ang), 0],
                        [np.sin(ang), np.cos(ang), 0],
                        [0, 0, 1.0]])
        moved_pts = pts @ rot.T + shift
        moved_box = Box3D(rot @ box.center + shift, box.size, box.yaw + ang)
        assert np.array_equal(points_in_box(PointCloud(moved_pts), moved_box), base)


# ---------------------------------------------------------------------------
# box IoU
# ---------------------------------------------------------------------------

def mc_iou_bev(a: Box3D, b: Box3D, n_samples: int, seed: int) -> float:
    """Monte-Carlo oracle: sample the union AABB, count footprint membership."""
    rng = np.random.default_rng(seed)
    corners = np.vstack([a.bev_corners(), b.bev_corners()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    xy = rng.uniform(lo, hi, size=(n_samples, 2))
    pts = np.column_stack([xy, np.zeros(len(xy))])

    def in_bev(box):
        d = pts[:, :2] - box.center[:2]
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        x = c * d[:, 0] + s * d[:, 1]
        y = -s * d[:, 0] + c * d[:, 1]
        return (np.abs(x) <= box.size[0] / 2) & (np.abs(y) <= box.size[1] / 2)

    ina, inb = in_bev(a), in_bev(b)
    either = np.count_nonzero(ina | inb)
    if either == 0:
        return 0.0
    return np.count_nonzero(ina & inb) / either


def random_box_pair(rng):
    a = Box3D(rng.uniform(-2, 2, size=3), rng.uniform(0.5, 4.0, size=3),
              rng.uniform(-np.pi, np.pi))
    b = Box3D(a.center + rng.uniform(-2, 2, size=3), rng.uniform(0.5, 4.0, size=3),
              rng.uniform(-np.pi, np.pi))
    return a, b


def test_iou_identical_boxes():
    box = Box3D((1, 2, 3), (3.9, 1.6, 1.56), 0.3)
    assert box_iou(box, box, "bev") == 1.0
    assert box_iou(box, box, "3d") == 1.0


def test_iou_disjoint_boxes():
    a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    b = Box3D((10, 0, 0), (1, 1, 1), 0.5)
    assert box_iou(a, b, "bev") == 0.0
    assert box_iou(a, b, "3d") == 0.0


def test_iou_offset_unit_cubes():
    # overlap 0.5 x 1 (x 1), union 2 - 0.5 -> exactly 1/3 in both modes
    a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    b = Box3D((0.5, 0, 0), (1, 1, 1), 0.0)
    assert box_iou(a, b, "bev") == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert box_iou(a, b, "3d") == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_iou_symmetry_self_and_range():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = random_box_pair(rng)
        for mode in ("bev", "3d"):
            v = box_iou(a, b, mode)
            assert v == box_iou(b, a, mode)
            assert 0.0 <= v <= 1.0
        assert box_iou(a, a, "bev") == 1.0


def test_iou_z_overlap_matters():
    a = Box3D((0, 0, 0), (2, 2, 2), 0.0)
    b = Box3D((0, 0, 5), (2, 2, 2), 0.0)
    assert box_iou(a, b, "bev") == 1.0
    assert box_iou(a, b, "3d") == 0.0


def test_iou_matches_monte_carlo_quick():
    # smaller version of the acceptance check: 20 pairs, 2e5 samples
    rng = np.random.default_rng(13)
    for trial in range(20):
        a, b = random_box_pair(rng)
        approx = mc_iou_bev(a, b, 200_000, seed=trial)
        assert abs(box_iou(a, b, "bev") - approx) < 0.02


def test_iou_invalid_mode():
    box = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    with pytest.raises(ValueError):
        box_iou(box, box, "volumetric")


# ---------------------------------------------------------------------------
# domain type validation
# ---------------------------------------------------------------------------

def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0, 0]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), intensity=np.array([0.5]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), intensity=np.array([1.5]))


def test_box_validation_and_yaw_wrap():
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 0, 1), 0.0)
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 1, 1), 0.0, score=1.5)
    assert Box3D((0, 0, 0), (1, 1, 1), np.pi).yaw == pytest.approx(-np.pi)
    assert Box3D((0, 0, 0), (1, 1, 1), 3 * np.pi / 2).yaw == pytest.approx(-np.pi / 2)
