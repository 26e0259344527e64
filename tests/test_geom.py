import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disptrack import geom
from disptrack.geom import (
    Box3D,
    PointCloud,
    ball_query,
    box_iou,
    box_owner,
    farthest_point_sample,
    nearest,
    points_in_box,
)


def cloud_of(*pts):
    return PointCloud(np.array(pts, dtype=float))


def nearest_both_ways(query, points, k):
    """nearest's (order, dist) from its dense path, which it takes for inputs
    this small, then from its grid path, which it takes for large ones."""
    dense = nearest(query, points, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "_DENSE_MAX_PAIRS", 0)
        return dense, nearest(query, points, k)


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


def sample_alone(cloud, m, start):
    """farthest_point_sample over one cloud."""
    [idx] = farthest_point_sample([cloud], m, [start])
    return idx


def test_fps_single_point():
    assert sample_alone(cloud_of((0, 0, 0)), 1, 0).tolist() == [0]


def test_fps_picks_farthest_then_next():
    c = cloud_of((0, 0, 0), (1, 0, 0), (10, 0, 0))
    assert sample_alone(c, 2, 0).tolist() == fps_oracle(c.points, 2, 0) == [0, 2]


def test_fps_full_sample_is_permutation():
    rng = np.random.default_rng(0)
    c = PointCloud(rng.normal(size=(40, 3)))
    idx = sample_alone(c, 40, 7)
    assert sorted(idx.tolist()) == list(range(40))


def test_fps_matches_oracle_on_random_clouds():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.normal(size=(12, 3))
        c = PointCloud(pts)
        m = int(rng.integers(1, 13))
        start = int(rng.integers(0, 12))
        assert sample_alone(c, m, start).tolist() == fps_oracle(pts, m, start)


def test_fps_handles_duplicate_points():
    c = cloud_of((0, 0, 0), (0, 0, 0), (1, 0, 0))
    idx = sample_alone(c, 3, 0)
    assert sorted(idx.tolist()) == [0, 1, 2]


def test_fps_invalid_arguments():
    c = cloud_of((0, 0, 0))
    with pytest.raises(ValueError):
        sample_alone(c, 2, 0)
    with pytest.raises(ValueError):
        sample_alone(c, 0, 0)
    with pytest.raises(ValueError):
        sample_alone(c, 1, 5)
    with pytest.raises(ValueError):
        sample_alone(PointCloud(np.empty((0, 3))), 1, 0)
    two = [c, cloud_of((0, 0, 0), (1, 0, 0))]
    with pytest.raises(ValueError, match="2 clouds need as many"):
        farthest_point_sample(two, 1, [0])
    with pytest.raises(ValueError, match="2 clouds need as many"):
        farthest_point_sample(two, 1, [0, 0, 0])
    # One count per call: a count per cloud is rejected, not sampled.
    for count in ([1, 1], np.array([1, 1]), 1.0, True):
        with pytest.raises(ValueError, match="^sample count must be an integer, got"):
            farthest_point_sample(two, count, [0, 0])
    with pytest.raises(ValueError, match="^start indices must hold int values, got dtype float"):
        farthest_point_sample(two, 1, [0.0, 0.0])
    with pytest.raises(ValueError, match=r"sample count must lie in \[1, 1\], got 2"):
        farthest_point_sample(two, 2, [0, 0])
    assert farthest_point_sample([], 3, []) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 16), min_size=1, max_size=6), st.data())
def test_fps_lock_step_matches_oracle_and_each_cloud_alone(sizes, data):
    # Integer coordinates in [-2, 2]: duplicates and equal distances in every
    # cloud, and clouds of several sizes, so the shorter ones are padded.
    clouds, starts = [], []
    for n in sizes:
        coords = data.draw(st.lists(st.integers(-2, 2), min_size=3 * n, max_size=3 * n))
        clouds.append(PointCloud(np.array(coords, dtype=float).reshape(n, 3)))
        starts.append(data.draw(st.integers(0, n - 1)))
    m = data.draw(st.integers(1, min(sizes)))
    picks = farthest_point_sample(clouds, m, starts)
    assert len(picks) == len(clouds)
    for cloud, start, idx in zip(clouds, starts, picks):
        assert idx.tolist() == fps_oracle(cloud.points, m, start)
        alone = sample_alone(cloud, m, start)
        assert idx.dtype == alone.dtype and idx.tobytes() == alone.tobytes()


def test_fps_lock_step_equals_each_float_cloud_alone():
    rng = np.random.default_rng(3)
    clouds = [PointCloud(rng.normal(scale=5.0, size=(n, 3)))
              for n in (200, 37, 512, 1, 300)]
    counts = [37, 37, 256, 1, 256]
    starts = [int(rng.integers(len(c))) for c in clouds]
    # One lock-step call per distinct count, as layers.sample_centroids makes.
    picks = [None] * len(clouds)
    for m in dict.fromkeys(counts):
        which = [i for i, count in enumerate(counts) if count == m]
        group = farthest_point_sample([clouds[i] for i in which], m,
                                      [starts[i] for i in which])
        for i, idx in zip(which, group):
            picks[i] = idx
    for cloud, m, start, idx in zip(clouds, counts, starts, picks):
        alone = sample_alone(cloud, m, start)
        assert idx.dtype == alone.dtype and idx.tobytes() == alone.tobytes()
    # A smaller count gives each cloud the prefix of its longer run.
    same = farthest_point_sample(clouds[:3], 30, starts[:3])
    assert all(a.tobytes() == b[:30].tobytes() for a, b in zip(same, picks))


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
        fps_idx = sample_alone(cloud, m, int(rng.integers(0, len(pts))))
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
        assert sample_alone(PointCloud(pts), m, start).tolist() == fps_oracle(pts, m, start)


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
    for idx, dist in nearest_both_ways(query, pts, 3):
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
    ref_idx, ref_dist = lexsort_reference(query, points, k)
    for idx, dist in nearest_both_ways(query, points, k):
        assert idx.tolist() == ref_idx.tolist()
        assert dist.tolist() == ref_dist.tolist()


@st.composite
def cluster_case(draw):
    # A dense integer cluster sets the grid's first radius near 1; queries and
    # points far out need several doublings before k points are in range.
    near = st.integers(-1, 1)
    far = st.integers(-60, 60)
    cluster = draw(st.lists(st.tuples(near, near, near), min_size=8, max_size=30))
    sparse = draw(st.lists(st.tuples(far, far, far), min_size=1, max_size=5))
    points = np.array(cluster + sparse, dtype=float)
    anywhere = st.sampled_from(cluster + sparse) | st.tuples(far, far, far)
    query = np.array(draw(st.lists(anywhere, min_size=1, max_size=8)), dtype=float)
    return query, points, draw(st.integers(1, len(points)))


@settings(max_examples=100, deadline=None)
@given(cluster_case())
def test_nearest_matches_lexsort_reference_on_a_cluster_with_far_points(case):
    query, points, k = case
    ref_idx, ref_dist = lexsort_reference(query, points, k)
    for idx, dist in nearest_both_ways(query, points, k):
        assert idx.tolist() == ref_idx.tolist()
        assert dist.tolist() == ref_dist.tolist()


@pytest.mark.parametrize("k", [1, 3, 8])
def test_nearest_grid_equals_dense_bit_for_bit_on_float_clouds(k):
    # Non-integer coordinates round differently under another summation
    # order, so this pins the grid path to the dense arithmetic.
    # Exact ties too: copies of 40 points, and twelve points around each of
    # six far centres at one exactly computed distance (signed permutations
    # of dyadic offsets), more than k, so ties cross the k-th slot.
    rng = np.random.default_rng(k)
    cloud = np.vstack([rng.normal(size=(250, 3)),
                       rng.normal(scale=0.05, size=(50, 3)) + 4.0])
    centres = np.array([[10.0, 10, 10], [10, 10, -10], [-10, 10, 10], [10, -10, 10],
                        [-10, -10, -10], [20, 0, 0]])
    offsets = np.array(list(itertools.permutations([0.25, 0.5, 0.75])))
    shells = (centres[:, None, :] + np.vstack([offsets, -offsets])).reshape(-1, 3)
    points = np.vstack([cloud, cloud[:40], shells])
    query = np.vstack([rng.normal(scale=2.0, size=(150, 3)), points[::7] + 1e-3, centres])
    dense, grid = nearest_both_ways(query, points, k)
    assert dense[0].tobytes() == grid[0].tobytes()
    assert dense[1].tobytes() == grid[1].tobytes()
    assert (dense[1][-6:] == np.sqrt(0.875)).all()
    assert (dense[0][-6:] == 340 + 12 * np.arange(6)[:, None] + np.arange(k)).all()
    copies = np.arange(301, 340, 7)     # queries next to a copied point
    assert (dense[0][150 + copies // 7, 0] == copies - 300).all()


#: Clouds whose median k-th distance (k = 3) is 0 or far below the spacing
#: of the rest: four copies of five integer points, and points 1e-150 apart
#: at the origin next to copies of two integer points.
FLAT_CLOUDS = {
    "duplicates": np.repeat(np.random.default_rng(0).integers(-5, 6, size=(5, 3)), 4,
                            axis=0),
    "tiny spacing": np.vstack([np.outer(np.arange(12) * 1e-150, [1, 0, 0]),
                               np.repeat([[3, -2, 1], [-4, 0, 2]], 4, axis=0)]),
}


@pytest.mark.parametrize("cloud", FLAT_CLOUDS)
def test_nearest_grid_rounds_stay_few_on_flat_clouds(cloud, monkeypatch):
    # The first radius is floored, so the outlier query doubles its way out
    # to the cloud in about 21 rounds, not one per binade from 1e-150 or 0.
    # Integer and single-axis coordinates keep the reference's distances
    # exact.
    points = FLAT_CLOUDS[cloud].astype(float)
    query = np.vstack([points, [[1e6, -1e6, 1e6]]])
    radii = []

    def counted(*args):
        radii.append(args[2])
        return ball_query(*args)
    monkeypatch.setattr(geom, "_DENSE_MAX_PAIRS", 0)
    monkeypatch.setattr(geom, "ball_query", counted)
    idx, dist = nearest(query, points, 3)
    ref_idx, ref_dist = lexsort_reference(query, points, 3)
    assert idx.tolist() == ref_idx.tolist()
    assert dist.tolist() == ref_dist.tolist()
    assert radii[0] > 0.5
    assert len(radii) <= 25


def test_nearest_rejects_non_finite_coordinates():
    # ball_query shares the check: a NaN cell coordinate would leave its row
    # with no valid slot, which the pooling kernels assume never happens.
    points = np.zeros((4, 3))
    for select in (lambda q, p: nearest(q, p, 2), lambda q, p: ball_query(q, p, 1.0, 2)):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                select([(bad, 0.0, 0.0), (0.0, 0.0, 0.0)], points)
            with pytest.raises(ValueError, match="finite"):
                select([(0.0, 0.0, 0.0)], np.vstack([points, [[0.0, bad, 0.0]]]))


def test_every_selection_path_measures_with_pair_distances(monkeypatch):
    # One distance routine keeps the paths bit-equal; the dense path used to
    # keep its own in-place copy of the arithmetic.
    rng = np.random.default_rng(8)
    query, points = rng.normal(size=(30, 3)), rng.normal(size=(60, 3))
    real, shapes = geom._pair_distances, []

    def recording(*args):
        dist = real(*args)
        shapes.append(dist.shape)
        return dist
    monkeypatch.setattr(geom, "_pair_distances", recording)
    nearest(query, points, 5)
    assert shapes == [(30, 60)]
    shapes.clear()
    ball_query(query, points, 1.0, 5)
    assert len(shapes) == 1 and len(shapes[0]) == 1     # the candidate pairs
    shapes.clear()
    monkeypatch.setattr(geom, "_DENSE_MAX_PAIRS", 0)
    nearest(query, points, 5)
    # The first radius's dense estimate, one ball_query per radius, and the
    # distances of the result.
    assert shapes[0] == (30, 60) and shapes[-1] == (30, 5) and len(shapes) >= 3


def test_dense_nearest_at_the_paper_head_shape_holds_no_extra_matrix():
    # The association head's training shape: 512 x 512 points, k = 64.  The
    # bound is the traced peak, for these inputs, of the dense path when it
    # computed its distances inline with np.subtract.outer; one more
    # (512, 512) float array would add 2 MB.
    rng = np.random.default_rng(64)
    query, points = rng.uniform(-10.0, 10.0, size=(2, 512, 3))
    nearest(query, points, 64)
    tracemalloc.start()
    try:
        nearest(query, points, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_548_134, peak


# ---------------------------------------------------------------------------
# ball query
# ---------------------------------------------------------------------------

def in_radius(center, radius, points, cap):
    order, valid = ball_query([center], points, radius, min(cap, len(points)))
    return order[0][valid[0]]


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
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            in_radius((0, 0, 0), radius, c.points, 4)


def test_ball_query_keeps_a_point_at_the_radius_across_a_cell_boundary():
    # The query sits just below zero and the point exactly one radius away on
    # the other side; with a cell edge of exactly the radius they would fall
    # in cells -1 and 1, which are not neighbours.
    order, valid = ball_query([(-1e-17, 0, 0)], [(5.0, 0, 0), (1.0, 0, 0)], 1.0, 2)
    assert order.tolist() == [[1, 1]]
    assert valid.tolist() == [[True, False]]


def test_ball_query_radius_far_below_the_coordinates():
    # Cell coordinates of about 1e300 would not fit int64; the edge is kept
    # wide enough relative to the coordinates that they do.
    pts = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order, valid = ball_query(pts, pts, 1e-300, 3)
    assert valid.tolist() == [[True, True, False]] * 2 + [[True, False, False]]
    assert order[valid].tolist() == [0, 1, 0, 1, 2]


def test_ball_query_validates_and_handles_no_queries():
    pts = np.zeros((3, 3))
    for cap in (0, 4):
        with pytest.raises(ValueError, match="cap"):
            ball_query(pts, pts, 1.0, cap)
    # True used to run as 1.0, and "1.0" or None raised a bare TypeError.
    for radius in (0.0, -1.0, float("nan"), True, "1.0", None):
        message = f"^radius must be finite and positive, got {re.escape(repr(radius))}$"
        with pytest.raises(ValueError, match=message):
            ball_query(pts, pts, radius, 2)
    order, valid = ball_query(np.zeros((0, 3)), pts, 1.0, 2)
    assert order.shape == valid.shape == (0, 2)


def test_ball_query_finds_points_where_the_cell_key_wraps():
    # At radius 0.5 the query's cell is 2**21 - 1 along every axis, whose
    # key is INT64_MAX; the cell above it in z has key INT64_MIN, so the
    # query's own column of three cells wraps from the top of the key order
    # to the bottom.
    query = np.full((1, 3), 1048575.75)
    for edge in (0.5, 0.5 * (1 + 1e-8)):
        assert geom._cell_keys(query, edge).tolist() == [np.iinfo(np.int64).max]
        assert geom._cell_keys(query + [0, 0, 0.4], edge).tolist() == [np.iinfo(np.int64).min]
    points = query + np.array([[3.0, 0, 0], [0, 0, 0.4], [0, 0, -0.3], [0.3, 0, 0],
                               [0, 0, 0.6], [0, 0, 0.45]])
    order, valid = ball_query(query, points, 0.5, 5)
    near, dist = nearest(query, points, 5)
    inside = dist <= 0.5
    assert inside.sum() == 4
    assert valid.tolist() == inside.tolist()
    assert order[valid].tolist() == near[inside].tolist()


def test_rank_pairs_refuses_a_key_past_int64():
    # The key (row * distinct + rank) * n + cand stays below q * distinct * n:
    # with 2 queries and 2 distinct distances, n = 2**60 fits and 2**61 does
    # not.  The (q, cap) results stay small either way.
    row, dist, cand = np.array([0, 0, 1]), np.array([2.0, 1.0, 1.0]), np.array([0, 1, 0])
    order, valid = geom._rank_pairs(row, dist, cand, 2, 2 ** 60, 2)
    assert order.tolist() == [[1, 0], [0, 0]]
    assert valid.tolist() == [[True, True], [True, False]]
    with pytest.raises(ValueError, match="int64"):
        geom._rank_pairs(row, dist, cand, 2, 2 ** 61, 2)


#: Radii equal to grid distances (so points lie exactly at the radius), a
#: half step, and radii far below the grid step and far above the extent.
RADII = (1e-6, 0.5, 1.0, float(np.sqrt(2.0)), float(np.sqrt(3.0)), 2.0, 3.0, 1e6)


@st.composite
def ball_case(draw):
    query, points, cap = draw(grid_case())
    # More queries: cloud points moved half a step, or moved just below zero
    # on some axes, where a point one radius away across zero would be two
    # cells off if the cell edge equalled the radius.
    shift = st.sampled_from((0.0, 0.5, -1e-17))
    moves = draw(st.lists(st.tuples(st.integers(0, len(points) - 1), shift, shift, shift),
                          max_size=4))
    moved = [points[i] + np.array(offset) for i, *offset in moves]
    return np.vstack([query, *moved]), points, draw(st.sampled_from(RADII)), cap


@settings(max_examples=300, deadline=None)
@given(ball_case())
def test_ball_query_equals_masked_nearest_on_integer_grids(case):
    query, points, radius, cap = case
    order, valid = ball_query(query, points, radius, cap)
    near, dist = nearest(query, points, cap)
    inside = dist <= radius
    assert valid.tolist() == inside.tolist()
    assert order[valid].tolist() == near[inside].tolist()
    # Invalid slots repeat slot 0, and a row with no point in radius is all 0.
    assert order.tolist() == np.where(valid, order, order[:, :1]).tolist()
    assert not order[~valid[:, 0]].any()


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


def owner_loop(cloud, boxes):
    """The per-box first-wins loop that box_owner replaced."""
    owner = np.full(len(cloud), -1)
    assigned = np.zeros(len(cloud), dtype=bool)
    for i, box in enumerate(boxes):
        inside = points_in_box(cloud, box) & ~assigned
        owner[inside] = i
        assigned |= inside
    return owner


@st.composite
def owner_case(draw):
    # Integer centres and even sizes near one another, so boxes overlap and
    # the faces of unrotated boxes (drawn twice as often as each rotation)
    # pass exactly through integer grid points.
    coord = st.integers(-2, 2)
    boxes = [Box3D(draw(st.tuples(coord, coord, coord)),
                   2 * np.array(draw(st.tuples(*[st.integers(1, 3)] * 3))),
                   draw(st.sampled_from((0.0, 0.0, 0.4, -1.2, np.pi / 4, 2.5))),
                   track_id=t)
             for t in range(draw(st.integers(0, 5)))]
    grid = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * 3), max_size=40))
    seed = draw(st.integers(0, 2 ** 16))
    scattered = np.random.default_rng(seed).uniform(-5, 5, size=(30, 3))
    return boxes, np.vstack([np.array(grid, dtype=float).reshape(-1, 3), scattered])


@settings(max_examples=200, deadline=None)
@given(owner_case())
def test_box_owner_matches_the_first_wins_loop(case):
    boxes, points = case
    cloud = PointCloud(points)
    owner = box_owner(cloud, boxes)
    assert owner.dtype == np.intp and owner.shape == (len(cloud),)
    assert owner.tolist() == owner_loop(cloud, boxes).tolist()

    inside = np.array([points_in_box(cloud, box) for box in boxes]).reshape(-1, len(cloud))
    assert (owner == -1).tolist() == (~inside.any(axis=0)).tolist()
    for j, i in enumerate(owner):
        if i >= 0:   # the first box that contains the point
            assert inside[i, j] and not inside[:i, j].any()

    # The corners of an unrotated box lie exactly on its boundary, which
    # counts as inside: each goes to that box or to an earlier one.
    for i, box in enumerate(boxes):
        if box.yaw == 0.0:
            half = box.size / 2.0
            corners = box.center + half * np.array(list(itertools.product((-1, 1), repeat=3)))
            corner_owner = box_owner(PointCloud(corners), boxes)
            assert ((0 <= corner_owner) & (corner_owner <= i)).all()


def test_box_owner_without_boxes_or_points():
    cloud = PointCloud(np.zeros((3, 3)))
    assert box_owner(cloud, []).tolist() == [-1, -1, -1]
    assert box_owner(PointCloud(np.zeros((0, 3))), [Box3D((0, 0, 0), (1, 1, 1), 0.0)]
                     ).shape == (0,)


#: (call, message) per Box3D field of the wrong shape or type.
BOX_CASES = {
    "both-reshaped": (lambda: Box3D(np.zeros((3, 1)), np.ones((1, 3)), 0.0),
                      "center must be a 1-D array, got shape (3, 1)"),
    "size-row": (lambda: Box3D(np.zeros(3), np.ones((1, 3)), 0.0),
                 "size must be a 1-D array, got shape (1, 3)"),
    "center-length": (lambda: Box3D(np.zeros(2), np.ones(3), 0.0),
                      "box center and size need 3 entries, got 2 and 3"),
    "center-bool": (lambda: Box3D(np.array([True, False, True]), np.ones(3), 0.0),
                    "center must hold float values, got dtype bool"),
    "size-bool": (lambda: Box3D(np.zeros(3), np.ones(3, dtype=bool), 0.0),
                  "size must hold float values, got dtype bool"),
    "yaw-bool": (lambda: Box3D(np.zeros(3), np.ones(3), True),
                 "yaw must be finite and real, got True"),
    "yaw-string": (lambda: Box3D(np.zeros(3), np.ones(3), "0.5"),
                   "yaw must be finite and real, got '0.5'"),
    "track-float": (lambda: Box3D(np.zeros(3), np.ones(3), 0.0, track_id=1.5),
                    "track_id must be an integer, got 1.5"),
    "track-bool": (lambda: Box3D(np.zeros(3), np.ones(3), 0.0, track_id=True),
                   "track_id must be an integer, got True"),
    "offset-short": (lambda: Box3D(np.zeros(3), np.ones(3), 0.0).translated([1.0]),
                     "offset needs 3 entries, got 1"),
    "offset-bool": (lambda: Box3D(np.zeros(3), np.ones(3), 0.0).translated([True, False, False]),
                    "offset must hold float values, got dtype bool"),
}


@pytest.mark.parametrize("case", BOX_CASES)
def test_box_keeps_the_shapes_and_types_of_its_fields(case):
    # Each used to pass: a (3, 1) centre and a (1, 3) size were reshaped, a
    # bool centre read as numbers, a yaw of True as 1.0, track_id=1.5 was
    # kept, and translated([1.0]) moved a box by (1, 1, 1).
    call, message = BOX_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_box_takes_integer_coordinates_and_track_ids():
    box = Box3D((0, 0, 0), (2, 2, 2), 0, track_id=np.int64(3))
    assert box.center.dtype == box.size.dtype == np.float64
    assert box.center.shape == box.size.shape == (3,)
    assert type(box.yaw) is float and box.yaw == 0.0
    assert type(box.track_id) is int and box.track_id == 3


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
    assert box_iou(box, box) == 1.0


def test_iou_disjoint_boxes():
    a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    b = Box3D((10, 0, 0), (1, 1, 1), 0.5)
    assert box_iou(a, b) == 0.0


def test_iou_offset_unit_cubes():
    # overlap 0.5 x 1, union 2 - 0.5 -> exactly 1/3
    a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    b = Box3D((0.5, 0, 0), (1, 1, 1), 0.0)
    assert box_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_iou_symmetry_self_and_range():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = random_box_pair(rng)
        v = box_iou(a, b)
        assert v == box_iou(b, a)
        assert 0.0 <= v <= 1.0
        assert box_iou(a, a) == 1.0


def test_iou_z_overlap_matters():
    # IoU is bird's-eye-view: boxes stacked in z, with no height overlap,
    # share their whole footprint.  The clip reaches this full overlap
    # without the identical-box shortcut, as the centres differ.
    a = Box3D((0, 0, 0), (2, 2, 2), 0.0)
    b = Box3D((0, 0, 5), (2, 2, 2), 0.0)
    assert box_iou(a, b) == 1.0


def test_iou_matches_monte_carlo_quick():
    # smaller version of the acceptance check: 20 pairs, 2e5 samples
    rng = np.random.default_rng(13)
    for trial in range(20):
        a, b = random_box_pair(rng)
        approx = mc_iou_bev(a, b, 200_000, seed=trial)
        assert abs(box_iou(a, b) - approx) < 0.02


# ---------------------------------------------------------------------------
# domain type validation
# ---------------------------------------------------------------------------

def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0, 0]]))


XYZ = np.zeros((4, 3))


@pytest.mark.parametrize("shape", [(6, 4), (3, 2), (3,)])
@pytest.mark.parametrize("take", [
    pytest.param(PointCloud, id="PointCloud"),
    pytest.param(lambda a: nearest(XYZ, a, 1), id="nearest-points"),
    pytest.param(lambda a: nearest(a, XYZ, 1), id="nearest-query"),
    pytest.param(lambda a: ball_query(XYZ, a, 1.0, 1), id="ball_query-points"),
    pytest.param(lambda a: ball_query(a, XYZ, 1.0, 1), id="ball_query-query"),
])
def test_coordinates_must_be_n_by_3(take, shape):
    # Every array used to be reshaped to (-1, 3): (6, 4) rows of x, y, z and
    # reflectance became 8 scrambled points, (3, 2) became 2 and (3,) one.
    array = np.arange(float(np.prod(shape))).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(f"an (n, 3) array, got shape {shape}")):
        take(array)


@pytest.mark.parametrize("call, name, value", [
    (lambda k: nearest(XYZ, XYZ, k), "k", 2.0),
    (lambda k: nearest(XYZ, XYZ, k), "k", True),
    (lambda k: nearest(XYZ, XYZ, k), "k", "2"),
    (lambda cap: ball_query(XYZ, XYZ, 1.0, cap), "cap", 2.5),
    (lambda cap: ball_query(XYZ, XYZ, 1.0, cap), "cap", True),
    (lambda cap: ball_query(XYZ, XYZ, 1.0, cap), "cap", None),
], ids=["nearest-2.0", "nearest-True", "nearest-str", "ball_query-2.5",
        "ball_query-True", "ball_query-None"])
def test_neighbour_counts_must_be_integers(call, name, value):
    # These used to raise numpy's own TypeErrors, such as "Partition index
    # must be integer", or for True to run as 1.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)
    assert call(np.int64(2))[0].shape == (4, 2)


def test_box_validation_and_yaw_wrap():
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 0, 1), 0.0)
    for yaw in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="yaw must be finite"):
            Box3D((0, 0, 0), (1, 1, 1), yaw)
    assert Box3D((0, 0, 0), (1, 1, 1), np.pi).yaw == pytest.approx(-np.pi)
    assert Box3D((0, 0, 0), (1, 1, 1), 3 * np.pi / 2).yaw == pytest.approx(-np.pi / 2)
