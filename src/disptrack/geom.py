"""Deterministic point-cloud and oriented-box geometry kernels.

Everything here is a pure function over float64 numpy arrays: no state, no
randomness.  A PointCloud holds a frame's point coordinates and nothing
else.  Boxes are oriented in the horizontal plane (yaw about +z) and sized
as (length, width, height), length along the box x axis; centre, size and
yaw must be finite.  Argmax and nearest-neighbour ties break to the lowest index.

``farthest_point_sample`` samples many clouds in lock-step, one pick of
every cloud per step and one pick count for them all; a shorter cloud is
padded with points that never win, so each cloud's picks are those of
sampling it alone.

A point belongs to the first box of a list that contains it, the boundary
counting as inside: ``box_owner``.  Detection masks, input features,
training targets and the displacement augmentation all read this one rule.

Neighbours are selected two ways: ``nearest`` gives the k nearest points
with no radius (feature propagation, association), and ``ball_query`` the
nearest points within a radius, up to a cap (set abstraction).  Both rank
with one routine, ``_rank_pairs``, over one of two candidate sources: every
pair at or below each row's k-th distance in a dense distance matrix (small
``nearest`` inputs), or the in-radius points of a grid search
(``ball_query``, which large ``nearest`` inputs run at a growing radius).
Every path measures with ``_pair_distances``, so they agree bit for bit.

``ball_query`` finds a query's 27 neighbouring cells as 9 runs of the
points sorted by int64 cell key (one per column of three z-adjacent cells,
whose keys are consecutive); a run that wraps from INT64_MAX to INT64_MIN
continues at the start of the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians into [-pi, pi)."""
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(eq=False)
class PointCloud:
    """A frame of 3-D points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point coordinates must be finite")

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(eq=False)
class Box3D:
    """Oriented 3-D bounding box with an optional track id."""

    center: np.ndarray
    size: np.ndarray
    yaw: float
    track_id: int | None = None

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.size = np.asarray(self.size, dtype=float).reshape(3)
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.size))
                and np.isfinite(self.yaw)):
            raise ValueError("box center, size and yaw must be finite")
        if np.any(self.size <= 0.0):
            raise ValueError("box size components must be strictly positive")
        self.yaw = wrap_angle(float(self.yaw))

    def translated(self, offset) -> "Box3D":
        return Box3D(self.center + np.asarray(offset, dtype=float), self.size.copy(),
                     self.yaw, track_id=self.track_id)

    def bev_corners(self) -> np.ndarray:
        """Counter-clockwise footprint corners, shape (4, 2)."""
        hl, hw = self.size[0] / 2.0, self.size[1] / 2.0
        base = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return base @ rot.T + self.center[:2]

    def z_interval(self) -> tuple[float, float]:
        half = self.size[2] / 2.0
        return float(self.center[2] - half), float(self.center[2] + half)

    @property
    def bev_area(self) -> float:
        return float(self.size[0] * self.size[1])

    @property
    def volume(self) -> float:
        return float(self.size[0] * self.size[1] * self.size[2])


def farthest_point_sample(clouds, m: int, starts) -> list[np.ndarray]:
    """Farthest-point sampling of several clouds in lock-step.

    clouds is a sequence of PointClouds, m the one pick count of them all
    and starts one start index per cloud.  Each cloud yields m indices: its
    start, then repeatedly the point with the largest squared distance to
    the points chosen so far, ties to the lowest index.  Each result equals
    that of sampling its cloud alone, bit for bit.

    Each pick runs for every cloud at once: one (3, clouds, n) subtract,
    square and sum, one ``np.minimum`` into the (clouds, n) array of best
    distances and one row-wise argmax.  Shorter clouds are padded to the
    longest with points whose best distance starts at -1, as a chosen
    point's is set to -1.  A squared distance is never negative, so the
    minimum keeps them at -1, and as no cloud has fewer than m points, they
    win no pick.
    """
    starts = np.asarray(starts)
    if starts.shape != (len(clouds),):
        raise ValueError(f"{len(clouds)} clouds need as many start indices, "
                         f"got {starts.size}")
    if not len(clouds):
        return []
    if (isinstance(m, bool) or not isinstance(m, (int, np.integer))
            or starts.dtype.kind not in "iu"):
        raise ValueError(f"the sample count and start indices must be integers, "
                         f"got {m!r} and {starts.dtype}")
    sizes = np.array([len(cloud) for cloud in clouds], dtype=np.intp)
    for n, start in zip(sizes, starts):
        if n == 0:
            raise ValueError("cannot sample from an empty cloud")
        if not 1 <= m <= n:
            raise ValueError(f"sample count must lie in [1, {n}], got {m}")
        if not 0 <= start < n:
            raise ValueError(f"start index {start} out of range for {n} points")

    c, n = len(clouds), sizes.max()
    coords = np.zeros((3, c, n))            # one contiguous (c, n) block per axis
    best = np.full((c, n), -1.0)            # squared distance to the chosen set
    for i, cloud in enumerate(clouds):
        coords[:, i, :sizes[i]] = cloud.points.T
        best[i, :sizes[i]] = np.inf
    flat = coords.reshape(3, c * n)
    row_start = np.arange(c) * n
    at = np.empty(c, dtype=np.intp)         # flat positions of the last picks
    diff = np.empty_like(coords)
    step = np.empty((c, n))
    chosen = np.empty((m, c), dtype=np.intp)
    chosen[0] = starts
    for i in range(1, m):
        np.add(row_start, chosen[i - 1], out=at)
        np.subtract(coords, flat.take(at, axis=1)[:, :, None], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(diff[0], diff[1], out=step)
        step += diff[2]
        np.minimum(best, step, out=best)
        best.put(at, -1.0)
        best.argmax(axis=1, out=chosen[i])
    return [picks.copy() for picks in chosen.T]


def _finite_coordinates(query, points) -> tuple[np.ndarray, np.ndarray]:
    """query and points as float (q, 3) and (n, 3) arrays; raises ValueError
    if any coordinate is NaN or infinite."""
    query = np.asarray(query, dtype=float).reshape(-1, 3)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not (np.isfinite(query).all() and np.isfinite(points).all()):
        raise ValueError("query and point coordinates must be finite")
    return query, points


#: Largest input, in query-point pairs (q * n), for which ``nearest`` scores
#: every pair; larger ones search a grid.  Measured on the paper-scale layer
#: inputs, the grid is faster from about 2**18 pairs for k = 3 (2**20 pairs:
#: 13 ms against 26 ms) and 2**19 for k = 16; for k = 64 it is at best as
#: fast (2**22 pairs) and four times slower at the association head's
#: 512 x 512.
_DENSE_MAX_PAIRS = 2 ** 19


def nearest(query, points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest points to each query row, and their distances.

    query is (q, 3) and points is (n, 3); both results are (q, k).  Each row
    ascends by Euclidean distance with equal distances in index order, also
    across the k-th distance: row i equals
    ``np.argsort(d_i, kind="stable")[:k]`` for the distances d_i of query i.

    Two strategies give this result bit for bit, chosen by input size:

    * q * n up to ``_DENSE_MAX_PAIRS``: score every pair in a (q, n) distance
      matrix, keep each row's points at or below its k-th distance (ties
      included) and rank them with ``_rank_pairs``.
    * larger inputs: ``ball_query`` at a radius doubled until each row's k
      slots fill.  A filled row is exact: every point at or below its k-th
      distance lies within the radius, and ``ball_query`` ranks in-radius
      points by (distance, index) from the same distance arithmetic.
    """
    query, points = _finite_coordinates(query, points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if query.shape[0] * n <= _DENSE_MAX_PAIRS:
        return _nearest_dense(query, points, k)
    return _nearest_grid(query, points, k)


def _nearest_dense(query: np.ndarray, points: np.ndarray, k: int):
    q, n = query.shape[0], points.shape[0]
    dist = _pair_distances(query, np.arange(q)[:, None], points, np.arange(n))

    # Every point at or below a row's k-th distance, ties included, in row
    # order; ranking keeps the first k of each row.
    pair = np.flatnonzero(dist <= np.partition(dist, k - 1, axis=1)[:, k - 1:k])
    row, cand = np.divmod(pair, n)
    order, _ = _rank_pairs(row, dist.ravel()[pair], cand, q, n, k)
    return order, np.take_along_axis(dist, order, axis=1)


def _nearest_grid(query: np.ndarray, points: np.ndarray, k: int):
    # A row whose k slots ball_query fills is final: every point at or below
    # its k-th distance lies within the radius, so ball_query ranked all of
    # them by (distance, index), as the dense path does.  The other rows try
    # again at twice the radius.
    #
    # The first radius is the median k-th distance of a strided sample of at
    # most 64 queries.  It is floored at 2**-20 of the span (the widest
    # extent along one axis of queries and points together), so where the
    # median is 0 (k duplicates at most queries) or far below the spacing
    # of the other points, the rows left still reach the largest distance,
    # at most sqrt(3) spans, within about 21 doublings.  A span of 0 puts
    # every point on every query, and any radius finds them.
    sample = query[::-(-query.shape[0] // 64)]
    kth = np.median(_nearest_dense(sample, points, k)[1][:, -1])
    both = np.concatenate([query, points])
    span = (both.max(axis=0) - both.min(axis=0)).max()
    radius = max(kth, span * 2.0 ** -20) or 1.0

    order = np.empty((query.shape[0], k), dtype=np.intp)
    todo = np.arange(query.shape[0])
    while todo.size:
        found, valid = ball_query(query[todo], points, radius, k)
        done = valid[:, -1]
        order[todo[done]] = found[done]
        todo = todo[~done]
        radius *= 2.0
    return order, _pair_distances(query, np.arange(query.shape[0])[:, None], points, order)


def _pair_distances(query: np.ndarray, rows, points: np.ndarray, cand) -> np.ndarray:
    """Euclidean distances from query[rows] to points[cand], index arrays
    that broadcast against each other.

    Squares are summed as (dx^2 + dz^2) + dy^2: the order numpy's einsum took
    when tests/data/pipeline_golden.npz was pinned.  Every selection path
    calls this, so equal point pairs get bit-equal distances on each.  One
    axis is squared at a time, in place, so a dense (q, n) call holds two
    (q, n) arrays at most.
    """
    q, p = query.T, points.T
    dist = q[0][rows] - p[0][cand]
    dist *= dist
    sq = np.empty_like(dist)
    for axis in (2, 1):
        np.subtract(q[axis][rows], p[axis][cand], out=sq)
        sq *= sq
        dist += sq
    return np.sqrt(dist, out=dist)


#: Grid key stride per axis: keys of cells whose coordinates stay below 2**20
#: in magnitude are distinct; farther cells may share a key, which only adds
#: candidates that the distance test then drops.  Keys are int64 and wrap,
#: consistently: a neighbouring cell's key is always the query cell's key
#: plus a fixed offset, modulo 2**64.
_KEY_STRIDE = 2 ** 21
#: Key offsets of the 9 (x, y) columns around a cell.  Each column's three
#: cells z - 1, z, z + 1 have consecutive keys, one run of the sorted keys.
_COLUMN_KEYS = np.array([(a * _KEY_STRIDE + b) * _KEY_STRIDE
                         for a in (-1, 0, 1) for b in (-1, 0, 1)])


def _cell_keys(coords: np.ndarray, edge: float) -> np.ndarray:
    cell = np.floor(coords / edge).astype(np.int64)
    return (cell[:, 0] * _KEY_STRIDE + cell[:, 1]) * _KEY_STRIDE + cell[:, 2]


def _rank_pairs(row: np.ndarray, dist: np.ndarray, cand: np.ndarray,
                q: int, n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The first cap candidates of each query row, nearest first, equal
    distances in index order, from (row, dist, cand) triples with row
    ascending in [0, q) and cand in [0, n).  Returns ``ball_query``'s
    (q, cap) indices and slot mask; invalid slots repeat slot 0.

    One argsort ranks the pairs by the int64 key (row * d + rank) * n + cand,
    rank being the dense rank of the distance among the d distinct ones.  The
    key is below q * d * n, which is checked with Python ints to be under
    2**63 (a larger input raises ValueError): ~1.9e11 at paper-scale sa1.
    ``_nearest_dense`` has d <= q * n, so direct calls (q * n <= 2**19) stay
    below 2**38, and the grid's seed of at most 64 queries below 4096 * n**2.
    """
    levels, rank = np.unique(dist, return_inverse=True)
    if q * levels.size * n >= 2 ** 63:
        raise ValueError(f"{q} queries x {levels.size} distinct distances x {n} points "
                         f"overflow the int64 ranking key")
    # row ascends already, and ranking keeps it so.
    cand = cand[np.argsort((row * levels.size + rank) * n + cand)]
    per_row = np.bincount(row, minlength=q)
    slot = np.arange(row.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    kept = np.flatnonzero(slot < cap)

    order = np.zeros((q, cap), dtype=np.intp)
    valid = np.zeros((q, cap), dtype=bool)
    order[row[kept], slot[kept]] = cand[kept]
    valid[row[kept], slot[kept]] = True
    return np.where(valid, order, order[:, :1]), valid


def ball_query(query, points, radius: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to cap points within radius of each query row, nearest first.

    query is (q, 3) and points is (n, 3); both results are (q, cap): point
    indices and a mask of the slots that hold one.  The valid slots of row i
    equal those of ``nearest(query, points, cap)`` masked to
    ``dist <= radius``, bit for bit: in-radius points by distance, equal
    distances in index order.  Invalid slots repeat slot 0 (index 0 in a row
    with no in-radius point).

    Points are bucketed in a cubic grid with a cell edge a hair over the
    radius, so each query scores only the points in the 27 cells around its
    own, and memory stays linear in the candidate count.  The points are
    sorted by cell key, and each of the 9 columns of three z-adjacent cells
    is one run of that order, found by one pair of binary searches.  Where
    the key wraps inside a run (a centre key of INT64_MAX or INT64_MIN, at
    finite coordinates near 2**20 cell edges), the run continues from the
    start of the order.  In-radius candidates are ranked by ``_rank_pairs``.
    """
    query, points = _finite_coordinates(query, points)
    n, q = points.shape[0], query.shape[0]
    if not 1 <= cap <= n:
        raise ValueError(f"cap must lie in [1, {n}], got {cap}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    # Along each axis an in-radius point lies at most radius * (1 + 3 eps)
    # from its query (a computed distance can fall a few ulps short), and
    # dividing by the edge rounds a cell coordinate by at most
    # eps/2 * extent / edge.  The edge exceeds the radius by more than both,
    # so the point's cell coordinates differ from the query's by less than
    # one: it lies in one of the 27 cells around the query's.  The extent
    # term also bounds |cell| by 2**50, within int64 for any radius.
    extent = max(np.abs(points).max(), np.abs(query).max(initial=0.0))
    edge = radius * (1.0 + 1e-9) + 4.0 * np.finfo(float).eps * extent

    point_keys = _cell_keys(points, edge)
    by_key = np.argsort(point_keys, kind="stable")
    sorted_keys = point_keys[by_key]
    centre = (_cell_keys(query, edge)[:, None] + _COLUMN_KEYS).ravel()
    low, high = centre - 1, centre + 1
    first = np.searchsorted(sorted_keys, low, side="left")
    count = np.searchsorted(sorted_keys, high, side="right") - first
    count[low > high] += n     # a wrapped run: [low, INT64_MAX], then [INT64_MIN, high]
    # Every point of every neighbouring column, query by query; a wrapped
    # run's positions pass n and continue at 0.
    cand = by_key.take(np.repeat(first - (np.cumsum(count) - count), count)
                       + np.arange(count.sum()), mode="wrap")
    row = np.repeat(np.arange(q), count.reshape(q, _COLUMN_KEYS.size).sum(axis=1))

    dist = _pair_distances(query, row, points, cand)
    inside = np.flatnonzero(dist <= radius)
    return _rank_pairs(row[inside], dist[inside], cand[inside], q, n, cap)


def points_in_box(cloud: PointCloud, box: Box3D) -> np.ndarray:
    """Boolean mask of points inside the box; boundary counts as inside."""
    d = cloud.points - box.center
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    x = c * d[:, 0] + s * d[:, 1]
    y = -s * d[:, 0] + c * d[:, 1]
    half = box.size / 2.0
    return (np.abs(x) <= half[0]) & (np.abs(y) <= half[1]) & (np.abs(d[:, 2]) <= half[2])


def box_owner(cloud: PointCloud, boxes) -> np.ndarray:
    """Index of the first box that contains each point, -1 for a point in
    none; shape (n,).  The boundary counts as inside, as in points_in_box."""
    owner = np.full(len(cloud), -1, dtype=np.intp)
    # Later boxes are written first, so an earlier box overwrites them.
    for i in reversed(range(len(boxes))):
        owner[points_in_box(cloud, boxes[i])] = i
    return owner


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    arr = np.asarray(poly, dtype=float)
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _line_intersect(s, e, a, b):
    # segment s->e against the infinite line through a->b; callers guarantee
    # the segment strictly straddles the line, so the denominator is nonzero
    dx1, dy1 = e[0] - s[0], e[1] - s[1]
    dx2, dy2 = b[0] - a[0], b[1] - a[1]
    t = ((a[0] - s[0]) * dy2 - (a[1] - s[1]) * dx2) / (dx1 * dy2 - dy1 * dx2)
    return (s[0] + t * dx1, s[1] + t * dy1)


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of polygon `subject` by convex CCW polygon `clip`."""
    output = [tuple(p) for p in subject]
    nc = len(clip)
    for i in range(nc):
        if not output:
            break
        a, b = clip[i], clip[(i + 1) % nc]
        ex, ey = b[0] - a[0], b[1] - a[1]
        pts, output = output, []
        n = len(pts)
        for j in range(n):
            s, e = pts[j], pts[(j + 1) % n]
            s_in = ex * (s[1] - a[1]) - ey * (s[0] - a[0]) >= 0.0
            e_in = ex * (e[1] - a[1]) - ey * (e[0] - a[0]) >= 0.0
            if e_in:
                if not s_in:
                    output.append(_line_intersect(s, e, a, b))
                output.append(e)
            elif s_in:
                output.append(_line_intersect(s, e, a, b))
    return output


def _box_sort_key(box: Box3D):
    return (tuple(box.center), tuple(box.size), box.yaw)


def box_iou(a: Box3D, b: Box3D, mode: str = "bev") -> float:
    """Intersection over union of two oriented boxes.

    mode "bev" uses the rotated footprint rectangles; mode "3d" multiplies the
    footprint intersection by the vertical overlap.  Symmetric in a and b.
    """
    if mode not in ("bev", "3d"):
        raise ValueError(f"unknown IoU mode {mode!r}")
    if (np.array_equal(a.center, b.center) and np.array_equal(a.size, b.size)
            and a.yaw == b.yaw):
        return 1.0
    # evaluate in a canonical argument order so iou(a, b) == iou(b, a) exactly
    first, second = (a, b) if _box_sort_key(a) <= _box_sort_key(b) else (b, a)
    inter_bev = _polygon_area(_clip_polygon(first.bev_corners(), second.bev_corners()))
    if mode == "bev":
        inter = inter_bev
        union = a.bev_area + b.bev_area - inter
    else:
        lo = max(a.z_interval()[0], b.z_interval()[0])
        hi = min(a.z_interval()[1], b.z_interval()[1])
        inter = inter_bev * max(0.0, hi - lo)
        union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))
