"""Deterministic point-cloud and oriented-box geometry kernels.

Everything here is a pure function over float64 numpy arrays: no state, no
randomness.  Boxes are oriented in the horizontal plane (yaw about +z) and
sized as (length, width, height), length along the box x axis.  Argmax and
nearest-neighbour ties break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians into [-pi, pi)."""
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(eq=False)
class PointCloud:
    """A frame of 3-D points with optional per-point intensity in [0, 1]."""

    points: np.ndarray
    intensity: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point coordinates must be finite")
        if self.intensity is not None:
            self.intensity = np.asarray(self.intensity, dtype=float).ravel()
            if self.intensity.shape[0] != self.points.shape[0]:
                raise ValueError("intensity length must match point count")
            if np.any((self.intensity < 0.0) | (self.intensity > 1.0)):
                raise ValueError("intensity values must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(eq=False)
class Box3D:
    """Oriented 3-D bounding box with optional tracking metadata."""

    center: np.ndarray
    size: np.ndarray
    yaw: float
    class_id: int = 0
    track_id: int | None = None
    score: float | None = None

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.size = np.asarray(self.size, dtype=float).reshape(3)
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.size))):
            raise ValueError("box center and size must be finite")
        if np.any(self.size <= 0.0):
            raise ValueError("box size components must be strictly positive")
        self.yaw = wrap_angle(float(self.yaw))
        if self.score is not None and not 0.0 <= float(self.score) <= 1.0:
            raise ValueError("box score must lie in [0, 1]")

    def translated(self, offset) -> "Box3D":
        return Box3D(self.center + np.asarray(offset, dtype=float), self.size.copy(),
                     self.yaw, self.class_id, self.track_id, self.score)

    def with_track_id(self, track_id: int | None) -> "Box3D":
        return Box3D(self.center.copy(), self.size.copy(), self.yaw,
                     self.class_id, track_id, self.score)

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


def farthest_point_sample(cloud: PointCloud, m: int, start_index: int) -> np.ndarray:
    """Iteratively pick m indices maximizing the min distance to chosen points.

    Squared distances are compared, so no square root is taken; ties resolve
    to the lowest index.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot sample from an empty cloud")
    if not 1 <= m <= n:
        raise ValueError(f"sample count must lie in [1, {n}], got {m}")
    if not 0 <= start_index < n:
        raise ValueError(f"start index {start_index} out of range for {n} points")
    coords = np.ascontiguousarray(pts.T)   # (3, n): one contiguous row per axis
    diff = np.empty_like(coords)
    step = np.empty(n)
    best = np.full(n, np.inf)              # squared distance to the chosen set
    chosen = np.empty(m, dtype=int)
    chosen[0] = start_index
    for i in range(1, m):
        last = chosen[i - 1]
        np.subtract(coords, coords[:, last, None], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(diff[0], diff[1], out=step)
        step += diff[2]
        np.minimum(best, step, out=best)
        best[last] = -1.0
        chosen[i] = np.argmax(best)
    return chosen


def nearest(query, points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest points to each query row, and their distances.

    query is (q, 3) and points is (n, 3); both results are (q, k).  Each row
    ascends by Euclidean distance with equal distances in index order, also
    across the k-th distance: row i equals
    ``np.lexsort((np.arange(n), d_i))[:k]`` for the distances d_i of query i.
    """
    query = np.asarray(query, dtype=float).reshape(-1, 3)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    q, p = query.T, points.T
    # Squares are summed as (dx^2 + dz^2) + dy^2: the order numpy's einsum
    # took when tests/data/pipeline_golden.npz was pinned, so the distances,
    # and every output built on them, match it bit for bit.
    dist = np.subtract.outer(q[0], p[0])
    dist *= dist
    sq = np.subtract.outer(q[2], p[2])
    sq *= sq
    dist += sq
    np.subtract.outer(q[1], p[1], out=sq)
    sq *= sq
    dist += sq
    del sq
    np.sqrt(dist, out=dist)

    cand = np.argpartition(dist, k - 1, axis=1)[:, :k]
    cand_dist = np.take_along_axis(dist, cand, axis=1)
    rank = np.lexsort((cand, cand_dist), axis=1)
    order = np.take_along_axis(cand, rank, axis=1)
    near = np.take_along_axis(cand_dist, rank, axis=1)
    # The partition keeps an arbitrary subset of the points tied at the k-th
    # distance.  Rows with more points at or below it than were kept get a
    # stable full sort, which keeps the lowest-index ones.
    tied = np.count_nonzero(dist <= near[:, -1:], axis=1) > k
    if tied.any():
        rows = dist[tied]
        order[tied] = np.argsort(rows, axis=1, kind="stable")[:, :k]
        near[tied] = np.take_along_axis(rows, order[tied], axis=1)
    return order, near


def points_in_box(cloud: PointCloud, box: Box3D) -> np.ndarray:
    """Boolean mask of points inside the box; boundary counts as inside."""
    d = cloud.points - box.center
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    x = c * d[:, 0] + s * d[:, 1]
    y = -s * d[:, 0] + c * d[:, 1]
    half = box.size / 2.0
    return (np.abs(x) <= half[0]) & (np.abs(y) <= half[1]) & (np.abs(d[:, 2]) <= half[2])


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
