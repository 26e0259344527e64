"""Frame sequences, their synthesis and training-target generation.

Covers a deterministic synthetic-scene generator that stands in for real
drives at desk scale, the per-object displacement augmentation used for
robustness sweeps, and per-point foreground/displacement targets.  Both of
the last two give a point to the first labelled box that contains it
(``geom.box_owner``): the augmentation moves it with that box alone, and its
target is that box's motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import Box3D, PointCloud, _integer, _real, _rows, _vector, box_owner


@dataclass(eq=False)
class FrameLabel:
    """Ground-truth (or hypothesis) boxes for one frame."""

    frame_index: int
    boxes: list[Box3D] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.frame_index = _integer("frame_index", self.frame_index, 0)
        for box in self.boxes:
            if not isinstance(box, Box3D):
                raise ValueError(f"frame {self.frame_index} box must be a Box3D, "
                                 f"got {type(box).__name__}")
        ids = [b.track_id for b in self.boxes if b.track_id is not None]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate track ids in frame {self.frame_index}")

    def box_by_track(self, track_id: int) -> Box3D | None:
        for box in self.boxes:
            if box.track_id == track_id:
                return box
        return None


@dataclass(eq=False)
class Sequence:
    """Ordered (cloud, label) frames plus naming and timing metadata."""

    frames: list[tuple[PointCloud, FrameLabel]]
    name: str = "sequence"
    frame_period: float = 0.1

    def __post_init__(self) -> None:
        for i, frame in enumerate(self.frames):
            if not (isinstance(frame, tuple) and len(frame) == 2
                    and isinstance(frame[0], PointCloud) and isinstance(frame[1], FrameLabel)):
                found = (f"({', '.join(type(x).__name__ for x in frame)})"
                         if isinstance(frame, tuple) else type(frame).__name__)
                raise ValueError(f"frame {i} must be a (PointCloud, FrameLabel) pair, "
                                 f"got {found}")
        indices = [label.frame_index for _, label in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("frame indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)

    def adjacent_pairs(self):
        for (cloud_a, label_a), (cloud_b, label_b) in zip(self.frames, self.frames[1:]):
            yield cloud_a, label_a, cloud_b, label_b


@dataclass(eq=False)
class TrainingTargets:
    """Per-point supervision for one frame pair.

    `displacement` is zero wherever `foreground_mask` is false.  Points of
    objects that vanish in the next frame keep zero displacement and are
    flagged in `excluded` so the loss can skip them.
    """

    foreground_mask: np.ndarray
    displacement: np.ndarray
    excluded: np.ndarray

    def __post_init__(self) -> None:
        self.foreground_mask = _vector("foreground_mask", self.foreground_mask, bool)
        self.displacement = _rows("displacement", self.displacement, 3)
        self.excluded = _vector("excluded", self.excluded, bool)
        n = self.foreground_mask.shape[0]
        if self.displacement.shape[0] != n or self.excluded.shape[0] != n:
            raise ValueError("target arrays must have matching lengths")
        if np.any(np.linalg.norm(self.displacement[~self.foreground_mask], axis=1) > 0):
            raise ValueError("background displacement must be zero")


# ---------------------------------------------------------------------------
# synthetic sequences
# ---------------------------------------------------------------------------

VELOCITY_RANGE = (0.1, 0.6)
SIZE_RANGES = ((3.6, 4.4), (1.5, 1.8), (1.4, 1.7))  # length, width, height
SPAWN_SPACING = 14.0
ARENA_HALF_EXTENT = 45.0


@dataclass
class SceneConfig:
    """Parameters of a synthetic drive; all distances in meters.

    The rest of the scene is fixed by module constants, as no experiment
    varies it: ``VELOCITY_RANGE``, 0.1-0.6 m per frame (a step of the drive,
    with no frame period); ``SIZE_RANGES``, boxes of 3.6-4.4 x 1.5-1.8 x
    1.4-1.7 m; ``SPAWN_SPACING``, a 14 m spawn grid; and
    ``ARENA_HALF_EXTENT``, clutter within 45 m of the origin along x and y.
    """

    frames: int = 50
    objects: int = 5
    points_per_object: int = 120
    background_points: int = 200
    noise_sigma: float = 0.02
    direction_change_every: int = 0  # 0 keeps velocities constant

    def __post_init__(self) -> None:
        for name, low in (("frames", 1), ("objects", 1), ("points_per_object", 1),
                          ("background_points", 0), ("direction_change_every", 0)):
            setattr(self, name, _integer(name, getattr(self, name), low))
        self.noise_sigma = _real("noise_sigma", self.noise_sigma, "non-negative")


def _box_surface_points(rng: np.random.Generator, size: np.ndarray, count: int,
                        inset: float) -> np.ndarray:
    """Uniform samples on the box surface, pulled inward by `inset` meters."""
    half = size / 2.0 - inset
    half = np.maximum(half, 0.05)
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    axis = rng.choice(3, size=count, p=areas / areas.sum())
    side = rng.choice([-1.0, 1.0], size=count)
    pts = rng.uniform(-1.0, 1.0, size=(count, 3)) * half
    pts[np.arange(count), axis] = side * half[axis]
    return pts


def synthesize_sequence(config: SceneConfig, seed: int) -> Sequence:
    """Deterministic synthetic drive: rigid box-surface clusters moving with
    (piecewise-)constant velocities over static background clutter.

    Each object keeps one speed; its heading, a (frames, objects) array, is
    redrawn for every object at each ``direction_change_every``-th frame.
    The box centres are the spawn positions plus the running sum of the
    per-frame steps.  Cluster points are sampled once per object and moved
    rigidly with the box; per-frame sensor noise is Gaussian, clipped at 3
    sigma per world axis.  Along a box's yawed axes that noise reaches 3
    sigma * sqrt(2), so points sit that far plus 1 cm inside their box and
    always stay in it.
    """
    rng = np.random.default_rng(_integer("seed", seed, 0))
    n, sigma = config.objects, config.noise_sigma
    inset = 3.0 * np.sqrt(2.0) * sigma + 0.01
    sizes, clusters = [], []
    for _ in range(n):
        sizes.append(np.array([rng.uniform(*bounds) for bounds in SIZE_RANGES]))
        clusters.append(_box_surface_points(rng, sizes[-1], config.points_per_object, inset))
    sizes = np.array(sizes)

    # spawn on a jittered grid so objects start well separated
    grid = int(np.ceil(np.sqrt(n)))
    cell = np.column_stack(np.divmod(rng.permutation(grid * grid)[:n], grid))
    jitter = rng.uniform(-0.15, 0.15, size=(n, 2))
    spawn = np.column_stack([(cell - (grid - 1) / 2.0) * SPAWN_SPACING
                             + jitter * SPAWN_SPACING, sizes[:, 2] / 2.0])

    speeds = rng.uniform(*VELOCITY_RANGE, size=n)
    turns = np.arange(config.frames) % (config.direction_change_every or config.frames) == 0
    heading = rng.uniform(0.0, 2.0 * np.pi, size=(turns.sum(), n))[np.cumsum(turns) - 1]
    steps = np.stack([speeds * np.cos(heading), speeds * np.sin(heading),
                      np.zeros_like(heading)], axis=-1)
    centres = np.cumsum(np.concatenate([spawn[None], steps[1:]]), axis=0)

    half = ARENA_HALF_EXTENT
    background = np.column_stack([rng.uniform(-half, half, size=(config.background_points, 2)),
                                  rng.uniform(0.2, 2.5, size=config.background_points)])

    frames = []
    for f in range(config.frames):
        parts = []
        for obj in range(n):
            c, s = np.cos(heading[f, obj]), np.sin(heading[f, obj])
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            parts.append(clusters[obj] @ rot.T + centres[f, obj])
        world = np.concatenate(parts + [background])
        noise = np.clip(rng.normal(scale=sigma, size=world.shape),
                        -3.0 * sigma, 3.0 * sigma) if sigma else 0.0
        boxes = [Box3D(centres[f, obj].copy(), sizes[obj].copy(), heading[f, obj],
                       track_id=obj) for obj in range(n)]
        frames.append((PointCloud(world + noise), FrameLabel(f, boxes)))
    return Sequence(frames, name=f"synthetic-{seed}")


# ---------------------------------------------------------------------------
# displacement augmentation
# ---------------------------------------------------------------------------

def apply_displacement_augmentation(seq: Sequence, magnitude: float,
                                    seed: int = 0) -> Sequence:
    """Inject extra per-frame horizontal shifts into every labelled object.

    For each frame transition and each track, in ascending track id order, a
    horizontal displacement of norm `magnitude` in a uniformly random
    direction is added to the object's points and its box center,
    accumulating over the sequence.  A point inside several boxes moves with
    the first of them only.  Background points and frame 0 are untouched.
    """
    magnitude = _real("magnitude", magnitude, "non-negative")
    rng = np.random.default_rng(_integer("seed", seed, 0))

    track_ids = sorted({box.track_id for _, label in seq.frames for box in label.boxes
                        if box.track_id is not None})
    shift = {tid: np.zeros(3) for tid in track_ids}

    frames = []
    for f, (cloud, label) in enumerate(seq.frames):
        if f > 0:
            for tid in track_ids:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                shift[tid] = shift[tid] + np.array([magnitude * np.cos(angle),
                                                    magnitude * np.sin(angle), 0.0])
        deltas = np.array([shift.get(box.track_id, np.zeros(3))
                           for box in label.boxes]).reshape(-1, 3)
        owner = box_owner(cloud, label.boxes)
        inside = owner >= 0
        pts = cloud.points.copy()
        pts[inside] += deltas[owner[inside]]
        boxes = [box.translated(delta) for box, delta in zip(label.boxes, deltas)]
        frames.append((PointCloud(pts), FrameLabel(label.frame_index, boxes)))
    return Sequence(frames, name=seq.name, frame_period=seq.frame_period)


# ---------------------------------------------------------------------------
# training targets
# ---------------------------------------------------------------------------

def label_targets(cloud_prev: PointCloud, labels_prev: FrameLabel,
                  labels_curr: FrameLabel,
                  with_box_targets: bool = False) -> TrainingTargets:
    """Per-point supervision from two adjacent frames' labels.

    A point is foreground iff it lies inside any previous-frame box, and it
    belongs to the first such box.  Its displacement target is that box's
    track's centre motion into the current frame; tracks that vanish yield
    zero displacement and an `excluded` flag.  No per-point box targets are
    produced; `with_box_targets=True` raises.
    """
    if with_box_targets:
        raise ValueError("per-point box targets are not supported")
    boxes = labels_prev.boxes
    # One row per box and a last, zero row that the owner -1 of a point in
    # no box reads.
    motion = np.zeros((len(boxes) + 1, 3))
    vanished = np.zeros(len(boxes) + 1, dtype=bool)
    for i, box in enumerate(boxes):
        curr = labels_curr.box_by_track(box.track_id) \
            if box.track_id is not None else None
        if curr is None:
            vanished[i] = True
        else:
            motion[i] = curr.center - box.center

    owner = box_owner(cloud_prev, boxes)
    return TrainingTargets(owner >= 0, motion[owner], vanished[owner])

