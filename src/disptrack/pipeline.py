"""Two-frame displacement prediction pipeline and its training loop.

The displacement network consumes two adjacent frames.  Each frame passes a
probability filter (top-N' foreground points by mask probability) and two
shared-weight set-abstraction layers; the association head fuses the two
streams per frame-A point; one more set-abstraction layer condenses the
embedded features; three feature-propagation layers (the second with a skip
connection from the first frame-A abstraction level) upsample back to the
filtered points; and a two-layer dense head emits a 3-vector per filtered
frame-A point.

Detection is decoupled behind the Detections interface; the oracle detector
perturbs ground truth, enabling ground-truth-box experiments.

Coordinate work is planned before the network runs, frame by frame, by one
planner: each frame's network input, the centroids of all three
set-abstraction levels (sampled in lock-step over the frames planned
together), their in-radius groups, and the frame's live rows (the sa1 rows
its sa2 groups and the sa2 rows its sa3 groups).  Each frame draws from its
own stream, ``default_rng(config.seed)``, in one order: its input
subsample, then the farthest-point start of sa1, sa2 and sa3, each just
before that level is sampled.  So a frame's plan depends on the frame, its
detections and the config alone (not on k, nor on the frames planned with
it), and a pair is just two frame plans.  Training and evaluation keep one
plan per distinct frame while a pair still needs it, so frame t of a drive,
frame B of (t-1, t) and frame A of (t, t+1), is detected and planned once,
on a chunk edge too.  With a pair's two plans, planning yields its targets
(``label_targets``), on frame A's kept points only: one row per field row.

A pair is checked where its two plans meet, in the forward pass that
prediction, training and evaluation share: a frame B with fewer sa2 points
than the association head's k raises there, before any layer runs.  From
the two plans, the forward pass computes only the rows that reach the field,
for prediction and training alike.  sa3 groups few of the frame-A sa2 points
and frame-B sa2 few of the frame-B sa1 points, so the other frame-A sa2
groups, their association rows and the other frame-B sa1 groups are
skipped; at paper scale about 88 of 512 frame-A rows and 850 of 2048
frame-B rows are live.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .geom import Box3D, PointCloud, box_owner
from .ingest import FrameLabel, Sequence, _finite_non_negative, _integer, label_targets
from .micronet import (
    AssociationSpec,
    DenseGrads,
    DenseParams,
    OptState,
    SaLayerSpec,
    SaSelection,
    adam_step,
    association_head,
    clr_schedule,
    dense_apply,
    fp_layer,
    load_checkpoint,
    sa_layer,
    sample_centroids,
    save_checkpoint,
    select_groups,
    tracking_loss,
)

__all__ = [
    "Detections", "DisplacementField", "DetectorNoise", "PipelineConfig",
    "SaConfig", "DisplacementModel", "TrainHistory",
    "probability_filter", "oracle_detector",
    "predict_displacements", "train_association", "build_displacement_model",
    "mean_displacement_error", "save_displacement_model", "load_displacement_model",
]

log = logging.getLogger(__name__)

#: Width of the per-point input features that point_features emits.
POINT_FEATURE_WIDTH = 4

#: Filtered points, counted as config.n_filtered per frame, of the frame
#: pairs that training and evaluation plan at a time (at least one pair):
#: the frames of those pairs that are not planned yet are detected and
#: planned together, their set-abstraction centroids sampled in lock-step.
#: 16 desk pairs.
#: Planning a desk epoch's 294 pairs, detection included (2-core Xeon VM,
#: 1 BLAS thread, 3 runs), took 1.08-1.27 s in chunks of 16 pairs,
#: 0.98-1.43 s of 8, 1.05-1.17 s of 32, 1.11-1.15 s of 64 and 2.72-3.50 s
#: pair by pair.  Whole epochs (4 interleaved runs) took 6.79-7.99 s in
#: chunks of 16, 6.83-8.65 s of 8 and 6.62-7.78 s of 32: no size won.
_PLAN_POINTS = 16 * 2 * 512


@dataclass(eq=False)
class Detections:
    """Detector output for one frame: boxes plus per-point foreground probs."""

    boxes: list[Box3D]
    point_mask_probs: np.ndarray

    def __post_init__(self) -> None:
        self.point_mask_probs = np.asarray(self.point_mask_probs, dtype=float).ravel()
        p = self.point_mask_probs
        if np.any(~((p >= 0.0) & (p <= 1.0))):  # also rejects NaN
            raise ValueError("mask probabilities must lie in [0, 1]")


@dataclass(eq=False)
class DisplacementField:
    """Per-point motion vectors for a subset of frame-A points."""

    point_indices: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.point_indices = np.asarray(self.point_indices, dtype=int).ravel()
        self.vectors = np.asarray(self.vectors, dtype=float).reshape(-1, 3)
        if self.point_indices.shape[0] != self.vectors.shape[0]:
            raise ValueError("indices and vectors must have equal length")
        if len(np.unique(self.point_indices)) != self.point_indices.shape[0]:
            raise ValueError("point indices must be unique")


@dataclass
class DetectorNoise:
    """Perturbation levels for the oracle detector."""

    center_sigma: float = 0.0
    yaw_sigma: float = 0.0
    dropout: float = 0.0
    fp_rate: float = 0.0

    def __post_init__(self) -> None:
        for sigma in (self.center_sigma, self.yaw_sigma):
            _finite_non_negative("noise sigmas", sigma)
        for rate in (self.dropout, self.fp_rate):
            # Every comparison with NaN is false, so NaN fails this check too.
            if not (isinstance(rate, numbers.Real) and 0.0 <= rate <= 1.0):
                raise ValueError(f"dropout and false-positive rates must lie in "
                                 f"[0, 1], got {rate!r}")


def _widths(name: str, widths) -> tuple[int, ...]:
    """widths as a tuple of ints, each an integer of at least 1."""
    out = tuple(_integer(name, w) for w in widths)
    if any(w < 1 for w in out):
        raise ValueError(f"{name} must be at least 1, got {tuple(widths)!r}")
    return out


@dataclass
class SaConfig:
    """Hyperparameters of one set-abstraction level."""

    sample: int
    radius: float
    cap: int
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        self.sample = _integer("sample", self.sample)
        self.cap = _integer("cap", self.cap)
        # Every comparison with NaN is false, so NaN fails this check too.
        if not (self.sample >= 1 and isinstance(self.radius, numbers.Real)
                and self.radius > 0.0 and self.cap >= 1):
            raise ValueError(f"set abstraction needs sample >= 1, radius > 0 and "
                             f"cap >= 1, got {self.sample}, {self.radius}, {self.cap}")
        self.widths = _widths("widths", self.widths)


@dataclass
class PipelineConfig:
    """Every knob of the displacement pipeline and its training loop.

    Desk-scale defaults; `paper_scale()` restores the full-size layer table
    (input 15000, filter 5000, 64 association neighbours, 4x wider MLPs).
    """

    n_input: int = 2048
    n_filtered: int = 512
    k: int = 16
    sa1: SaConfig = field(default_factory=lambda: SaConfig(256, 0.5, 16, (8, 8, 16)))
    sa2: SaConfig = field(default_factory=lambda: SaConfig(64, 1.0, 16, (16, 16, 32)))
    assoc_widths: tuple[int, ...] = (32, 32)
    sa3: SaConfig = field(default_factory=lambda: SaConfig(16, 4.0, 16, (64, 64)))
    fp1_widths: tuple[int, ...] = (64, 64)
    fp2_widths: tuple[int, ...] = (32, 64, 64)
    fp3_widths: tuple[int, ...] = (64, 64)
    head_widths: tuple[int, ...] = (32,)
    lr_low: float = 1e-4
    lr_high: float = 1e-3
    clr_cycle_epochs: int = 8
    alpha: float = 1.0
    beta: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_input", "n_filtered", "k", "clr_cycle_epochs", "seed"):
            setattr(self, name, _integer(name, getattr(self, name)))
        for name in ("n_input", "n_filtered", "k", "clr_cycle_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_filtered > self.n_input:
            raise ValueError("n_filtered must not exceed n_input")
        for name in ("lr_low", "lr_high", "alpha", "beta"):
            _finite_non_negative(name, getattr(self, name))
        for name in ("assoc_widths", "fp1_widths", "fp2_widths", "fp3_widths",
                     "head_widths"):
            setattr(self, name, _widths(name, getattr(self, name)))
        for name in ("sa1", "sa2", "sa3"):
            level = getattr(self, name)
            if not isinstance(level, SaConfig):
                raise ValueError(f"{name} must be an SaConfig, got {level!r}")
        most = min(self.n_filtered, self.sa1.sample, self.sa2.sample)
        if self.k > most:
            raise ValueError(f"k={self.k} exceeds the {most} sa2 points a frame can "
                             f"hold (the least of n_filtered, sa1.sample and sa2.sample)")

    @classmethod
    def paper_scale(cls) -> "PipelineConfig":
        return cls(n_input=15000, n_filtered=5000, k=64,
                   sa1=SaConfig(2048, 0.5, 32, (32, 32, 64)),
                   sa2=SaConfig(512, 1.0, 32, (64, 64, 128)),
                   assoc_widths=(128, 128),
                   sa3=SaConfig(32, 4.0, 32, (256, 256)),
                   fp1_widths=(256, 256), fp2_widths=(128, 256, 256),
                   fp3_widths=(256, 256), head_widths=(128,))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(data)
        levels = [key for key in ("sa1", "sa2", "sa3") if isinstance(data.get(key), dict)]
        level_names = {f.name for f in fields(SaConfig)}
        unknown = set(data) - {f.name for f in fields(cls)}
        unknown |= {f"{key}.{name}" for key in levels for name in set(data[key]) - level_names}
        if unknown:
            raise ValueError(f"unknown config keys loading {sorted(unknown)}")
        for key in levels:
            data[key] = SaConfig(**data[key])
        return cls(**data)


# ---------------------------------------------------------------------------
# probability filter and detection sources
# ---------------------------------------------------------------------------

def probability_filter(cloud: PointCloud, probs, n_filtered: int) -> np.ndarray:
    """Indices of the n_filtered highest-probability points.

    Ties break to the lower index; the result is in ascending index order and
    shrinks to the whole cloud when n_filtered exceeds it.
    """
    probs = np.asarray(probs, dtype=float).ravel()
    if probs.shape[0] != len(cloud):
        raise ValueError("probability vector must match the cloud length")
    if n_filtered < 0:
        raise ValueError(f"n_filtered must not be negative, got {n_filtered}")
    keep = min(int(n_filtered), probs.shape[0])
    return np.sort(np.argsort(-probs, kind="stable")[:keep])


def point_features(frame: PointCloud, detections: Detections) -> np.ndarray:
    """Per-point input features, shape (n, POINT_FEATURE_WIDTH).

    Channel 0 is the mask probability; channels 1..3 are the offset from the
    point to the center of its containing detection box (first containing box
    wins, zeros for points in no box).  The offset channels stand in for the
    detector-branch features of a full detector, which encode exactly this
    point-to-center relation through their box regression head.
    """
    feats = np.zeros((len(frame), POINT_FEATURE_WIDTH))
    feats[:, 0] = detections.point_mask_probs
    centers = np.array([box.center for box in detections.boxes]).reshape(-1, 3)
    owner = box_owner(frame, detections.boxes)
    inside = owner >= 0
    feats[inside, 1:] = centers[owner[inside]] - frame.points[inside]
    return feats


def oracle_detector(frame: PointCloud, labels: FrameLabel,
                    noise: DetectorNoise | None = None, seed: int = 0) -> Detections:
    """Ground-truth-derived detections with controllable corruption.

    Surviving boxes are the labels perturbed by Gaussian center/yaw noise;
    each label is dropped with probability `dropout`, and for each label a
    spurious box spawns with probability `fp_rate`.  Mask probabilities are 1
    inside the surviving boxes' original (pre-noise) geometry, 0 elsewhere.
    """
    noise = noise or DetectorNoise()
    rng = np.random.default_rng(seed)
    boxes: list[Box3D] = []
    survivors: list[Box3D] = []
    for box in labels.boxes:
        drop = rng.uniform() < noise.dropout
        center_delta = rng.normal(0.0, noise.center_sigma or 0.0, size=3)
        yaw_delta = float(rng.normal(0.0, noise.yaw_sigma or 0.0))
        if drop:
            continue
        survivors.append(box)
        boxes.append(Box3D(box.center + center_delta, box.size.copy(),
                           box.yaw + yaw_delta))
    if noise.fp_rate > 0.0 and len(frame):
        lo, hi = frame.points.min(axis=0), frame.points.max(axis=0)
        for _ in labels.boxes:
            if rng.uniform() < noise.fp_rate:
                boxes.append(Box3D(rng.uniform(lo, hi), (3.9, 1.6, 1.56),
                                   rng.uniform(-np.pi, np.pi)))
    probs = (box_owner(frame, survivors) >= 0).astype(float)
    return Detections(boxes, probs)


# ---------------------------------------------------------------------------
# displacement model
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DisplacementModel:
    """The MLP parameters of every layer of the displacement network.

    The two frame streams share sa1/sa2 weights; fp2 consumes a skip
    connection from the frame-A sa1 output.  Layer hyperparameters (sample
    counts, radii, caps and k) live in the PipelineConfig alone.
    """

    sa1: DenseParams
    sa2: DenseParams
    assoc: DenseParams
    sa3: DenseParams
    fp1: DenseParams
    fp2: DenseParams
    fp3: DenseParams
    head: DenseParams

    def param_groups(self) -> dict[str, DenseParams]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def param_dict(self) -> dict[str, np.ndarray]:
        return _flatten_groups(self.param_groups())

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        """Replace every parameter with the same-named array of params.

        Raises, leaving the model unchanged, on a missing or extra name, a
        shape mismatch or a non-finite value.
        """
        current = self.param_dict()
        if set(params) != set(current):
            raise ValueError(f"parameter names do not match the model: missing "
                             f"{sorted(set(current) - set(params))}, extra "
                             f"{sorted(set(params) - set(current))}")
        params = {key: np.asarray(value, dtype=float) for key, value in params.items()}
        for key, value in params.items():
            if value.shape != current[key].shape:
                raise ValueError(f"shape mismatch loading {key}")
            if not np.isfinite(value).all():
                raise ValueError(f"non-finite values loading {key}")
        for name, dp in self.param_groups().items():
            for i in range(len(dp.weights)):
                dp.weights[i] = params[f"{name}.w{i}"]
                dp.biases[i] = params[f"{name}.b{i}"]


def _flatten_groups(groups: dict[str, DenseParams | DenseGrads]) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, dp in groups.items():
        for i, (w, b) in enumerate(zip(dp.weights, dp.biases)):
            out[f"{name}.w{i}"] = w
            out[f"{name}.b{i}"] = b
    return out


def build_displacement_model(config: PipelineConfig) -> DisplacementModel:
    """A freshly initialised model for config, drawn from config.seed."""
    rng = np.random.default_rng(config.seed)
    sa1 = DenseParams.create([3 + POINT_FEATURE_WIDTH, *config.sa1.widths], rng)
    sa2 = DenseParams.create([3 + sa1.out_width, *config.sa2.widths], rng)
    # The head's input row: one cosine column, then the 3-vector displacement.
    assoc = DenseParams.create([1 + 3, *config.assoc_widths], rng)
    sa3 = DenseParams.create([3 + assoc.out_width, *config.sa3.widths], rng)
    fp1 = DenseParams.create([sa3.out_width, *config.fp1_widths], rng)
    fp2 = DenseParams.create([fp1.out_width + sa1.out_width, *config.fp2_widths], rng)
    fp3 = DenseParams.create([fp2.out_width, *config.fp3_widths], rng)
    head = DenseParams.create([fp3.out_width, *config.head_widths, 3], rng)
    return DisplacementModel(sa1, sa2, assoc, sa3, fp1, fp2, fp3, head)


def save_displacement_model(path, model: DisplacementModel,
                            config: PipelineConfig) -> None:
    save_checkpoint(path, "displacement", config.to_dict(), model.param_dict())


def load_displacement_model(path) -> tuple[DisplacementModel, PipelineConfig]:
    kind, config_dict, params = load_checkpoint(path)
    if kind != "displacement":
        raise ValueError(f"expected a displacement checkpoint, got kind {kind!r}")
    config = PipelineConfig.from_dict(config_dict)
    model = build_displacement_model(config)
    model.load_param_dict(params)
    return model, config


class PipelineTape:
    """Captured forward state of the displacement network.  t_a2 and t_assoc
    cover the live_a2 rows of the frame-A sa2 output, t_b1 the live_b1 rows
    of the frame-B sa1 output."""

    def __init__(self, live_a2, live_b1, t_a1, t_a2, t_b1, t_b2, t_assoc, t_sa3,
                 t_fp1, t_fp2, t_fp3, t_head):
        self.live_a2, self.live_b1 = live_a2, live_b1
        self.t_a1, self.t_a2 = t_a1, t_a2
        self.t_b1, self.t_b2 = t_b1, t_b2
        self.t_assoc, self.t_sa3 = t_assoc, t_sa3
        self.t_fp1, self.t_fp2, self.t_fp3 = t_fp1, t_fp2, t_fp3
        self.t_head = t_head

    def backward(self, grad_disp: np.ndarray) -> dict[str, np.ndarray]:
        head_g, dg0 = self.t_head.backward(grad_disp)
        fp3_g, dg1, _ = self.t_fp3.backward(dg0)
        fp2_g, dg2, dskip = self.t_fp2.backward(dg1)
        fp1_g, df3, _ = self.t_fp1.backward(dg2)
        sa3_g, dfe = self.t_sa3.backward(df3)
        assoc_g, dfa2, dfb2 = self.t_assoc.backward(dfe[self.live_a2])
        sa2a_g, dfa1 = self.t_a2.backward(dfa2)
        sa1a_g, _ = self.t_a1.backward(dfa1 + dskip)
        sa2b_g, dfb1 = self.t_b2.backward(dfb2)
        sa1b_g, _ = self.t_b1.backward(dfb1[self.live_b1])
        groups = {"sa1": sa1a_g.add_(sa1b_g), "sa2": sa2a_g.add_(sa2b_g),
                  "assoc": assoc_g, "sa3": sa3_g, "fp1": fp1_g, "fp2": fp2_g,
                  "fp3": fp3_g, "head": head_g}
        return _flatten_groups(groups)


@dataclass(eq=False)
class _FramePlan:
    """The coordinate work of one frame: its network input (indices of the
    kept points into the frame, their coordinates and input features), each
    set-abstraction level's groups over that level's input points (sa1,
    sa2, sa3), and the rows of two of its layer outputs that a later layer
    reads: of its sa1 output those that its sa2 groups (live1), of its sa2
    output those that its sa3 groups (live2).  A pair reads frame A's live2
    and frame B's live1.  The two pairs that hold a frame share its plan, so
    nothing may write into its arrays."""

    kept: np.ndarray
    points: np.ndarray
    feats: np.ndarray
    select: tuple[SaSelection, SaSelection, SaSelection]
    live1: np.ndarray
    live2: np.ndarray


def _network_input(frame: PointCloud, detections: Detections, config: PipelineConfig):
    """One frame's points as the network sees them: a random config.n_input
    of them (all, if there are no more), then the config.n_filtered most
    probable of those.  Returns their indices into the frame, coordinates
    and input features, and the frame's stream, to draw its farthest-point
    starts from."""
    rng = np.random.default_rng(config.seed)
    probs = detections.point_mask_probs
    n = len(frame)
    if probs.shape[0] != n:
        raise ValueError("detection mask probabilities must match their clouds")
    sampled = np.arange(n) if n <= config.n_input \
        else np.sort(rng.choice(n, size=config.n_input, replace=False))
    probs = probs[sampled]
    if not np.any(probs):
        log.warning("a frame has no detected points (all %d mask probabilities "
                    "are zero); the filter keeps its %d lowest-index points",
                    len(probs), min(config.n_filtered, len(probs)))
    kept = sampled[probability_filter(PointCloud(frame.points[sampled]), probs,
                                      config.n_filtered)]
    if len(kept) == 0:
        raise ValueError("no points remain after the probability filter")
    points = frame.points[kept]
    feats = point_features(PointCloud(points),
                           Detections(detections.boxes, detections.point_mask_probs[kept]))
    return kept, points, feats, rng


def _plan_frames(frames, config: PipelineConfig) -> list[_FramePlan]:
    """Plans of (frame, detections) frames.

    One ``sample_centroids`` call per level samples every frame's cloud of
    that level in lock-step; each cloud's centroids then select their groups
    (``select_groups``), once per level and frame.
    """
    inputs = [_network_input(frame, detections, config) for frame, detections in frames]
    clouds = [points for _, points, _, _ in inputs]
    levels = []
    for sa in (config.sa1, config.sa2, config.sa3):
        picks = sample_centroids(clouds, [min(sa.sample, len(c)) for c in clouds],
                                 [int(rng.integers(len(c)))
                                  for c, (*_, rng) in zip(clouds, inputs)])
        levels.append([select_groups(c, idx, sa.radius, sa.cap)
                       for c, idx in zip(clouds, picks)])
        clouds = [c[idx] for c, idx in zip(clouds, picks)]
    return [_FramePlan(kept, points, feats, select,
                       select[1].read(len(select[0].centroids)),
                       select[2].read(len(select[1].centroids)))
            for (kept, points, feats, _), select in zip(inputs, zip(*levels))]


def _forward_displacements(a: _FramePlan, b: _FramePlan, model: DisplacementModel,
                           config: PipelineConfig, capture: bool = False):
    """The (len(a.kept), 3) displacement vectors of the pair of planned
    frames a and b, and with capture the tape of every layer.

    Prediction, evaluation and training all compute the one row set of the
    plans, the rows that reach the field: the frame-A sa2 groups that sa3's
    selection reads (a.live2), the association head on those frame-A
    points, and the frame-B sa1 groups that frame-B sa2's selection reads
    (b.live1).  The other rows of those outputs are NaN, and no layer reads
    them.  Capture decides only whether the tapes are kept.
    """
    def abstract(mlp: DenseParams, points: np.ndarray, feats: np.ndarray,
                 selection: SaSelection):
        spec = SaLayerSpec(len(selection.centroids), mlp)
        return sa_layer(spec, points, feats, selection, capture=capture)

    def spread(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
        """values as the given rows of n, the others NaN."""
        full = np.full((n, values.shape[1]), np.nan)
        full[rows] = values
        return full

    sel_a1, sel_a2, sel_a3 = a.select
    sel_b1, sel_b2, _ = b.select
    n_2 = len(sel_b2.centroids)
    if n_2 < config.k:
        raise ValueError(f"only {n_2} frame-B sa2 points for k={config.k}; "
                         f"lower k or raise n_filtered or the sa1/sa2 samples")
    pts_a0 = a.points
    pts_a1, feats_a1, t_a1 = abstract(model.sa1, pts_a0, a.feats, sel_a1)
    pts_a2 = pts_a1[sel_a2.centroids]
    live_pts_a2, live_feats_a2, t_a2 = abstract(model.sa2, pts_a1, feats_a1,
                                                sel_a2.rows(a.live2))
    pts_b1 = b.points[sel_b1.centroids]
    _, feats_b1, t_b1 = abstract(model.sa1, b.points, b.feats, sel_b1.rows(b.live1))
    feats_b1 = spread(b.live1, feats_b1, len(pts_b1))
    pts_b2, feats_b2, t_b2 = abstract(model.sa2, pts_b1, feats_b1, sel_b2)

    assoc = AssociationSpec(config.k, model.assoc)
    embedded, t_assoc = association_head(assoc, live_pts_a2, live_feats_a2, pts_b2,
                                         feats_b2, capture=capture)
    embedded = spread(a.live2, embedded, len(pts_a2))
    pts_a3, feats_a3, t_sa3 = abstract(model.sa3, pts_a2, embedded, sel_a3)
    up2, t_fp1 = fp_layer(pts_a2, pts_a3, feats_a3, None, model.fp1, capture=capture)
    up1, t_fp2 = fp_layer(pts_a1, pts_a2, up2, feats_a1, model.fp2, capture=capture)
    up0, t_fp3 = fp_layer(pts_a0, pts_a1, up1, None, model.fp3, capture=capture)
    vectors, t_head = dense_apply(model.head, up0, capture=capture)

    tape = PipelineTape(a.live2, b.live1, t_a1, t_a2, t_b1, t_b2, t_assoc, t_sa3,
                        t_fp1, t_fp2, t_fp3, t_head) if capture else None
    return vectors, tape


def _planned_pairs(pairs: list, config: PipelineConfig):
    """(a, b, targets) of each (cloud_a, label_a, cloud_b, label_b) pair:
    the plans of its two frames, on oracle detections, and its targets.

    Pairs are planned a chunk of _PLAN_POINTS filtered points at a time,
    just before they are used.  One dict, keyed by the object identity of
    (cloud, label), holds the frame plans: a frame missing from it is
    detected and planned with the chunk's other new frames, and each chunk
    keeps the entries it still needs."""
    def key(cloud: PointCloud, label: FrameLabel) -> tuple[int, int]:
        return id(cloud), id(label)

    size = max(1, _PLAN_POINTS // (2 * config.n_filtered))
    plans: dict[tuple[int, int], _FramePlan] = {}
    for first in range(0, len(pairs), size):
        chunk = pairs[first:first + size]
        frames = {key(*frame): frame for pair in chunk for frame in (pair[:2], pair[2:])}
        plans = {k: plans[k] for k in frames if k in plans}
        new = [k for k in frames if k not in plans]
        plans.update(zip(new, _plan_frames(
            [(frames[k][0], oracle_detector(*frames[k])) for k in new], config)))
        for cloud_a, label_a, cloud_b, label_b in chunk:
            a = plans[key(cloud_a, label_a)]
            yield (a, plans[key(cloud_b, label_b)],
                   label_targets(PointCloud(a.points), label_a, label_b))


def predict_displacements(frame_a: PointCloud, frame_b: PointCloud,
                          detections_a: Detections, detections_b: Detections,
                          model: DisplacementModel,
                          config: PipelineConfig) -> DisplacementField:
    """Predict per-point motion vectors for the filtered frame-A points.

    Stateless: consumes exactly the two frames given, nothing else; repeated
    calls on the same inputs return identical fields, bit for bit the ones
    that the training forward pass computes (see the module docstring).
    """
    a, b = _plan_frames([(frame_a, detections_a), (frame_b, detections_b)], config)
    vectors, _ = _forward_displacements(a, b, model, config)
    return DisplacementField(a.kept, vectors)


# ---------------------------------------------------------------------------
# association training
# ---------------------------------------------------------------------------

@dataclass
class TrainHistory:
    """Per-epoch mean training loss."""

    epoch_losses: list[float] = field(default_factory=list)


def _pair_list(dataset) -> list[tuple[PointCloud, FrameLabel, PointCloud, FrameLabel]]:
    sequences = [dataset] if isinstance(dataset, Sequence) else list(dataset)
    pairs = []
    for seq in sequences:
        pairs.extend(seq.adjacent_pairs())
    return pairs


def train_association(dataset, config: PipelineConfig,
                      epochs: int) -> tuple[DisplacementModel, TrainHistory]:
    """Train the displacement network on adjacent frame pairs, planned
    (see the module docstring) on oracle detections.

    Deterministic for a given config.seed and BLAS thread count: long GEMM
    reductions may round differently across thread counts; the results do
    not depend on the planning chunks.  Raises on a non-finite loss, on a
    non-finite gradient (naming the first such array, before any update) and
    on an update that goes non-finite.

    epochs must be an integer of at least 1.  A pair whose inputs are
    degenerate (no point left after the filter, fewer frame-B sa2 points
    than k) raises with the message that predict_displacements gives.
    """
    epochs = _integer("epochs", epochs)
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    pairs = _pair_list(dataset)
    if not pairs:
        raise ValueError("dataset must contain at least one adjacent frame pair")
    model = build_displacement_model(config)
    params = model.param_dict()
    state = OptState.init(params)
    cycle = max(2, config.clr_cycle_epochs * len(pairs))
    cycle += cycle % 2
    history = TrainHistory()
    step = 0
    for _ in range(epochs):
        epoch_loss = 0.0
        for a, b, targets in _planned_pairs(pairs, config):
            vectors, tape = _forward_displacements(a, b, model, config, capture=True)
            loss, grad = tracking_loss(vectors, targets.displacement,
                                       targets.foreground_mask,
                                       alpha=config.alpha, beta=config.beta,
                                       excluded=targets.excluded)
            if not np.isfinite(loss):
                raise ValueError("training loss became non-finite")
            grads = tape.backward(grad)
            bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
            if bad is not None:
                raise ValueError(f"non-finite gradient in {bad}")
            lr = clr_schedule(step, cycle, config.lr_low, config.lr_high)
            params, state = adam_step(params, grads, state, lr)
            model.load_param_dict(params)
            epoch_loss += loss
            step += 1
        history.epoch_losses.append(epoch_loss / len(pairs))
    return model, history


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def mean_displacement_error(model: DisplacementModel, config: PipelineConfig,
                            pairs) -> float:
    """Mean Euclidean error over foreground (non-excluded) predicted points.

    A degenerate pair raises with the message that predict_displacements
    gives.  pairs must hold at least one pair.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must contain at least one frame pair")
    errors = []
    for a, b, targets in _planned_pairs(pairs, config):
        vectors, _ = _forward_displacements(a, b, model, config)
        keep = targets.foreground_mask & ~targets.excluded
        if np.any(keep):
            err = vectors[keep] - targets.displacement[keep]
            errors.append(np.linalg.norm(err, axis=1))
    if not errors:
        raise ValueError("no foreground points to evaluate")
    return float(np.concatenate(errors).mean())
