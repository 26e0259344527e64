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
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .geom import Box3D, PointCloud, points_in_box
from .ingest import FrameLabel, Sequence, label_targets
from .micronet import (
    AssociationSpec,
    DenseParams,
    OptState,
    SaLayerSpec,
    adam_step,
    association_head,
    clr_schedule,
    dense_apply,
    fp_layer,
    load_checkpoint,
    sa_layer,
    save_checkpoint,
    tracking_loss,
)
from .micronet.layers import FUSION_METHODS, fusion_width

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


@dataclass(eq=False)
class Detections:
    """Detector output for one frame: boxes plus per-point foreground probs."""

    boxes: list[Box3D]
    point_mask_probs: np.ndarray

    def __post_init__(self) -> None:
        self.point_mask_probs = np.asarray(self.point_mask_probs, dtype=float).ravel()
        if np.any((self.point_mask_probs < 0.0) | (self.point_mask_probs > 1.0)):
            raise ValueError("mask probabilities must lie in [0, 1]")
        for box in self.boxes:
            if box.score is not None and not 0.0 <= box.score <= 1.0:
                raise ValueError("detection scores must lie in [0, 1]")


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
        if self.center_sigma < 0 or self.yaw_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not (0.0 <= self.dropout <= 1.0 and 0.0 <= self.fp_rate <= 1.0):
            raise ValueError("dropout and false-positive rates must lie in [0, 1]")


@dataclass
class SaConfig:
    """Hyperparameters of one set-abstraction level."""

    sample: int
    radius: float
    cap: int
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        self.widths = tuple(int(w) for w in self.widths)


@dataclass
class PipelineConfig:
    """Every knob of the displacement pipeline and its training loop.

    Desk-scale defaults; `paper_scale()` restores the full-size layer table
    (input 15000, filter 5000, 64 association neighbours, 4x wider MLPs).
    """

    n_input: int = 2048
    n_filtered: int = 512
    k: int = 16
    fusion: str = "cosine_distance"
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
        if self.n_filtered > self.n_input:
            raise ValueError("n_filtered must not exceed n_input")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.fusion not in FUSION_METHODS:
            raise ValueError(f"fusion must be one of {FUSION_METHODS}")
        for name in ("assoc_widths", "fp1_widths", "fp2_widths", "fp3_widths",
                     "head_widths"):
            setattr(self, name, tuple(int(w) for w in getattr(self, name)))

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
        for key in ("sa1", "sa2", "sa3"):
            if isinstance(data.get(key), dict):
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
    keep = min(int(n_filtered), probs.shape[0])
    order = np.lexsort((np.arange(probs.shape[0]), -probs))
    return np.sort(order[:keep])


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
    unassigned = np.ones(len(frame), dtype=bool)
    for box in detections.boxes:
        inside = points_in_box(frame, box) & unassigned
        if np.any(inside):
            feats[inside, 1:] = box.center - frame.points[inside]
            unassigned &= ~inside
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
                           box.yaw + yaw_delta, class_id=box.class_id, score=1.0))
    if noise.fp_rate > 0.0 and len(frame):
        lo, hi = frame.points.min(axis=0), frame.points.max(axis=0)
        for _ in labels.boxes:
            if rng.uniform() < noise.fp_rate:
                boxes.append(Box3D(rng.uniform(lo, hi), (3.9, 1.6, 1.56),
                                   rng.uniform(-np.pi, np.pi), class_id=0, score=0.5))
    probs = np.zeros(len(frame))
    for box in survivors:
        probs[points_in_box(frame, box)] = 1.0
    return Detections(boxes, probs)


# ---------------------------------------------------------------------------
# displacement model
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DisplacementModel:
    """All trainable pieces of the displacement network.

    The two frame streams share sa1/sa2 weights; fp2 consumes a skip
    connection from the frame-A sa1 output.
    """

    sa1: SaLayerSpec
    sa2: SaLayerSpec
    assoc: AssociationSpec
    sa3: SaLayerSpec
    fp1: DenseParams
    fp2: DenseParams
    fp3: DenseParams
    head: DenseParams

    def param_groups(self) -> dict[str, DenseParams]:
        return {"sa1": self.sa1.mlp, "sa2": self.sa2.mlp, "assoc": self.assoc.mlp,
                "sa3": self.sa3.mlp, "fp1": self.fp1, "fp2": self.fp2,
                "fp3": self.fp3, "head": self.head}

    def param_dict(self) -> dict[str, np.ndarray]:
        return _flatten_groups(self.param_groups())

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        for name, dp in self.param_groups().items():
            for i in range(len(dp.weights)):
                w = np.asarray(params[f"{name}.w{i}"], dtype=float)
                b = np.asarray(params[f"{name}.b{i}"], dtype=float).ravel()
                if w.shape != dp.weights[i].shape or b.shape != dp.biases[i].shape:
                    raise ValueError(f"shape mismatch loading {name} layer {i}")
                dp.weights[i] = w
                dp.biases[i] = b


def _flatten_groups(groups: dict[str, DenseParams]) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, dp in groups.items():
        for i, (w, b) in enumerate(zip(dp.weights, dp.biases)):
            out[f"{name}.w{i}"] = w
            out[f"{name}.b{i}"] = b
    return out


def build_displacement_model(config: PipelineConfig, seed: int = 0) -> DisplacementModel:
    rng = np.random.default_rng(seed)
    sa1_mlp = DenseParams.create([3 + POINT_FEATURE_WIDTH, *config.sa1.widths], rng)
    c1 = sa1_mlp.out_width
    sa2_mlp = DenseParams.create([3 + c1, *config.sa2.widths], rng)
    c2 = sa2_mlp.out_width
    assoc_mlp = DenseParams.create([fusion_width(config.fusion, c2) + 3,
                                    *config.assoc_widths], rng)
    ce = assoc_mlp.out_width
    sa3_mlp = DenseParams.create([3 + ce, *config.sa3.widths], rng)
    c3 = sa3_mlp.out_width
    fp1 = DenseParams.create([c3, *config.fp1_widths], rng)
    fp2 = DenseParams.create([fp1.out_width + c1, *config.fp2_widths], rng)
    fp3 = DenseParams.create([fp2.out_width, *config.fp3_widths], rng)
    head = DenseParams.create([fp3.out_width, *config.head_widths, 3], rng)
    return DisplacementModel(
        sa1=SaLayerSpec(config.sa1.sample, config.sa1.radius, config.sa1.cap, sa1_mlp),
        sa2=SaLayerSpec(config.sa2.sample, config.sa2.radius, config.sa2.cap, sa2_mlp),
        assoc=AssociationSpec(config.k, config.fusion, assoc_mlp),
        sa3=SaLayerSpec(config.sa3.sample, config.sa3.radius, config.sa3.cap, sa3_mlp),
        fp1=fp1, fp2=fp2, fp3=fp3, head=head)


def save_displacement_model(path, model: DisplacementModel,
                            config: PipelineConfig) -> None:
    save_checkpoint(path, "displacement", config.to_dict(), model.param_dict())


def load_displacement_model(path) -> tuple[DisplacementModel, PipelineConfig]:
    kind, config_dict, params = load_checkpoint(path)
    if kind != "displacement":
        raise ValueError(f"expected a displacement checkpoint, got kind {kind!r}")
    config = PipelineConfig.from_dict(config_dict)
    model = build_displacement_model(config, seed=config.seed)
    model.load_param_dict(params)
    return model, config


class PipelineTape:
    """Captured forward state of the displacement network."""

    def __init__(self, t_a1, t_a2, t_b1, t_b2, t_assoc, t_sa3, t_fp1, t_fp2,
                 t_fp3, t_head):
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
        assoc_g, dfa2, dfb2 = self.t_assoc.backward(dfe)
        sa2a_g, dfa1 = self.t_a2.backward(dfa2)
        sa1a_g, _ = self.t_a1.backward(dfa1 + dskip)
        sa2b_g, dfb1 = self.t_b2.backward(dfb2)
        sa1b_g, _ = self.t_b1.backward(dfb1)
        groups = {"sa1": sa1a_g.add_(sa1b_g), "sa2": sa2a_g.add_(sa2b_g),
                  "assoc": assoc_g, "sa3": sa3_g, "fp1": fp1_g, "fp2": fp2_g,
                  "fp3": fp3_g, "head": head_g}
        return _flatten_groups(groups)


def _clamped_spec(spec: SaLayerSpec, n: int) -> SaLayerSpec:
    if spec.sample_count <= n:
        return spec
    return SaLayerSpec(n, spec.radius, spec.neighbor_cap, spec.mlp)


def _downsample(rng: np.random.Generator, n: int, n_input: int) -> np.ndarray:
    if n <= n_input:
        return np.arange(n)
    return np.sort(rng.choice(n, size=n_input, replace=False))


def _forward_displacements(frame_a: PointCloud, frame_b: PointCloud,
                           detections_a: Detections, detections_b: Detections,
                           model: DisplacementModel, config: PipelineConfig,
                           capture: bool = False):
    if detections_a.point_mask_probs.shape[0] != len(frame_a) \
            or detections_b.point_mask_probs.shape[0] != len(frame_b):
        raise ValueError("detection mask probabilities must match their clouds")
    rng = np.random.default_rng(config.seed)
    ds_a = _downsample(rng, len(frame_a), config.n_input)
    ds_b = _downsample(rng, len(frame_b), config.n_input)
    pts_a_all = frame_a.points[ds_a]
    pts_b_all = frame_b.points[ds_b]
    probs_a = detections_a.point_mask_probs[ds_a]
    probs_b = detections_b.point_mask_probs[ds_b]
    feats_a_all = point_features(frame_a, detections_a)[ds_a]
    feats_b_all = point_features(frame_b, detections_b)[ds_b]
    for name, probs in (("A", probs_a), ("B", probs_b)):
        if not np.any(probs):
            log.warning("frame %s has no detected points (all %d mask probabilities "
                        "are zero); the filter keeps its %d lowest-index points",
                        name, len(probs), min(config.n_filtered, len(probs)))

    filt_a = probability_filter(PointCloud(pts_a_all), probs_a, config.n_filtered)
    filt_b = probability_filter(PointCloud(pts_b_all), probs_b, config.n_filtered)
    if len(filt_a) == 0 or len(filt_b) == 0:
        raise ValueError("no points remain after the probability filter")
    if len(filt_b) < config.k:
        raise ValueError(f"only {len(filt_b)} filtered frame-B points for "
                         f"k={config.k}; lower k or raise n_filtered")

    pts_a0, feats_a0 = pts_a_all[filt_a], feats_a_all[filt_a]
    pts_b0, feats_b0 = pts_b_all[filt_b], feats_b_all[filt_b]

    def start(n):
        return int(rng.integers(n))

    sa1_a = _clamped_spec(model.sa1, len(pts_a0))
    pts_a1, feats_a1, t_a1 = sa_layer(sa1_a, pts_a0, feats_a0, start(len(pts_a0)),
                                      capture=capture)
    sa2_a = _clamped_spec(model.sa2, len(pts_a1))
    pts_a2, feats_a2, t_a2 = sa_layer(sa2_a, pts_a1, feats_a1, start(len(pts_a1)),
                                      capture=capture)
    sa1_b = _clamped_spec(model.sa1, len(pts_b0))
    pts_b1, feats_b1, t_b1 = sa_layer(sa1_b, pts_b0, feats_b0, start(len(pts_b0)),
                                      capture=capture)
    sa2_b = _clamped_spec(model.sa2, len(pts_b1))
    pts_b2, feats_b2, t_b2 = sa_layer(sa2_b, pts_b1, feats_b1, start(len(pts_b1)),
                                      capture=capture)
    if len(pts_b2) < model.assoc.k:
        raise ValueError(f"only {len(pts_b2)} abstracted frame-B points for "
                         f"k={model.assoc.k}; lower k")

    embedded, t_assoc = association_head(model.assoc, pts_a2, feats_a2, pts_b2,
                                         feats_b2, capture=capture)
    sa3 = _clamped_spec(model.sa3, len(pts_a2))
    pts_a3, feats_a3, t_sa3 = sa_layer(sa3, pts_a2, embedded, start(len(pts_a2)),
                                       capture=capture)
    up2, t_fp1 = fp_layer(pts_a2, pts_a3, feats_a3, None, model.fp1, capture=capture)
    up1, t_fp2 = fp_layer(pts_a1, pts_a2, up2, feats_a1, model.fp2, capture=capture)
    up0, t_fp3 = fp_layer(pts_a0, pts_a1, up1, None, model.fp3, capture=capture)
    vectors, t_head = dense_apply(model.head, up0, capture=capture)

    field = DisplacementField(ds_a[filt_a], vectors)
    tape = PipelineTape(t_a1, t_a2, t_b1, t_b2, t_assoc, t_sa3, t_fp1, t_fp2,
                        t_fp3, t_head) if capture else None
    return field, tape


def predict_displacements(frame_a: PointCloud, frame_b: PointCloud,
                          detections_a: Detections, detections_b: Detections,
                          model: DisplacementModel,
                          config: PipelineConfig) -> DisplacementField:
    """Predict per-point motion vectors for the filtered frame-A points.

    Stateless: consumes exactly the two frames given, nothing else; repeated
    calls on the same inputs return identical fields.
    """
    field, _ = _forward_displacements(frame_a, frame_b, detections_a, detections_b,
                                      model, config, capture=False)
    return field


# ---------------------------------------------------------------------------
# association training
# ---------------------------------------------------------------------------

@dataclass
class TrainHistory:
    """Per-epoch mean loss and the learning rate at each epoch boundary."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_lrs: list[float] = field(default_factory=list)
    steps_per_epoch: int = 0
    steps_per_cycle: int = 0


def _pair_list(dataset) -> list[tuple[PointCloud, FrameLabel, PointCloud, FrameLabel]]:
    sequences = [dataset] if isinstance(dataset, Sequence) else list(dataset)
    pairs = []
    for seq in sequences:
        pairs.extend(seq.adjacent_pairs())
    return pairs


def train_association(dataset, config: PipelineConfig, epochs: int,
                      seed: int = 0) -> tuple[DisplacementModel, TrainHistory]:
    """Train the displacement network on adjacent frame pairs.

    Supervision comes from box-motion targets; the probability filter runs on
    oracle mask probabilities.  Deterministic given the seed; raises if any
    update goes non-finite.
    """
    pairs = _pair_list(dataset)
    if not pairs:
        raise ValueError("dataset must contain at least one adjacent frame pair")
    model = build_displacement_model(config, seed=seed)
    params = model.param_dict()
    state = OptState.init(params)
    steps_per_epoch = len(pairs)
    cycle = max(2, config.clr_cycle_epochs * steps_per_epoch)
    cycle += cycle % 2
    history = TrainHistory(steps_per_epoch=steps_per_epoch, steps_per_cycle=cycle)
    step = 0
    for _ in range(epochs):
        history.epoch_lrs.append(clr_schedule(step, cycle, config.lr_low,
                                              config.lr_high))
        epoch_loss = 0.0
        for cloud_a, label_a, cloud_b, label_b in pairs:
            det_a = oracle_detector(cloud_a, label_a)
            det_b = oracle_detector(cloud_b, label_b)
            field, tape = _forward_displacements(cloud_a, cloud_b, det_a, det_b,
                                                 model, config, capture=True)
            targets = label_targets(cloud_a, label_a, label_b)
            sel = field.point_indices
            loss, grad = tracking_loss(field.vectors, targets.displacement[sel],
                                       targets.foreground_mask[sel],
                                       alpha=config.alpha, beta=config.beta,
                                       excluded=targets.excluded[sel])
            if not np.isfinite(loss):
                raise ValueError("training loss became non-finite")
            grads = tape.backward(grad)
            lr = clr_schedule(step, cycle, config.lr_low, config.lr_high)
            params, state = adam_step(params, grads, state, lr)
            model.load_param_dict(params)
            epoch_loss += loss
            step += 1
        history.epoch_losses.append(epoch_loss / steps_per_epoch)
    return model, history


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def mean_displacement_error(model: DisplacementModel, config: PipelineConfig,
                            pairs) -> float:
    """Mean Euclidean error over foreground (non-excluded) predicted points."""
    errors = []
    for cloud_a, label_a, cloud_b, label_b in pairs:
        det_a = oracle_detector(cloud_a, label_a)
        det_b = oracle_detector(cloud_b, label_b)
        field = predict_displacements(cloud_a, cloud_b, det_a, det_b, model, config)
        targets = label_targets(cloud_a, label_a, label_b)
        sel = field.point_indices
        keep = targets.foreground_mask[sel] & ~targets.excluded[sel]
        if np.any(keep):
            err = field.vectors[keep] - targets.displacement[sel][keep]
            errors.append(np.linalg.norm(err, axis=1))
    if not errors:
        raise ValueError("no foreground points to evaluate")
    return float(np.concatenate(errors).mean())
