"""Whole-network checks of the displacement pipeline.

The golden tests pin, on fixed seeds, the predicted field and one training
step's gradients and parameters of a tiny model, two epochs of that model
trained over the pairs of two drives of different frame sizes, one epoch of
the desk-scale model trained over one default drive, the field
of an untrained paper-scale model, whose large layers take other code paths
(nearest's grid search), and the turning multi-frame drives of the scene
generator that feeds them.  Regenerate the pinned files only for an intended
output change, with `PYTHONPATH=src python tests/test_pipeline.py`.
"""

import dataclasses
import json
import logging
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from disptrack import pipeline
from disptrack.geom import Box3D, PointCloud
from disptrack.ingest import (
    FrameLabel,
    SceneConfig,
    Sequence,
    TrainingTargets,
    label_targets,
    synthesize_sequence,
)
from disptrack.micronet import (
    DenseParams,
    SaLayerSpec,
    dense_apply,
    fp_layer,
    sa_layer,
    select_groups,
    tracking_loss,
)
from disptrack.micronet import layers as layers_module
from disptrack.pipeline import PipelineConfig, SaConfig
from gradcheck import gradient_check

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.npz"
PAPER_GOLDEN = Path(__file__).parent / "data" / "paper_field_golden.npz"
SYNTH_GOLDEN = Path(__file__).parent / "data" / "synthesis_golden.npz"
TRAINING_GOLDEN = Path(__file__).parent / "data" / "training_golden.npz"
DESK_TRAINING_GOLDEN = Path(__file__).parent / "data" / "desk_training_golden.npz"
TINY = PipelineConfig(n_input=240, n_filtered=128, k=8,
                      sa1=SaConfig(32, 0.5, 8, (8, 8)), sa2=SaConfig(16, 1.0, 8, (8, 8)),
                      assoc_widths=(8,), sa3=SaConfig(4, 4.0, 8, (8,)),
                      fp1_widths=(8,), fp2_widths=(8,), fp3_widths=(8,), head_widths=(8,))
# 260 points per frame, so the n_input downsampling runs, and ~120 foreground
# points, so the filter keeps some background and both loss sides are used.
# At initialisation its isolated background points carry all-zero features,
# whose cosine passes no gradient, so no gradient reaches the sa2 stream.
SCENE = SceneConfig(frames=2, objects=2, points_per_object=60, background_points=140)
# Also 260 points per frame, but mostly on objects: most sa2 outputs then have
# non-zero norm, so the cosine head passes gradient back into sa2.
OBJECT_SCENE = SceneConfig(frames=2, objects=4, points_per_object=60, background_points=20)


def tiny_config(**changes) -> PipelineConfig:
    return PipelineConfig.from_dict({**TINY.to_dict(), **changes})


def scene_pair(seed: int = 3, scene: SceneConfig = SCENE):
    seq = synthesize_sequence(scene, seed)
    a, label_a, b, label_b = next(seq.adjacent_pairs())
    return seq, a, label_a, b, label_b


def predict(model, config, a, label_a, b, label_b):
    det_a = pipeline.oracle_detector(a, label_a)
    det_b = pipeline.oracle_detector(b, label_b)
    return pipeline.predict_displacements(a, b, det_a, det_b, model, config)


#: (key prefix, scene) of each golden case of the TINY config.
GOLDEN_CASES = (
    ("cosine_distance", SCENE),
    ("cosine_distance.objects", OBJECT_SCENE),
)


def golden_outputs() -> dict[str, np.ndarray]:
    """Per case: the field of an untrained model, then one train_association
    step's gradients (as handed to Adam) and the parameters after it."""
    seen = []
    original = pipeline.adam_step

    def recording_adam_step(params, grads, state, lr, **kwargs):
        seen.append(grads)
        return original(params, grads, state, lr, **kwargs)

    out = {}
    for name, scene in GOLDEN_CASES:
        seq, a, label_a, b, label_b = scene_pair(scene=scene)
        model = pipeline.build_displacement_model(TINY)
        field = predict(model, TINY, a, label_a, b, label_b)
        out[f"{name}/field.indices"] = field.point_indices
        out[f"{name}/field.vectors"] = field.vectors

        seen.clear()
        pipeline.adam_step = recording_adam_step
        try:
            trained, _ = pipeline.train_association(seq, TINY, epochs=1)
        finally:
            pipeline.adam_step = original
        assert len(seen) == 1
        out.update({f"{name}/grad.{k}": v for k, v in seen[0].items()})
        out.update({f"{name}/param.{k}": v for k, v in trained.param_dict().items()})
    return out


def test_golden_field_gradients_and_step():
    expected = np.load(GOLDEN)
    actual = golden_outputs()
    assert sorted(actual) == sorted(expected.files)
    # The object-scene case exists to pin sa2's backward, which SCENE's leaves
    # at zero.
    for key in ("w0", "b0", "w1", "b1"):
        assert np.any(expected[f"cosine_distance.objects/grad.sa2.{key}"]), key
    for key in expected.files:
        if key.endswith("field.indices"):
            assert np.array_equal(actual[key], expected[key]), key
        np.testing.assert_allclose(actual[key], expected[key], rtol=1e-12, atol=0,
                                   err_msg=key)


#: Two drives of three frames each, so four training pairs.  The first has
#: 30 points per frame, fewer than TINY's n_filtered and its sa1 sample
#: count, so the filter keeps every point and sa1 samples each one; the
#: second has 260, more than n_input, so the input subsample draws.
TRAINING_DRIVES = (
    (SceneConfig(frames=3, objects=2, points_per_object=12, background_points=6), 5),
    (SceneConfig(frames=3, objects=2, points_per_object=60, background_points=140), 6),
)
TRAINING_EPOCHS = 2


def training_outputs() -> dict[str, np.ndarray]:
    """The parameters and per-epoch losses of TINY trained for
    TRAINING_EPOCHS over the pairs of both TRAINING_DRIVES."""
    drives = [synthesize_sequence(scene, seed) for scene, seed in TRAINING_DRIVES]
    model, history = pipeline.train_association(drives, TINY, epochs=TRAINING_EPOCHS)
    out = {f"param.{k}": v for k, v in model.param_dict().items()}
    out["epoch_losses"] = np.array(history.epoch_losses)
    return out


def assert_bytes_equal(actual: dict[str, np.ndarray], path: Path) -> None:
    expected = np.load(path)
    assert sorted(actual) == sorted(expected.files)
    for key in expected.files:
        new, old = np.asarray(actual[key]), expected[key]
        assert (new.dtype, new.shape) == (old.dtype, old.shape), key
        assert new.tobytes() == old.tobytes(), key


# Frames planned per _plan_frames call: each drive is planned on its own, a
# window of frames at a time, so a frame on a window edge is planned once.
@pytest.mark.parametrize("frames_per_window, chunks", [
    (1, [1, 1, 1, 1, 1, 1]),
    (2, [2, 1, 2, 1]),
    (None, [3, 3]),       # the default: each drive in one window
])
def test_multi_pair_training_matches_the_golden(monkeypatch, frames_per_window, chunks):
    if frames_per_window is not None:
        monkeypatch.setattr(pipeline, "_PLAN_POINTS", frames_per_window * TINY.n_filtered)
    planned = []
    real = pipeline._plan_frames

    def recording(frames, config):
        planned.append(len(frames))
        return real(frames, config)
    monkeypatch.setattr(pipeline, "_plan_frames", recording)
    assert_bytes_equal(training_outputs(), TRAINING_GOLDEN)
    assert planned == chunks * TRAINING_EPOCHS


def desk_training_outputs() -> dict[str, np.ndarray]:
    """The parameters and epoch loss of the desk defaults trained for one
    epoch over the 49 pairs of the default drive: layers wider than TINY's,
    whose training bits no TINY golden pins."""
    drive = synthesize_sequence(SceneConfig(), 0)
    model, history = pipeline.train_association(drive, PipelineConfig(), epochs=1)
    out = {f"param.{k}": v for k, v in model.param_dict().items()}
    out["epoch_losses"] = np.array(history.epoch_losses)
    return out


def test_desk_training_matches_the_golden():
    assert_bytes_equal(desk_training_outputs(), DESK_TRAINING_GOLDEN)


#: The paper benchmark workloads' scene: 15 000 points per frame.
PAPER_SCENE = SceneConfig(frames=2, objects=8, points_per_object=500, background_points=11000)


def paper_field_outputs() -> dict[str, np.ndarray]:
    """The field of an untrained paper-scale model on one 15 000-point pair,
    the scene of the paper benchmark workloads."""
    a, label_a, b, label_b = next(synthesize_sequence(PAPER_SCENE, 601).adjacent_pairs())
    config = PipelineConfig.paper_scale()
    model = pipeline.build_displacement_model(config)
    field = predict(model, config, a, label_a, b, label_b)
    return {"field.indices": field.point_indices, "field.vectors": field.vectors}


def test_paper_scale_golden_field():
    expected = np.load(PAPER_GOLDEN)
    actual = paper_field_outputs()
    assert sorted(actual) == sorted(expected.files)
    assert np.array_equal(actual["field.indices"], expected["field.indices"])
    np.testing.assert_allclose(actual["field.vectors"], expected["field.vectors"],
                               rtol=1e-12, atol=0)


#: (config, scene, seeds) of each pair kind the pruned forward pass is
#: checked on: both TINY golden scenes, the desk defaults and one paper pair.
PRUNING_CASES = {
    "tiny-scene": (TINY, SCENE, (3, 8, 13)),
    "tiny-objects": (TINY, OBJECT_SCENE, (3, 8, 13)),
    "desk": (PipelineConfig(), SceneConfig(frames=2), (0, 1, 2)),
    "paper": (PipelineConfig.paper_scale(), PAPER_SCENE, (601,)),
}
PRUNING_PAIRS = [(case, seed) for case, (_, _, seeds) in PRUNING_CASES.items()
                 for seed in seeds]


def kept_targets(plan, label_a, label_b):
    """The targets of a pair whose frame A has plan, on its kept points."""
    return label_targets(PointCloud(plan.points), label_a, label_b)


def train_step(plans, model, config, targets):
    """(vectors, loss, gradients) of one training step of model on the pair
    of planned frames plans, as train_association computes them."""
    vectors, tape = pipeline._forward_displacements(*plans, model, config, capture=True)
    loss, grad = tracking_loss(vectors, targets.displacement, targets.foreground_mask,
                               targets.excluded)
    return vectors, loss, tape.backward(grad)


def pruning_pair(case: str, seed: int):
    """(config, drive, its first pair with detections, and the plans of
    that pair's frames) of a PRUNING_CASES case, the config seeded with
    seed."""
    base, scene, _ = PRUNING_CASES[case]
    config = PipelineConfig.from_dict({**base.to_dict(), "seed": seed})
    seq = synthesize_sequence(scene, seed)
    a, label_a, b, label_b = next(seq.adjacent_pairs())
    det_a, det_b = pipeline.oracle_detector(a, label_a), pipeline.oracle_detector(b, label_b)
    plans = pipeline._plan_frames([(a, det_a), (b, det_b)], config)
    return config, seq, (a, label_a, b, label_b, det_a, det_b), plans


@pytest.mark.parametrize("case, seed", PRUNING_PAIRS)
def test_uncaptured_forward_computes_the_captured_field(case, seed):
    # Prediction and training run the same rows; capturing the tapes must
    # change no bit of the field, before and after a training step.
    config, seq, (a, label_a, b, label_b, det_a, det_b), plans = pruning_pair(case, seed)
    untrained = pipeline.build_displacement_model(config)
    stepped, _ = pipeline.train_association(seq, config, epochs=1)
    for model in (untrained, stepped):
        captured, _ = pipeline._forward_displacements(*plans, model, config, capture=True)
        field = pipeline.predict_displacements(a, b, det_a, det_b, model, config)
        assert np.isfinite(field.vectors).all()
        assert field.point_indices.tobytes() == plans[0].kept.tobytes()
        assert field.vectors.tobytes() == captured.tobytes()


@pytest.mark.parametrize("case, seed", PRUNING_PAIRS)
def test_every_row_plan_keeps_the_field_and_the_gradients(case, seed):
    # A plan that marks every row live runs the rows no later layer reads.
    # Their gradient is zero, so the field keeps every bit; the weight
    # gradients of sa1, sa2 and the association head may move in their last
    # bits only, because the group kernel sums them in other blocks: by at
    # most 1e-12 of each array's largest entry (an entry near zero may move
    # by more than 1e-12 of itself).
    config, _, (a, label_a, b, label_b, *_), plans = pruning_pair(case, seed)
    plan_a, plan_b = plans
    every = (dataclasses.replace(plan_a, live2=np.arange(len(plan_a.select[1].centroids))),
             dataclasses.replace(plan_b, live1=np.arange(len(plan_b.select[0].centroids))))
    model = pipeline.build_displacement_model(config)
    targets = kept_targets(plan_a, label_a, label_b)
    vectors, _, grads = train_step(plans, model, config, targets)
    every_vectors, _, every_grads = train_step(every, model, config, targets)
    assert every_vectors.tobytes() == vectors.tobytes()
    assert sorted(every_grads) == sorted(grads)
    for key, grad in grads.items():
        if case.startswith("tiny"):
            assert every_grads[key].tobytes() == grad.tobytes(), key
        np.testing.assert_allclose(every_grads[key], grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max(), err_msg=key)


def test_predict_runs_the_association_head_on_live_rows_only(monkeypatch):
    # On the TINY golden pair sa3 groups only 4 of the 16 frame-A sa2 points
    # and frame-B sa2 only 16 of the 32 frame-B sa1 points, so predict and
    # training both embed those 4 and run sa1-B on those 16 groups.
    seq, a, label_a, b, label_b = scene_pair()
    rows, sa1_groups = [], []
    real_head, real_sa = pipeline.association_head, pipeline.sa_layer

    def head_spy(spec, points_a, feats_a, points_b, feats_b, capture=False):
        rows.append((len(points_a), len(feats_a), len(points_b), capture))
        return real_head(spec, points_a, feats_a, points_b, feats_b, capture=capture)

    def sa_spy(spec, points, feats, selection, capture=False):
        if feats.shape[1] == pipeline.POINT_FEATURE_WIDTH:     # sa1 reads the input
            sa1_groups.append((len(selection.centroids), capture))
        return real_sa(spec, points, feats, selection, capture=capture)
    monkeypatch.setattr(pipeline, "association_head", head_spy)
    monkeypatch.setattr(pipeline, "sa_layer", sa_spy)
    model = pipeline.build_displacement_model(TINY)
    predict(model, TINY, a, label_a, b, label_b)
    pipeline.train_association(seq, TINY, epochs=1)
    assert rows == [(4, 4, 16, False), (4, 4, 16, True)]
    # sa1-A runs all 32 groups: fp2 reads every one of them.
    assert sa1_groups == [(32, False), (16, False), (32, True), (16, True)]


def test_each_set_abstraction_level_selects_its_groups_once_per_frame(monkeypatch):
    # The plan runs the ball queries (every level of both frames); the layers
    # select no neighbours of their own.
    seq, a, label_a, b, label_b = scene_pair()
    calls = []
    real = layers_module.ball_query

    def counted(query, points, radius, cap):
        calls.append((len(query), radius))
        return real(query, points, radius, cap)
    monkeypatch.setattr(layers_module, "ball_query", counted)
    model = pipeline.build_displacement_model(TINY)
    plans = pipeline._plan_frames([(a, pipeline.oracle_detector(a, label_a)),
                                   (b, pipeline.oracle_detector(b, label_b))], TINY)
    assert calls == [(32, 0.5), (32, 0.5), (16, 1.0), (16, 1.0), (4, 4.0), (4, 4.0)]
    calls.clear()
    pipeline._forward_displacements(*plans, model, TINY)
    pipeline._forward_displacements(*plans, model, TINY, capture=True)
    assert calls == []
    predict(model, TINY, a, label_a, b, label_b)
    pipeline.train_association(seq, TINY, epochs=1)
    assert len(calls) == 12


#: A drive of three TINY frames of 260 points, so the input subsample draws.
DRIVE_SCENE = dataclasses.replace(OBJECT_SCENE, frames=3)


def drive_frames(scene: SceneConfig = DRIVE_SCENE, seed: int = 3):
    """The (cloud, oracle detections) of each frame of a drive."""
    return [(cloud, pipeline.oracle_detector(cloud, label))
            for cloud, label in synthesize_sequence(scene, seed).frames]


def frame_plan_bytes(plan) -> list[bytes]:
    """The bytes of a frame plan: its network input, every level's
    centroids and groups, and its live rows."""
    return [x.tobytes() for x in (plan.kept, plan.points, plan.feats,
                                  *(x for sel in plan.select for x in sel),
                                  plan.live1, plan.live2)]


def test_a_frame_plans_the_same_as_frame_b_and_as_frame_a():
    # Frame 1 is frame B of (0, 1) and frame A of (1, 2).  Planned with
    # either neighbour, with both or alone, and under another k, its plan
    # agrees byte for byte, and the two pairs of a drive read one plan of it.
    (f0, d0), (f1, d1), (f2, d2) = drive_frames()
    _, as_b = pipeline._plan_frames([(f0, d0), (f1, d1)], TINY)
    as_a, _ = pipeline._plan_frames([(f1, d1), (f2, d2)], TINY)
    _, together, _ = pipeline._plan_frames([(f0, d0), (f1, d1), (f2, d2)], TINY)
    [other_k] = pipeline._plan_frames([(f1, d1)], tiny_config(k=4))
    assert frame_plan_bytes(as_b) == frame_plan_bytes(as_a) == frame_plan_bytes(together)
    assert frame_plan_bytes(other_k) == frame_plan_bytes(as_a)
    frames = synthesize_sequence(DRIVE_SCENE, 3).frames
    (_, shared_b, _), (shared_a, _, _) = pipeline._drive_steps(frames, TINY)
    assert shared_b is shared_a
    assert frame_plan_bytes(shared_a) == frame_plan_bytes(as_a)


@pytest.mark.parametrize("frames_per_window", [None, 1, 2])
def test_a_drive_detects_and_plans_each_frame_once(monkeypatch, caplog, frames_per_window):
    # Four frames, three pairs, in one window (the default) or in windows of
    # one or two frames: each frame is detected, filtered and grouped at every
    # level once, also on a window edge, and frame 1, whose detections are
    # empty, is warned about once, though two pairs read it.  Each pair's
    # targets are labelled once, on frame A's kept points.
    if frames_per_window is not None:
        monkeypatch.setattr(pipeline, "_PLAN_POINTS", frames_per_window * TINY.n_filtered)
    seq = synthesize_sequence(dataclasses.replace(SCENE, frames=4), 3)
    calls = {"detect": 0, "features": 0, "ball_query": [], "plan": [], "targets": []}
    kept = {}
    real_detect, real_features = pipeline.oracle_detector, pipeline.point_features
    real_query, real_plan = layers_module.ball_query, pipeline._plan_frames
    real_targets = pipeline.label_targets

    def detect(frame, labels, *args, **kwargs):
        calls["detect"] += 1
        found = real_detect(frame, labels, *args, **kwargs)
        if labels.frame_index == 1:
            return pipeline.Detections([], np.zeros(len(frame)))
        return found

    def features(frame, detections):
        calls["features"] += 1
        return real_features(frame, detections)

    def query(query_points, points, radius, cap):
        calls["ball_query"].append(radius)
        return real_query(query_points, points, radius, cap)

    def plan(frames, config):
        calls["plan"].append(len(frames))
        plans = real_plan(frames, config)
        kept.update((id(frame), p.points) for (frame, _), p in zip(frames, plans))
        return plans

    def targets(cloud, labels_prev, labels_curr, *args, **kwargs):
        calls["targets"].append((cloud.points, labels_prev.frame_index,
                                 labels_curr.frame_index))
        return real_targets(cloud, labels_prev, labels_curr, *args, **kwargs)
    monkeypatch.setattr(pipeline, "oracle_detector", detect)
    monkeypatch.setattr(pipeline, "point_features", features)
    monkeypatch.setattr(layers_module, "ball_query", query)
    monkeypatch.setattr(pipeline, "_plan_frames", plan)
    monkeypatch.setattr(pipeline, "label_targets", targets)
    with caplog.at_level(logging.WARNING, logger="disptrack.pipeline"):
        pipeline.train_association(seq, TINY, epochs=1)
    assert calls["detect"] == 4 and calls["features"] == 4
    assert calls["plan"] == {None: [4], 1: [1, 1, 1, 1], 2: [2, 2]}[frames_per_window]
    assert sorted(calls["ball_query"]) == [0.5] * 4 + [1.0] * 4 + [4.0] * 4
    assert [pair for _, *pair in calls["targets"]] == [[0, 1], [1, 2], [2, 3]]
    for points, index, _ in calls["targets"]:
        assert len(points) == TINY.n_filtered
        assert points.tobytes() == kept[id(seq.frames[index][0])].tobytes()
    assert [record.getMessage() for record in caplog.records] == [
        "a frame has no detected points (all 240 mask probabilities are zero); "
        "the filter keeps its 128 lowest-index points"]


def test_a_training_step_leaves_the_shared_frame_plan_unchanged():
    # The captured forward and backward of (0, 1) read frame 1's shared plan;
    # an in-place write there would leak into pair (1, 2).
    frames = drive_frames()
    plans = pipeline._plan_frames(frames, TINY)
    [fresh] = pipeline._plan_frames([frames[1]], TINY)
    labels = [label for _, label in synthesize_sequence(DRIVE_SCENE, 3).frames]
    targets = kept_targets(plans[0], labels[0], labels[1])
    model = pipeline.build_displacement_model(TINY)
    _, _, grads = train_step(plans[:2], model, TINY, targets)
    assert any(np.any(g) for key, g in grads.items() if key.startswith("sa1."))
    assert frame_plan_bytes(plans[1]) == frame_plan_bytes(fresh)


#: (key prefix, scene) of each pinned drive scene.  The pipeline goldens' two
#: frames never turn; these drives redraw every heading several times, one
#: also at every frame, with no background and no sensor noise.
SYNTH_CASES = (
    ("turning", SceneConfig(frames=12, objects=5, points_per_object=20,
                            background_points=10, direction_change_every=4)),
    ("turning_each_frame", SceneConfig(frames=6, objects=3, points_per_object=16,
                                       background_points=0, noise_sigma=0.0,
                                       direction_change_every=1)),
)
SYNTH_SEEDS = (0, 1)


def synthesis_outputs() -> dict[str, np.ndarray]:
    """Per scene and seed: each frame's points, and its boxes' centres,
    sizes, yaws and track ids, stacked over frames."""
    out = {}
    for name, scene in SYNTH_CASES:
        for seed in SYNTH_SEEDS:
            frames = synthesize_sequence(scene, seed).frames
            boxes = [label.boxes for _, label in frames]
            prefix = f"{name}.{seed}"
            out[f"{prefix}/points"] = np.stack([cloud.points for cloud, _ in frames])
            out[f"{prefix}/centres"] = np.array([[b.center for b in bs] for bs in boxes])
            out[f"{prefix}/sizes"] = np.array([[b.size for b in bs] for bs in boxes])
            out[f"{prefix}/yaws"] = np.array([[b.yaw for b in bs] for bs in boxes])
            out[f"{prefix}/track_ids"] = np.array([[b.track_id for b in bs] for bs in boxes])
    return out


def test_synthesized_turning_drives_match_the_golden():
    expected = np.load(SYNTH_GOLDEN)
    actual = synthesis_outputs()
    assert sorted(actual) == sorted(expected.files)
    for key in expected.files:
        if key.endswith("track_ids"):
            assert np.array_equal(actual[key], expected[key]), key
        np.testing.assert_allclose(actual[key], expected[key], rtol=1e-12, atol=0,
                                   err_msg=key)


def loss_closure(model, config, a, label_a, b, label_b):
    det_a = pipeline.oracle_detector(a, label_a)
    det_b = pipeline.oracle_detector(b, label_b)
    plans = pipeline._plan_frames([(a, det_a), (b, det_b)], config)
    targets = kept_targets(plans[0], label_a, label_b)

    def loss_fn(params):
        model.load_param_dict(params)
        _, loss, grads = train_step(plans, model, config, targets)
        return loss, grads
    return loss_fn


# On OBJECT_SCENE most sa2 outputs have non-zero norm, so more of sa2's
# gradient comes through the cosine; k=2 is the smallest neighbourhood whose
# max pool picks between frame-B points.
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("scene", [SCENE, OBJECT_SCENE], ids=["scene", "objects"])
def test_whole_network_gradients_match_finite_differences(scene, k):
    _, a, label_a, b, label_b = scene_pair(scene=scene)
    config = tiny_config(seed=1, k=k)
    model = pipeline.build_displacement_model(config)
    loss_fn = loss_closure(model, config, a, label_a, b, label_b)
    # Biases start at zero and background points enter sa1 as all-zero rows,
    # which puts ReLU pre-activations exactly on the kink; jitter every
    # parameter so the finite differences see a smooth neighbourhood.
    rng = np.random.default_rng(0)
    params = {k: v + rng.normal(0.0, 0.05, v.shape) for k, v in model.param_dict().items()}
    assert gradient_check(loss_fn, params, probe_count=40, seed=2) < 1e-4

    # sa1/sa2 are shared by both frame streams; their gradient is the sum of
    # the two streams' contributions, so probe them on their own as well.
    shared = {k: v for k, v in params.items() if k.startswith(("sa1.", "sa2."))}

    def shared_loss_fn(sub):
        loss, grads = loss_fn({**params, **sub})
        return loss, {k: grads[k] for k in sub}
    assert gradient_check(shared_loss_fn, shared, probe_count=30, seed=3) < 1e-4


def test_training_and_prediction_are_deterministic_per_seed():
    seq, a, label_a, b, label_b = scene_pair()
    model_1, hist_1 = pipeline.train_association(seq, tiny_config(seed=5), epochs=2)
    model_2, hist_2 = pipeline.train_association(seq, tiny_config(seed=5), epochs=2)
    model_3, _ = pipeline.train_association(seq, tiny_config(seed=6), epochs=2)
    assert hist_1.epoch_losses == hist_2.epoch_losses
    p1, p2, p3 = model_1.param_dict(), model_2.param_dict(), model_3.param_dict()
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    assert not all(np.array_equal(p1[k], p3[k]) for k in p1)

    f1 = predict(model_1, TINY, a, label_a, b, label_b)
    f2 = predict(model_1, TINY, a, label_a, b, label_b)
    assert np.array_equal(f1.point_indices, f2.point_indices)
    assert np.array_equal(f1.vectors, f2.vectors)


def test_field_is_invariant_to_translating_the_scene():
    _, a, label_a, b, label_b = scene_pair()
    model = pipeline.build_displacement_model(TINY)
    offset = np.array([12.5, -7.25, 0.75])

    def shifted(cloud, label):
        return (PointCloud(cloud.points + offset),
                FrameLabel(label.frame_index, [box.translated(offset) for box in label.boxes]))

    base = predict(model, TINY, a, label_a, b, label_b)
    moved = predict(model, TINY, *shifted(a, label_a), *shifted(b, label_b))
    assert np.array_equal(base.point_indices, moved.point_indices)
    np.testing.assert_allclose(moved.vectors, base.vectors, rtol=0, atol=1e-9)


def test_point_features_run_once_per_frame_on_the_kept_points_only(monkeypatch):
    seen = []
    real = pipeline.point_features

    def recording(frame, detections):
        seen.append((len(frame), len(detections.point_mask_probs)))
        return real(frame, detections)
    monkeypatch.setattr(pipeline, "point_features", recording)
    _, a, label_a, b, label_b = scene_pair()
    predict(pipeline.build_displacement_model(TINY), TINY, a, label_a, b, label_b)
    assert seen == [(TINY.n_filtered, TINY.n_filtered)] * 2


def test_frame_without_detections_logs_a_warning(caplog):
    _, a, label_a, b, label_b = scene_pair()
    model = pipeline.build_displacement_model(TINY)
    det_b = pipeline.oracle_detector(b, label_b)
    empty_a = pipeline.Detections([], np.zeros(len(a)))
    with caplog.at_level(logging.WARNING, logger="disptrack.pipeline"):
        predict(model, TINY, a, label_a, b, label_b)
        assert caplog.records == []
        field = pipeline.predict_displacements(a, b, empty_a, det_b, model, TINY)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        "a frame has no detected points (all 240 mask probabilities are zero); "
        "the filter keeps its 128 lowest-index points")
    assert len(field.point_indices) == TINY.n_filtered
    assert np.all(np.isfinite(field.vectors))

    # An empty frame B warns the same, once (for a drive's frames see
    # test_a_drive_detects_and_plans_each_frame_once).
    caplog.clear()
    empty_b = pipeline.Detections([], np.zeros(len(b)))
    with caplog.at_level(logging.WARNING, logger="disptrack.pipeline"):
        pipeline.predict_displacements(a, b, pipeline.oracle_detector(a, label_a), empty_b,
                                       model, TINY)
    assert [record.getMessage() for record in caplog.records] == [
        "a frame has no detected points (all 240 mask probabilities are zero); "
        "the filter keeps its 128 lowest-index points"]


#: (call, message) per field of each entry point that takes per-point
#: arrays: 8 points, one field of the wrong shape.
EIGHT = np.arange(8)
XYZ8 = np.zeros((8, 3))
MASK8 = np.zeros(8, dtype=bool)
SCRAMBLED = np.arange(24.0).reshape(6, 4)
PAIRED = np.zeros((4, 2))
MLP2 = DenseParams.create([2, 2], np.random.default_rng(0))
PER_POINT_CASES = {
    "field-indices": (lambda: pipeline.DisplacementField(EIGHT.reshape(4, 2), XYZ8),
                      "point_indices must be a 1-D array, got shape (4, 2)"),
    "field-vectors": (lambda: pipeline.DisplacementField(EIGHT, SCRAMBLED),
                      "vectors must be an (n, 3) array, got shape (6, 4)"),
    "targets-mask": (lambda: TrainingTargets(PAIRED, XYZ8, MASK8),
                     "foreground_mask must be a 1-D array, got shape (4, 2)"),
    "targets-displacement": (lambda: TrainingTargets(~MASK8, SCRAMBLED, MASK8),
                             "displacement must be an (n, 3) array, got shape (6, 4)"),
    "targets-excluded": (lambda: TrainingTargets(MASK8, XYZ8, PAIRED),
                         "excluded must be a 1-D array, got shape (4, 2)"),
    "loss-pred": (lambda: tracking_loss(SCRAMBLED, XYZ8, MASK8, MASK8),
                  "pred_disp must be an (n, 3) array, got shape (6, 4)"),
    "loss-target": (lambda: tracking_loss(XYZ8, SCRAMBLED, MASK8, MASK8),
                    "target_disp must be an (n, 3) array, got shape (6, 4)"),
    "loss-mask": (lambda: tracking_loss(XYZ8, XYZ8, PAIRED, MASK8),
                  "foreground_mask must be a 1-D array, got shape (4, 2)"),
    "loss-excluded": (lambda: tracking_loss(XYZ8, XYZ8, MASK8, PAIRED),
                      "excluded must be a 1-D array, got shape (4, 2)"),
    "detections": (lambda: pipeline.Detections([], PAIRED),
                   "point_mask_probs must be a 1-D array, got shape (4, 2)"),
    "filter": (lambda: pipeline.probability_filter(PointCloud(XYZ8), PAIRED, 3),
               "probs must be a 1-D array, got shape (4, 2)"),
    "dense-input": (lambda: dense_apply(MLP2, np.zeros(2)),
                    "x must be an (n, 2) array, got shape (2,)"),
}


@pytest.mark.parametrize("case", PER_POINT_CASES)
def test_per_point_arrays_keep_their_shape(case):
    # Each array used to be flattened or reshaped to (-1, 3), so a (6, 4)
    # displacement read as 8 scrambled vectors and a (4, 2) mask as 8 points.
    call, message = PER_POINT_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


FLOAT2 = np.array([0.5, 2.0])
XYZ2 = np.zeros((2, 3))
MASK2 = np.zeros(2, dtype=bool)
BOOL_XYZ2 = np.ones((2, 3), dtype=bool)
FEATS2 = np.zeros((2, 1))
SPEC = SaLayerSpec(1, DenseParams.create([3 + 1, 2], np.random.default_rng(0)))
MLP1 = DenseParams.create([1, 2], np.random.default_rng(0))
PER_POINT_DTYPE_CASES = {
    "field-indices": (lambda: pipeline.DisplacementField([0.7, 1.2], XYZ2),
                      "point_indices must hold int values, got dtype float64"),
    "field-indices-bool": (lambda: pipeline.DisplacementField(~MASK2, XYZ2),
                           "point_indices must hold int values, got dtype bool"),
    "targets-mask": (lambda: TrainingTargets(FLOAT2, XYZ2, MASK2),
                     "foreground_mask must hold bool values, got dtype float64"),
    "targets-excluded": (lambda: TrainingTargets(MASK2, XYZ2, np.array([0, 0])),
                         "excluded must hold bool values, got dtype int64"),
    "loss-mask": (lambda: tracking_loss(XYZ2, XYZ2, FLOAT2, MASK2),
                  "foreground_mask must hold bool values, got dtype float64"),
    "loss-excluded": (lambda: tracking_loss(XYZ2, XYZ2, MASK2, np.array([1, 0])),
                      "excluded must hold bool values, got dtype int64"),
    "detections-bool": (lambda: pipeline.Detections([], [True, False]),
                        "point_mask_probs must hold float values, got dtype bool"),
    "filter-bool": (lambda: pipeline.probability_filter(PointCloud(XYZ2), ~MASK2, 1),
                    "probs must hold float values, got dtype bool"),
    "cloud-bool": (lambda: PointCloud(BOOL_XYZ2),
                   "points must hold float values, got dtype bool"),
    "loss-pred-bool": (lambda: tracking_loss(BOOL_XYZ2, XYZ2, MASK2, MASK2),
                       "pred_disp must hold float values, got dtype bool"),
    "sa-points-bool": (lambda: sa_layer(SPEC, BOOL_XYZ2, FEATS2,
                                        select_groups(XYZ2, [0], 1.0, 2)),
                       "points must hold float values, got dtype bool"),
    "sa-feats-bool": (lambda: sa_layer(SPEC, XYZ2, FEATS2 == 0,
                                       select_groups(XYZ2, [0], 1.0, 2)),
                      "feats must hold float values, got dtype bool"),
    "fp-points-bool": (lambda: fp_layer(BOOL_XYZ2, XYZ2, FEATS2, None, MLP1),
                       "target_points must hold float values, got dtype bool"),
    "fp-feats-bool": (lambda: fp_layer(XYZ2, XYZ2, FEATS2 == 0, None, MLP1),
                      "source_feats must hold float values, got dtype bool"),
    "dense-input-bool": (lambda: dense_apply(MLP1, FEATS2 == 0),
                         "x must hold float values, got dtype bool"),
    "dense-weights-bool": (lambda: DenseParams([np.ones((3, 2), dtype=bool)], [np.zeros(2)]),
                           "weights[0] must hold float values, got dtype bool"),
}


@pytest.mark.parametrize("case", PER_POINT_DTYPE_CASES)
def test_index_and_mask_arrays_are_not_cast(case):
    # A float index vector used to be truncated ([0.7, 1.2] built indices
    # [0, 1]), a float or integer mask read as truth values ([0.5, 2.0] as
    # [True, True]) and a bool probability vector as numbers ([True, False]
    # as [1.0, 0.0]).
    call, message = PER_POINT_DTYPE_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_integer_probabilities_pass_as_floats():
    detections = pipeline.Detections([], np.array([1, 0]))
    assert detections.point_mask_probs.dtype == np.float64
    assert detections.point_mask_probs.tolist() == [1.0, 0.0]
    assert pipeline.probability_filter(PointCloud(XYZ2), np.array([0, 1]), 1).tolist() == [1]


def test_empty_index_and_mask_lists_take_their_field_dtype():
    field = pipeline.DisplacementField([], np.zeros((0, 3)))
    targets = TrainingTargets([], np.zeros((0, 3)), [])
    assert field.point_indices.dtype.kind == "i" and field.point_indices.shape == (0,)
    assert targets.foreground_mask.dtype == targets.excluded.dtype == np.bool_


@pytest.mark.parametrize("boxes, message", [
    ([1, 2], "boxes[0] must be a Box3D, got int"),
    ([Box3D(np.zeros(3), np.ones(3), 0.0), "box"], "boxes[1] must be a Box3D, got str"),
    ([None], "boxes[0] must be a Box3D, got NoneType"),
])
def test_detections_reject_boxes_that_are_not_box3d(boxes, message):
    # Such boxes used to build, and point_features then raised an
    # AttributeError inside geom.points_in_box.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline.Detections(boxes, np.ones(3))


@pytest.mark.parametrize("probs", [[np.nan, 0.5], [-0.1, 0.5], [0.5, 1.5]])
def test_detections_reject_mask_probabilities_outside_the_unit_interval(probs):
    with pytest.raises(ValueError, match=r"mask probabilities must lie in \[0, 1\]"):
        pipeline.Detections([], probs)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, None, "1", True])
@pytest.mark.parametrize("name", ["lr_low", "lr_high", "alpha", "beta", "clr_cycle_epochs"])
def test_config_rejects_broken_loss_and_learning_rate_settings(name, value):
    # Before the check, a negative beta trained without error, NaN or inf
    # learning rates failed only after the first update, a zero cycle
    # length ran as a 2-step cycle, and None or a string raised a bare
    # TypeError.  The loss weights alpha and beta are now the constants
    # LOSS_ALPHA and LOSS_BETA, so a config that sets either one is refused
    # by name rather than trained with the constant.
    if name in ("alpha", "beta"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            PipelineConfig(**{name: value})
        with pytest.raises(ValueError, match=rf"^unknown config keys loading \['{name}'\]$"):
            PipelineConfig.from_dict({**TINY.to_dict(), name: value})
        return
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PipelineConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PipelineConfig.from_dict({**TINY.to_dict(), name: value})


@pytest.mark.parametrize("sample, radius, cap", [
    (0, 1.0, 8), (16, 0.0, 8), (16, -1.0, 8), (16, float("nan"), 8), (16, 1.0, 0),
    (16, None, 8), (16, "1.0", 8), (16, True, 8),
])
def test_config_rejects_a_bad_set_abstraction_level(sample, radius, cap):
    # A NaN radius used to pass until ball_query met it in the first forward
    # pass, a radius of None or a string raised a bare TypeError, and True
    # ran as 1.0.  Each case has one bad field, which the message names.
    message = ("^sample must be at least 1, got 0$" if sample == 0
               else "^cap must be at least 1, got 0$" if cap == 0
               else f"^radius must be finite and positive, got {re.escape(repr(radius))}$")
    with pytest.raises(ValueError, match=message):
        SaConfig(sample, radius, cap, (8, 8))
    level = {"sample": sample, "radius": radius, "cap": cap, "widths": (8, 8)}
    with pytest.raises(ValueError, match=message):
        PipelineConfig.from_dict({**TINY.to_dict(), "sa2": level})


@pytest.mark.parametrize("name", ["sa1", "sa2", "sa3"])
def test_config_rejects_a_level_that_is_not_an_sa_config(name):
    # A dict used to be accepted here, and build_displacement_model then
    # failed with "'dict' object has no attribute 'widths'".
    level = dataclasses.asdict(getattr(TINY, name))
    with pytest.raises(ValueError, match=f"^{name} must be an SaConfig, got {{'sample'"):
        PipelineConfig(**{name: level})
    # from_dict still converts a dict, and only a dict.
    assert getattr(tiny_config(**{name: level}), name) == getattr(TINY, name)
    with pytest.raises(ValueError, match=f"^{name} must be an SaConfig, got None"):
        tiny_config(**{name: None})


@pytest.mark.parametrize("counts, message", [
    ({"n_filtered": -3}, "^n_filtered must be at least 1"),
    ({"n_filtered": 0}, "^n_filtered must be at least 1"),
    ({"n_input": 0, "n_filtered": 0}, "^n_input must be at least 1"),
    ({"n_input": -5, "n_filtered": -10}, "^n_input must be at least 1"),
])
def test_config_rejects_point_counts_below_one(counts, message):
    # Before the check, only n_filtered > n_input was caught, so these built.
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**counts)
    with pytest.raises(ValueError, match=message):
        PipelineConfig.from_dict({**TINY.to_dict(), **counts})


@pytest.mark.parametrize("changes, message", [
    ({"k": 2.5}, "^k must be an integer, got 2.5"),
    ({"k": True}, "^k must be an integer, got True"),
    ({"n_input": 240.0}, "^n_input must be an integer, got 240.0"),
    ({"n_filtered": 128.0}, "^n_filtered must be an integer, got 128.0"),
    ({"clr_cycle_epochs": 2.5}, "^clr_cycle_epochs must be an integer, got 2.5"),
    ({"seed": 1.5}, "^seed must be an integer, got 1.5"),
    ({"seed": False}, "^seed must be an integer, got False"),
    ({"head_widths": (0,)}, "^head_widths must be at least 1, got 0$"),
    ({"fp2_widths": (8, -4)}, "^fp2_widths must be at least 1, got -4$"),
    ({"assoc_widths": (8.5,)}, "^assoc_widths must be an integer, got 8.5"),
    ({"fp1_widths": (True,)}, "^fp1_widths must be an integer, got True"),
    ({"sa1": {"sample": 32.5, "radius": 0.5, "cap": 8, "widths": [8, 8]}},
     "^sample must be an integer, got 32.5"),
    ({"sa2": {"sample": 16, "radius": 1.0, "cap": 8.5, "widths": [8, 8]}},
     "^cap must be an integer, got 8.5"),
    ({"sa2": {"sample": 16, "radius": 1.0, "cap": True, "widths": [8, 8]}},
     "^cap must be an integer, got True"),
    ({"sa3": {"sample": 4, "radius": 4.0, "cap": 8, "widths": [0]}},
     "^widths must be at least 1, got 0$"),
    ({"sa3": {"sample": 4, "radius": 4.0, "cap": 8, "widths": [7.9]}},
     "^widths must be an integer, got 7.9"),
    ({"k": 65}, "^k=65 exceeds the (16|64) sa2 points"),     # TINY's or the default's
    ({"head_widths": 5}, "^head_widths must be a sequence of integers, got 5$"),
    ({"fp1_widths": 3.0}, r"^fp1_widths must be a sequence of integers, got 3\.0$"),
    ({"assoc_widths": None}, "^assoc_widths must be a sequence of integers, got None$"),
    ({"sa3": {"sample": 4, "radius": 4.0, "cap": 8, "widths": None}},
     "^widths must be a sequence of integers, got None$"),
    ({"seed": -1}, "^seed must be non-negative, got -1$"),
])
def test_config_rejects_non_integer_counts_and_widths(changes, message):
    # Before the check, a float sample count or a zero width trained
    # silently, a float width was truncated, and k=2.5, cap=8.5, seed=1.5 or
    # seed=-1 failed deep inside numpy.  Widths that are not a sequence raised a
    # bare TypeError, such as "'int' object is not iterable".
    with pytest.raises(ValueError, match=message):
        PipelineConfig.from_dict({**TINY.to_dict(), **changes})
    [value] = changes.values()
    with pytest.raises(ValueError, match=message):
        SaConfig(**value) if isinstance(value, dict) else PipelineConfig(**changes)


@pytest.mark.parametrize("changes, most", [
    ({}, 16),                                                # TINY's sa2.sample
    ({"sa1": {"sample": 12, "radius": 0.5, "cap": 8, "widths": [8, 8]}}, 12),
    ({"n_filtered": 10}, 10),
])
def test_config_rejects_a_k_above_the_sa2_points_of_a_frame(changes, most):
    # sa2 keeps at most min(n_filtered, sa1.sample, sa2.sample) points of a
    # frame.  A k above that, such as PipelineConfig(k=65), used to build,
    # and training then raised at its first step.
    with pytest.raises(ValueError, match=f"^k={most + 1} exceeds the {most} sa2 points"):
        tiny_config(k=most + 1, **changes)
    assert tiny_config(k=most, **changes).k == most


def test_config_takes_numpy_integers_as_ints(tmp_path):
    config = PipelineConfig(n_input=np.int64(240), n_filtered=np.int32(128), k=np.int64(8),
                            sa1=SaConfig(np.int64(32), 0.5, np.uint8(8), (np.int64(8), 8)),
                            head_widths=np.array([16]), seed=np.int64(3))
    assert type(config.n_input) is int and type(config.sa1.cap) is int
    assert config.head_widths == (16,) and type(config.head_widths[0]) is int
    # The config stays JSON-serializable, so its model checkpoints load.
    model = pipeline.build_displacement_model(config)
    pipeline.save_displacement_model(tmp_path / "model.npz", model, config)
    _, loaded = pipeline.load_displacement_model(tmp_path / "model.npz")
    assert loaded == config


def test_config_stores_numpy_floats_as_python_floats(tmp_path):
    # A numpy float used to be kept as given, and saving the model then
    # raised "Object of type float32 is not JSON serializable".
    config = tiny_config(lr_low=np.float32(1e-4),
                         sa1={**dataclasses.asdict(TINY.sa1), "radius": np.float32(0.75)})
    assert type(config.lr_low) is float and type(config.sa1.radius) is float
    model = pipeline.build_displacement_model(config)
    pipeline.save_displacement_model(tmp_path / "model.npz", model, config)
    _, loaded = pipeline.load_displacement_model(tmp_path / "model.npz")
    assert loaded == config


def test_probability_filter_rejects_a_negative_count():
    # order[:-3] used to drop the last three points instead of failing.
    cloud = PointCloud(np.zeros((6, 3)))
    with pytest.raises(ValueError, match="^n_filtered must be non-negative, got -3$"):
        pipeline.probability_filter(cloud, np.full(6, 0.5), -3)
    assert pipeline.probability_filter(cloud, np.full(6, 0.5), 0).tolist() == []


@pytest.mark.parametrize("count", [2.5, True, "2", None])
def test_probability_filter_rejects_a_count_that_is_not_an_integer(count):
    # 2.5 used to keep 2 points and True 1.
    cloud = PointCloud(np.zeros((6, 3)))
    message = f"^n_filtered must be an integer, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=message):
        pipeline.probability_filter(cloud, np.full(6, 0.5), count)
    assert pipeline.probability_filter(cloud, np.full(6, 0.5), np.int64(2)).tolist() == [0, 1]


def test_probability_filter_keeps_the_most_probable_with_ties_to_the_lower_index():
    cloud = PointCloud(np.zeros((6, 3)))
    probs = [0.5, 0.9, 0.5, 0.9, 0.0, 0.5]
    assert pipeline.probability_filter(cloud, probs, 3).tolist() == [0, 1, 3]
    assert pipeline.probability_filter(cloud, probs, 4).tolist() == [0, 1, 2, 3]
    assert pipeline.probability_filter(cloud, probs, 9).tolist() == [0, 1, 2, 3, 4, 5]
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = rng.integers(0, 4, size=30) / 3.0
        keep = int(rng.integers(1, 31))
        expected = sorted(sorted(range(30), key=lambda i: (-probs[i], i))[:keep])
        assert pipeline.probability_filter(PointCloud(np.zeros((30, 3))), probs,
                                           keep).tolist() == expected


@pytest.mark.parametrize("levels, kind", [
    ({"center_sigma": -0.1}, "sigmas"),
    ({"yaw_sigma": -1.0}, "sigmas"),
    ({"dropout": 1.5}, "rates"),
    ({"dropout": float("nan")}, "rates"),
    ({"fp_rate": -0.2}, "rates"),
    ({"center_sigma": float("nan")}, "sigmas"),
    ({"yaw_sigma": float("nan")}, "sigmas"),
    ({"yaw_sigma": float("inf")}, "sigmas"),
    ({"center_sigma": None}, "sigmas"),
    ({"yaw_sigma": "0.1"}, "sigmas"),
    ({"dropout": "0.1"}, "rates"),
    ({"fp_rate": None}, "rates"),
    ({"dropout": True}, "rates"),
    ({"yaw_sigma": True}, "sigmas"),
])
def test_detector_noise_rejects_invalid_levels(levels, kind):
    # A level of the wrong type used to raise a bare TypeError, and True
    # passed as a level.  The message names the level, its bound (sigmas
    # are non-negative, rates lie in [0, 1]) and the value.
    [(name, value)] = levels.items()
    bound = {"sigmas": "non-negative", "rates": "in [0, 1]"}[kind]
    message = f"{name} must be finite and {bound}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline.DetectorNoise(**levels)


def test_detector_noise_stores_levels_as_python_floats():
    noise = pipeline.DetectorNoise(np.float32(0.5), 1, np.float32(0.25), 1)
    assert [type(x) for x in dataclasses.astuple(noise)] == [float] * 4
    assert dataclasses.astuple(noise) == (0.5, 1.0, 0.25, 1.0)


def test_oracle_detector_dropout_and_false_positives():
    _, a, label_a, _, _ = scene_pair()
    clean = pipeline.oracle_detector(a, label_a)
    assert len(clean.boxes) == len(label_a.boxes) == 2
    assert clean.point_mask_probs.any()

    dropped = pipeline.oracle_detector(a, label_a, pipeline.DetectorNoise(dropout=1.0))
    assert dropped.boxes == []
    assert not dropped.point_mask_probs.any()

    spurious = pipeline.oracle_detector(a, label_a, pipeline.DetectorNoise(fp_rate=1.0))
    # False positives follow the survivors, one per label at fp_rate 1.
    assert len(spurious.boxes) == 4
    for box, label in zip(spurious.boxes[:2], label_a.boxes):
        assert np.array_equal(box.center, label.center)
        assert np.array_equal(box.size, label.size) and box.yaw == label.yaw
    for box in spurious.boxes[2:]:
        assert box.size.tolist() == [3.9, 1.6, 1.56]
    # Spurious boxes mark no points: the mask comes from the labels alone.
    assert np.array_equal(spurious.point_mask_probs, clean.point_mask_probs)


def test_oracle_detector_is_deterministic_per_seed():
    _, a, label_a, _, _ = scene_pair()
    noise = pipeline.DetectorNoise(center_sigma=0.3, yaw_sigma=0.1, dropout=0.5,
                                   fp_rate=0.5)

    def detect(seed):
        det = pipeline.oracle_detector(a, label_a, noise, seed=seed)
        boxes = [(*box.center, *box.size, box.yaw) for box in det.boxes]
        return det.point_mask_probs, boxes

    first, again, other = detect(4), detect(4), detect(5)
    assert np.array_equal(first[0], again[0]) and first[1] == again[1]
    assert first[1] != other[1]
    # True used to seed as 1; 1.5 and -1 raised numpy's errors, naming no field.
    for seed, message in ((True, "must be an integer, got True"),
                          (1.5, "must be an integer, got 1.5"),
                          (-1, "must be non-negative, got -1")):
        with pytest.raises(ValueError, match=f"^seed {message}$"):
            detect(seed)


def test_empty_frame_raises_a_clear_error():
    _, a, label_a, b, label_b = scene_pair()
    model = pipeline.build_displacement_model(TINY)
    no_points = PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="no points remain after the probability filter"):
        predict(model, TINY, no_points, label_a, b, label_b)


def test_k_above_the_frame_b_point_count_raises_a_clear_error():
    _, a, label_a, b, label_b = scene_pair()
    model = pipeline.build_displacement_model(TINY)
    few_b = PointCloud(b.points[:5])
    with pytest.raises(ValueError, match="only 5 frame-B sa2 points for k=8"):
        pipeline.predict_displacements(a, few_b, pipeline.oracle_detector(a, label_a),
                                       pipeline.Detections([], np.ones(5)), model, TINY)
    # sa2 keeps at most 16 points of any frame, fewer than k=20: the config
    # raises when it is built.
    with pytest.raises(ValueError, match="^k=20 exceeds the 16 sa2 points"):
        tiny_config(k=20)


@pytest.mark.parametrize("epochs, message", [
    (0, "^epochs must be at least 1, got 0"),
    (-1, "^epochs must be at least 1, got -1"),
    (2.5, "^epochs must be an integer, got 2.5"),
    (True, "^epochs must be an integer, got True"),
])
def test_training_rejects_a_bad_epoch_count(epochs, message):
    # 0 and -1 used to return an untrained model with an empty history, and
    # 2.5 failed with a TypeError from range.
    seq, *_ = scene_pair()
    with pytest.raises(ValueError, match=message):
        pipeline.train_association(seq, TINY, epochs=epochs)


@pytest.mark.parametrize("dataset, name", [(5, "int"), ("drive", "list")],
                         ids=["int", "frame-list"])
def test_training_rejects_a_dataset_that_is_not_drives(dataset, name):
    # A list of (cloud, label) frames used to raise an AttributeError.
    seq, *_ = scene_pair()
    dataset = seq.frames if dataset == "drive" else dataset
    with pytest.raises(ValueError, match=f"^dataset must be a Sequence or an iterable of "
                                         f"Sequences, got {name}$"):
        pipeline.train_association(dataset, TINY, epochs=1)


def test_training_skips_drives_without_a_pair(monkeypatch):
    # One-frame drives hold no pair: they are neither detected nor planned,
    # and a dataset of them alone (or of no drive) has nothing to train on.
    seq, *_ = scene_pair()
    lone_a, lone_b = Sequence(seq.frames[:1]), Sequence(seq.frames[1:])
    alone, _ = pipeline.train_association([seq], TINY, epochs=1)
    detected, planned = [], []
    real_detect, real_plan = pipeline.oracle_detector, pipeline._plan_frames

    def detect(frame, labels):
        detected.append(labels.frame_index)
        return real_detect(frame, labels)

    def plan(frames, config):
        planned.append(len(frames))
        return real_plan(frames, config)
    monkeypatch.setattr(pipeline, "oracle_detector", detect)
    monkeypatch.setattr(pipeline, "_plan_frames", plan)
    mixed, _ = pipeline.train_association([lone_a, seq, lone_b], TINY, epochs=1)
    assert detected == [0, 1] and planned == [2]
    assert all(mixed.param_dict()[k].tobytes() == v.tobytes()
               for k, v in alone.param_dict().items())
    for dataset in ([lone_a, lone_b], []):
        with pytest.raises(ValueError,
                           match="^dataset must contain at least one adjacent frame pair$"):
            pipeline.train_association(dataset, TINY, epochs=1)
    assert planned == [2]


def test_evaluation_scores_each_drive_of_flat_pairs_once(monkeypatch):
    # The pairs of two drives, concatenated as the benchmark passes them:
    # the mean error over the foreground, non-excluded points of the fields
    # that predict_displacements gives, with each of the 6 frames planned
    # once, one _plan_frames call per drive.
    model = pipeline.build_displacement_model(TINY)
    pairs = [pair for seed in (3, 4)
             for pair in synthesize_sequence(DRIVE_SCENE, seed).adjacent_pairs()]
    errors = []
    for a, label_a, b, label_b in pairs:
        field = predict(model, TINY, a, label_a, b, label_b)
        targets = label_targets(PointCloud(a.points[field.point_indices]), label_a, label_b)
        keep = targets.foreground_mask & ~targets.excluded
        errors.append(np.linalg.norm(field.vectors[keep] - targets.displacement[keep], axis=1))
    planned = []
    real = pipeline._plan_frames

    def recording(frames, config):
        planned.append([id(cloud) for cloud, _ in frames])
        return real(frames, config)
    monkeypatch.setattr(pipeline, "_plan_frames", recording)
    error = pipeline.mean_displacement_error(model, TINY, pairs)
    assert error == np.concatenate(errors).mean()
    assert planned == [[id(pairs[0][0]), id(pairs[1][0]), id(pairs[1][2])],
                       [id(pairs[2][0]), id(pairs[3][0]), id(pairs[3][2])]]


def test_a_trained_network_beats_zero_motion_on_a_held_out_drive():
    # Desk widths at k = 4, two turning training drives and a third held
    # out; zero motion is the trained model with its last head layer zeroed,
    # scored by the same function.  About 7 s on a 2-core Xeon VM.
    config = PipelineConfig(k=4, seed=0)
    scene = SceneConfig(frames=20, direction_change_every=10)
    model, _ = pipeline.train_association([synthesize_sequence(scene, s) for s in (0, 1)],
                                          config, epochs=10)
    held_out = list(synthesize_sequence(scene, 2).adjacent_pairs())
    zero = pipeline.build_displacement_model(config)
    zero.load_param_dict(model.param_dict())
    zero.head.weights[-1][...] = 0.0
    zero.head.biases[-1][...] = 0.0
    network = pipeline.mean_displacement_error(model, config, held_out)
    zero_motion = pipeline.mean_displacement_error(zero, config, held_out)
    assert network < zero_motion, (network, zero_motion)


def test_evaluation_rejects_an_empty_pair_list():
    # It used to raise "no foreground points to evaluate".
    model = pipeline.build_displacement_model(TINY)
    for pairs in ([], iter(())):
        with pytest.raises(ValueError, match="^pairs must contain at least one frame pair"):
            pipeline.mean_displacement_error(model, TINY, pairs)


def test_checkpoint_round_trip_restores_model_and_config(tmp_path):
    seq, a, label_a, b, label_b = scene_pair()
    config = tiny_config(seed=4)
    model, _ = pipeline.train_association(seq, config, epochs=1)
    path = tmp_path / "model.npz"
    pipeline.save_displacement_model(path, model, config)
    loaded, loaded_config = pipeline.load_displacement_model(path)

    assert loaded_config == config
    params, loaded_params = model.param_dict(), loaded.param_dict()
    assert params.keys() == loaded_params.keys()
    assert all(np.array_equal(params[k], loaded_params[k]) for k in params)
    f1 = predict(model, config, a, label_a, b, label_b)
    f2 = predict(loaded, loaded_config, a, label_a, b, label_b)
    assert np.array_equal(f1.vectors, f2.vectors)


def test_load_rejects_a_non_finite_checkpoint(tmp_path):
    model = pipeline.build_displacement_model(TINY)
    model.head.weights[0][0, 0] = np.nan
    path = tmp_path / "model.npz"
    pipeline.save_displacement_model(path, model, TINY)
    with pytest.raises(ValueError, match="non-finite values loading head.w0"):
        pipeline.load_displacement_model(path)


def test_load_param_dict_rejects_bad_parameters_and_keeps_the_model():
    model = pipeline.build_displacement_model(TINY)
    before = model.param_dict()
    good = {k: v + 1.0 for k, v in before.items()}
    bad = [
        ({k: v for k, v in good.items() if k != "fp2.b0"}, r"missing \['fp2.b0'\]"),
        ({**good, "fp4.w0": np.zeros((2, 2))}, r"extra \['fp4.w0'\]"),
        ({**good, "sa1.w0": good["sa1.w0"].T}, "shape mismatch loading sa1.w0"),
        ({**good, "assoc.b0": np.full_like(good["assoc.b0"], np.inf)},
         "non-finite values loading assoc.b0"),
    ]
    for params, message in bad:
        with pytest.raises(ValueError, match=message):
            model.load_param_dict(params)
        assert all(np.array_equal(v, before[k]) for k, v in model.param_dict().items())


def test_training_raises_when_the_last_update_goes_non_finite(monkeypatch):
    seq, *_ = scene_pair()
    original = pipeline.adam_step

    def poisoned_adam_step(params, grads, state, lr, **kwargs):
        original(params, grads, state, lr, **kwargs)
        params["head.b0"][0] = np.nan
        params["head.w1"][0, 0] = np.inf

    monkeypatch.setattr(pipeline, "adam_step", poisoned_adam_step)
    # One pair and one epoch: the poisoned update is also the last.
    with pytest.raises(ValueError, match=r"non-finite update of head\.b0"):
        pipeline.train_association(seq, TINY, epochs=1)


@pytest.mark.parametrize("name, value, message", [
    ("sa1.w0", lambda p: p > 0.0, "sa1.w0 must hold float values, got dtype bool"),
    ("head.b0", lambda p: p == 0.0, "head.b0 must hold float values, got dtype bool"),
    ("fp1.w0", lambda p: p.ravel(), "fp1.w0 must be a 2-D array, got shape"),
    ("sa2.b1", lambda p: p[None], "sa2.b1 must be a 1-D array, got shape"),
    ("assoc.w0", lambda p: p.astype(str), "assoc.w0 must hold float values, got dtype <U"),
])
def test_load_param_dict_checks_each_array_by_name_and_keeps_the_model(name, value, message):
    # Each array used to be cast with np.asarray(value, dtype=float), so a
    # bool array loaded as 1.0 and 0.0.
    model = pipeline.build_displacement_model(TINY)
    before = {k: v.copy() for k, v in model.param_dict().items()}
    params = {k: v + 1.0 for k, v in before.items()}
    params[name] = value(params[name])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        model.load_param_dict(params)
    assert all(v.tobytes() == before[k].tobytes() for k, v in model.param_dict().items())


def test_load_param_dict_copies_into_the_model():
    model = pipeline.build_displacement_model(TINY)
    arrays = model.param_dict()
    loaded = {k: v + 1.0 for k, v in arrays.items()}
    model.load_param_dict(loaded)
    for key, value in model.param_dict().items():
        assert value is arrays[key]
        assert value.tobytes() == loaded[key].tobytes()
    loaded["head.w0"][0, 0] = 123.0
    assert model.head.weights[0][0, 0] != 123.0


def test_training_names_the_first_non_finite_gradient_before_any_update(monkeypatch):
    seq, *_ = scene_pair()
    original = pipeline.PipelineTape.backward
    updates = []

    def poisoned_backward(tape, grad):
        grads = original(tape, grad)
        grads["fp2.w0"][0, 0] = np.inf
        grads["head.b0"][0] = np.nan
        return grads

    monkeypatch.setattr(pipeline.PipelineTape, "backward", poisoned_backward)
    monkeypatch.setattr(pipeline, "adam_step", lambda *args, **kwargs: updates.append(1))
    with pytest.raises(ValueError, match=r"non-finite gradient in fp2\.w0"):
        pipeline.train_association(seq, TINY, epochs=1)
    assert updates == []


def test_load_rejects_a_config_with_unknown_keys(tmp_path):
    # Checkpoints saved while the head had a fusion option carry that key.
    entries = saved_entries(tmp_path)
    config = json.loads(entries["config"].item())
    path = tmp_path / "stale.npz"
    write_npz(path, {**entries, "config": np.array(json.dumps({**config, "fusion": "cosine"}))})
    with pytest.raises(ValueError, match=r"^unknown config keys loading \['fusion'\]$"):
        pipeline.load_displacement_model(path)
    with pytest.raises(ValueError, match=r"unknown config keys loading \['fusion', 'k2'\]"):
        PipelineConfig.from_dict({**TINY.to_dict(), "k2": 3, "fusion": "cosine_distance"})
    # An unknown key inside a set-abstraction level is named with its level.
    sa2 = {**TINY.to_dict()["sa2"], "bogus": 1}
    with pytest.raises(ValueError, match=r"^unknown config keys loading \['k2', 'sa2\.bogus'\]$"):
        PipelineConfig.from_dict({**TINY.to_dict(), "k2": 3, "sa2": sa2})


def test_load_rejects_a_config_saved_with_loss_weights(tmp_path):
    # Models saved while the loss weights were config fields carry them.
    entries = saved_entries(tmp_path)
    config = json.loads(entries["config"].item())
    path = tmp_path / "weighted.npz"
    weighted = {**config, "alpha": 1.0, "beta": 0.5}
    write_npz(path, {**entries, "config": np.array(json.dumps(weighted))})
    with pytest.raises(ValueError, match=r"^unknown config keys loading \['alpha', 'beta'\]$"):
        pipeline.load_displacement_model(path)


UNPICKLED = []


def record_unpickling():
    UNPICKLED.append(True)


class Tripwire:
    """An object whose unpickling records itself in UNPICKLED."""

    def __reduce__(self):
        return record_unpickling, ()


def saved_entries(tmp_path) -> dict[str, np.ndarray]:
    """The arrays save_displacement_model writes for an untrained TINY model."""
    path = tmp_path / "model.npz"
    pipeline.save_displacement_model(path, pipeline.build_displacement_model(TINY), TINY)
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def write_npz(path, entries: dict) -> None:
    with open(path, "wb") as file:
        np.savez(file, **entries)


def with_config(entries: dict, text: str) -> dict:
    return {**entries, "config": np.array(text)}


def save_npy(path, entries: dict) -> None:
    with open(path, "wb") as file:      # an open file, so np.save adds no suffix
        np.save(file, entries["head.w0"])


def plain_zip(path, entries: dict) -> None:
    with zipfile.ZipFile(path, "w") as archive:  # a member that is not an .npy
        archive.writestr("config", entries["config"].item())


def truncate(path, entries: dict) -> None:
    write_npz(path, entries)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# Where numpy raises, only the prefix is matched; numpy words its own errors.
NOT_SAVED = "is not a saved displacement model: "


@pytest.mark.parametrize("write, message", [
    pytest.param(lambda path, e: path.write_text(json.dumps({"format_version": 1})),
                 NOT_SAVED, id="json"),
    pytest.param(save_npy,
                 NOT_SAVED + "it holds one array", id="npy"),
    pytest.param(lambda path, e: path.write_bytes(b""), NOT_SAVED, id="empty"),
    pytest.param(truncate, NOT_SAVED, id="truncated-zip"),
    pytest.param(plain_zip, NOT_SAVED + 'it lacks a 0-d string "config"', id="zip-not-npz"),
    pytest.param(lambda path, e: write_npz(path, {k: v for k, v in e.items() if k != "config"}),
                 NOT_SAVED + 'it lacks a 0-d string "config"', id="no-config"),
    pytest.param(lambda path, e: write_npz(path, {**e, "config": np.array(3.0)}),
                 NOT_SAVED + 'it lacks a 0-d string "config"', id="non-string-config"),
    pytest.param(lambda path, e: write_npz(path, {**e, "config": np.array(["{}"])}),
                 NOT_SAVED + 'it lacks a 0-d string "config"', id="1-d-config"),
    pytest.param(lambda path, e: write_npz(path, with_config(e, "{not json")),
                 NOT_SAVED, id="config-not-json"),
    pytest.param(lambda path, e: write_npz(path, with_config(e, "[1, 2]")),
                 NOT_SAVED + "its config is a JSON list, not an object", id="config-not-object"),
    pytest.param(lambda path, e: write_npz(path, with_config(e, '{"sa1": {"sample": 8}}')),
                 r"^missing config keys loading \['sa1\.cap', 'sa1\.radius', 'sa1\.widths'\]$",
                 id="level-missing-a-field"),
    pytest.param(lambda path, e: write_npz(path, {**e, "head.w0": np.array([Tripwire()])}),
                 NOT_SAVED, id="object-array"),
    pytest.param(lambda path, e: write_npz(path, {**e, "head.w0": e["head.w0"].astype(int)}),
                 NOT_SAVED + r"parameters \['head\.w0'\] are not float64", id="int-param"),
    pytest.param(lambda path, e: write_npz(path, {**e, "sa1.b0": e["sa1.b0"].astype(str)}),
                 NOT_SAVED + r"parameters \['sa1\.b0'\] are not float64", id="str-param"),
    pytest.param(lambda path, e: write_npz(path, {k: v for k, v in e.items() if k != "fp2.b0"}),
                 r"missing \['fp2\.b0'\], extra \[\]", id="missing-param"),
    pytest.param(lambda path, e: write_npz(path, {**e, "fp4.w0": np.zeros((2, 2))}),
                 r"missing \[\], extra \['fp4\.w0'\]", id="extra-param"),
])
def test_load_rejects_a_file_that_is_not_a_saved_model(tmp_path, write, message):
    UNPICKLED.clear()
    path = tmp_path / "bad.npz"
    write(path, saved_entries(tmp_path))
    with pytest.raises(ValueError, match=message):
        pipeline.load_displacement_model(path)
    assert UNPICKLED == []


def test_a_paper_scale_model_survives_save_and_load_byte_for_byte(tmp_path):
    config = PipelineConfig.paper_scale()
    model = pipeline.build_displacement_model(config)
    rng = np.random.default_rng(7)
    # Values a fresh model of config.seed does not hold, down to -0.0 and a
    # subnormal, so the load must carry every bit.
    params = {name: rng.normal(size=value.shape) * 10.0 ** rng.integers(-300, 300)
              for name, value in model.param_dict().items()}
    params["head.b0"][:2] = (-0.0, 5e-324)
    model.load_param_dict(params)
    path = tmp_path / "paper.npz"
    pipeline.save_displacement_model(path, model, config)
    loaded, loaded_config = pipeline.load_displacement_model(path)

    assert loaded_config == config
    loaded_params = loaded.param_dict()
    assert sum(value.size for value in loaded_params.values()) == 375_971
    assert list(loaded_params) == list(params)
    for name, value in params.items():
        assert loaded_params[name].dtype == value.dtype
        assert loaded_params[name].shape == value.shape
        assert loaded_params[name].tobytes() == value.tobytes()


def test_save_writes_exactly_path_and_replaces_an_earlier_save(tmp_path):
    path = tmp_path / "model"
    pipeline.save_displacement_model(path, pipeline.build_displacement_model(TINY), TINY)
    assert [p.name for p in tmp_path.iterdir()] == ["model"]     # no .npz, no .tmp
    config = tiny_config(seed=5)
    second = pipeline.build_displacement_model(config)
    pipeline.save_displacement_model(str(path), second, config)
    assert [p.name for p in tmp_path.iterdir()] == ["model"]
    loaded, loaded_config = pipeline.load_displacement_model(path)
    assert loaded_config == config
    assert not np.array_equal(second.sa1.weights[0],
                              pipeline.build_displacement_model(TINY).sa1.weights[0])
    assert all(np.array_equal(value, second.param_dict()[name])
               for name, value in loaded.param_dict().items())
    with pytest.raises(FileNotFoundError):
        pipeline.load_displacement_model(tmp_path / "absent.npz")


def print_golden_diffs(path: Path, actual: dict[str, np.ndarray]) -> bool:
    """Print, per array, whether it is byte-identical to the pinned one (same
    dtype, shape and bytes), and if not the max |actual - pinned| and the max
    relative diff |actual - pinned| / |pinned| (inf where a pinned zero
    changed).  A zero diff alone would hide a +0.0 -> -0.0 flip.  Returns
    whether the pinned file holds exactly these arrays, byte for byte."""
    if not path.exists():
        print(f"{path.name}: no pinned file")
        return False
    pinned = np.load(path)
    same = True
    for key in sorted(set(actual) | set(pinned.files)):
        if key not in actual or key not in pinned.files:
            print(f"{path.name} {key}: only in the {'new' if key in actual else 'pinned'} outputs")
            same = False
            continue
        new, old = np.asarray(actual[key]), pinned[key]
        if (new.dtype, new.shape) == (old.dtype, old.shape) and new.tobytes() == old.tobytes():
            print(f"{path.name} {key}: byte-identical")
            continue
        same = False
        if new.shape != old.shape:
            print(f"{path.name} {key}: shape {old.shape} -> {new.shape}")
            continue
        diff = np.abs(new.astype(float) - old.astype(float))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(old))
        print(f"{path.name} {key}: {old.dtype} -> {new.dtype}, "
              f"max |diff| {diff.max(initial=0.0):.3g}, "
              f"max rel diff {rel.max(initial=0.0):.3g}")
    return same


if __name__ == "__main__":
    # A file whose arrays are all byte-identical is left as it is.
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, outputs in ((GOLDEN, golden_outputs()), (PAPER_GOLDEN, paper_field_outputs()),
                          (SYNTH_GOLDEN, synthesis_outputs()),
                          (TRAINING_GOLDEN, training_outputs()),
                          (DESK_TRAINING_GOLDEN, desk_training_outputs())):
        if print_golden_diffs(path, outputs):
            print(f"kept {path}")
        else:
            np.savez(path, **outputs)
            print(f"wrote {path}")
