"""Whole-network checks of the displacement pipeline.

The golden test pins the predicted field and one training step's gradients
and parameters on a fixed seed; regenerate the pinned file only for an
intended output change, with `PYTHONPATH=src python tests/test_pipeline.py`.
"""

import logging
from pathlib import Path

import numpy as np
import pytest

from disptrack import pipeline
from disptrack.geom import PointCloud
from disptrack.ingest import FrameLabel, SceneConfig, label_targets, synthesize_sequence
from disptrack.micronet import FUSION_METHODS, gradient_check, save_checkpoint, tracking_loss
from disptrack.pipeline import PipelineConfig, SaConfig

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.npz"
TINY = PipelineConfig(n_input=240, n_filtered=128, k=8,
                      sa1=SaConfig(32, 0.5, 8, (8, 8)), sa2=SaConfig(16, 1.0, 8, (8, 8)),
                      assoc_widths=(8,), sa3=SaConfig(4, 4.0, 8, (8,)),
                      fp1_widths=(8,), fp2_widths=(8,), fp3_widths=(8,), head_widths=(8,))
# 260 points per frame, so the n_input downsampling runs, and ~120 foreground
# points, so the filter keeps some background and both loss sides are used.
SCENE = SceneConfig(frames=2, objects=2, points_per_object=60, background_points=140)


def tiny_config(**changes) -> PipelineConfig:
    return PipelineConfig.from_dict({**TINY.to_dict(), **changes})


def scene_pair(seed: int = 3):
    seq = synthesize_sequence(SCENE, seed)
    a, label_a, b, label_b = next(seq.adjacent_pairs())
    return seq, a, label_a, b, label_b


def predict(model, config, a, label_a, b, label_b):
    det_a = pipeline.oracle_detector(a, label_a)
    det_b = pipeline.oracle_detector(b, label_b)
    return pipeline.predict_displacements(a, b, det_a, det_b, model, config)


GOLDEN_FUSIONS = (
    # the default, which the benchmark runs
    "cosine_distance",
    # At initialisation isolated background points carry all-zero features,
    # so under cosine fusion no gradient reaches the frame-B stream; concat
    # fusion carries gradient through both streams.
    "concat",
)


def golden_outputs() -> dict[str, np.ndarray]:
    """Per fusion: the field of an untrained model, then one train_association
    step's gradients (as handed to Adam) and the parameters after it."""
    seq, a, label_a, b, label_b = scene_pair()
    seen = []
    original = pipeline.adam_step

    def recording_adam_step(params, grads, state, lr, **kwargs):
        seen.append(grads)
        return original(params, grads, state, lr, **kwargs)

    out = {}
    for fusion in GOLDEN_FUSIONS:
        config = tiny_config(fusion=fusion)
        model = pipeline.build_displacement_model(config, seed=0)
        field = predict(model, config, a, label_a, b, label_b)
        out[f"{fusion}/field.indices"] = field.point_indices
        out[f"{fusion}/field.vectors"] = field.vectors

        seen.clear()
        pipeline.adam_step = recording_adam_step
        try:
            trained, _ = pipeline.train_association(seq, config, epochs=1, seed=0)
        finally:
            pipeline.adam_step = original
        assert len(seen) == 1
        out.update({f"{fusion}/grad.{k}": v for k, v in seen[0].items()})
        out.update({f"{fusion}/param.{k}": v for k, v in trained.param_dict().items()})
    return out


def test_golden_field_gradients_and_step():
    expected = np.load(GOLDEN)
    actual = golden_outputs()
    assert sorted(actual) == sorted(expected.files)
    for key in expected.files:
        if key.endswith("field.indices"):
            assert np.array_equal(actual[key], expected[key]), key
        np.testing.assert_allclose(actual[key], expected[key], rtol=1e-12, atol=0,
                                   err_msg=key)


def loss_closure(model, config, a, label_a, b, label_b):
    det_a = pipeline.oracle_detector(a, label_a)
    det_b = pipeline.oracle_detector(b, label_b)
    targets = label_targets(a, label_a, label_b)

    def loss_fn(params):
        model.load_param_dict(params)
        field, tape = pipeline._forward_displacements(a, b, det_a, det_b, model, config,
                                                      capture=True)
        sel = field.point_indices
        loss, grad = tracking_loss(field.vectors, targets.displacement[sel],
                                   targets.foreground_mask[sel],
                                   alpha=config.alpha, beta=config.beta,
                                   excluded=targets.excluded[sel])
        return loss, tape.backward(grad)
    return loss_fn


@pytest.mark.parametrize("fusion", FUSION_METHODS)
def test_whole_network_gradients_match_finite_differences(fusion):
    config = tiny_config(fusion=fusion)
    _, a, label_a, b, label_b = scene_pair()
    model = pipeline.build_displacement_model(config, seed=1)
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
    model_1, hist_1 = pipeline.train_association(seq, TINY, epochs=2, seed=5)
    model_2, hist_2 = pipeline.train_association(seq, TINY, epochs=2, seed=5)
    model_3, _ = pipeline.train_association(seq, TINY, epochs=2, seed=6)
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
    model = pipeline.build_displacement_model(TINY, seed=0)
    offset = np.array([12.5, -7.25, 0.75])

    def shifted(cloud, label):
        return (PointCloud(cloud.points + offset),
                FrameLabel(label.frame_index, [box.translated(offset) for box in label.boxes]))

    base = predict(model, TINY, a, label_a, b, label_b)
    moved = predict(model, TINY, *shifted(a, label_a), *shifted(b, label_b))
    assert np.array_equal(base.point_indices, moved.point_indices)
    np.testing.assert_allclose(moved.vectors, base.vectors, rtol=0, atol=1e-9)


def test_frame_without_detections_logs_a_warning(caplog):
    _, a, label_a, b, label_b = scene_pair()
    model = pipeline.build_displacement_model(TINY, seed=0)
    det_b = pipeline.oracle_detector(b, label_b)
    empty_a = pipeline.Detections([], np.zeros(len(a)))
    with caplog.at_level(logging.WARNING, logger="disptrack.pipeline"):
        predict(model, TINY, a, label_a, b, label_b)
        assert caplog.records == []
        field = pipeline.predict_displacements(a, b, empty_a, det_b, model, TINY)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        "frame A has no detected points (all 240 mask probabilities are zero); "
        "the filter keeps its 128 lowest-index points")
    assert len(field.point_indices) == TINY.n_filtered
    assert np.all(np.isfinite(field.vectors))


def test_checkpoint_round_trip_restores_model_and_config(tmp_path):
    seq, a, label_a, b, label_b = scene_pair()
    config = tiny_config(fusion="concat", seed=4)
    model, _ = pipeline.train_association(seq, config, epochs=1, seed=9)
    path = tmp_path / "model.json"
    pipeline.save_displacement_model(path, model, config)
    loaded, loaded_config = pipeline.load_displacement_model(path)

    assert loaded_config == config
    params, loaded_params = model.param_dict(), loaded.param_dict()
    assert params.keys() == loaded_params.keys()
    assert all(np.array_equal(params[k], loaded_params[k]) for k in params)
    f1 = predict(model, config, a, label_a, b, label_b)
    f2 = predict(loaded, loaded_config, a, label_a, b, label_b)
    assert np.array_equal(f1.vectors, f2.vectors)


def test_load_rejects_a_checkpoint_of_another_kind(tmp_path):
    path = tmp_path / "other.json"
    save_checkpoint(path, "other", TINY.to_dict(), {})
    with pytest.raises(ValueError, match="displacement"):
        pipeline.load_displacement_model(path)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez(GOLDEN, **golden_outputs())
    print(f"wrote {GOLDEN}")
