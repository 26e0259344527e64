import numpy as np
import pytest

from disptrack.geom import Box3D, PointCloud, points_in_box
from disptrack.ingest import (
    FrameLabel,
    SceneConfig,
    Sequence,
    apply_displacement_augmentation,
    format_kitti_labels,
    label_targets,
    parse_kitti_labels,
    synthesize_sequence,
)


# ---------------------------------------------------------------------------
# label parsing
# ---------------------------------------------------------------------------

SAMPLE_LINE = "0 2 Car 0 0 -1.57 0 0 50 50 1.5 1.6 3.9 5.0 1.0 10.0 -1.57"


def test_parse_single_line():
    frames = parse_kitti_labels(SAMPLE_LINE)
    assert len(frames) == 1 and frames[0].frame_index == 0
    box = frames[0].boxes[0]
    assert box.track_id == 2
    assert np.allclose(box.size, (3.9, 1.6, 1.5))   # (l, w, h)
    assert np.allclose(box.center, (5.0, 1.0, 10.0))
    assert box.yaw == pytest.approx(-1.57)
    assert box.class_id == 0


def test_parse_empty_file():
    assert parse_kitti_labels("") == []
    assert parse_kitti_labels("\n\n") == []


def test_parse_dontcare_excluded():
    text = SAMPLE_LINE + "\n0 -1 DontCare 0 0 0 0 0 0 0 1 1 1 0 0 0 0\n"
    frames = parse_kitti_labels(text)
    assert len(frames[0].boxes) == 1


def test_parse_malformed_line_names_line_number():
    text = SAMPLE_LINE + "\n0 3 Car 1 2 3\n"
    with pytest.raises(ValueError, match="line 2"):
        parse_kitti_labels(text)
    with pytest.raises(ValueError, match="line 1"):
        parse_kitti_labels("0 x Car 0 0 0 0 0 0 0 1 1 1 0 0 0 0")


def test_parse_unknown_type_skipped_with_warning(caplog):
    text = SAMPLE_LINE + "\n1 4 Unicorn 0 0 0 0 0 0 0 1 1 1 0 0 0 0\n"
    with caplog.at_level("WARNING", logger="disptrack.ingest"):
        frames = parse_kitti_labels(text)
    assert len(frames) == 1
    assert any("Unicorn" in rec.message or "unknown" in rec.message
               for rec in caplog.records)


def test_label_round_trip_lossless():
    rng = np.random.default_rng(0)
    frames = []
    for f in range(3):
        boxes = [Box3D(rng.uniform(-40, 40, 3), rng.uniform(0.5, 4, 3),
                       rng.uniform(-np.pi, np.pi - 1e-9), class_id=int(rng.integers(0, 8)),
                       track_id=t) for t in range(4)]
        frames.append(FrameLabel(f, boxes))
    back = parse_kitti_labels(format_kitti_labels(frames))
    assert len(back) == 3
    for orig, parsed in zip(frames, back):
        assert parsed.frame_index == orig.frame_index
        for bo, bp in zip(orig.boxes, parsed.boxes):
            assert np.array_equal(bo.center, bp.center)
            assert np.array_equal(bo.size, bp.size)
            assert bo.yaw == bp.yaw
            assert (bo.class_id, bo.track_id) == (bp.class_id, bp.track_id)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesize_track_ids_and_counts():
    config = SceneConfig(frames=5, objects=2, points_per_object=40,
                         background_points=30)
    seq = synthesize_sequence(config, seed=3)
    assert len(seq) == 5
    for cloud, label in seq.frames:
        assert sorted(b.track_id for b in label.boxes) == [0, 1]
        assert len(cloud) == 2 * 40 + 30


def test_synthesize_deterministic():
    config = SceneConfig(frames=4, objects=3, points_per_object=25,
                         background_points=20)
    a = synthesize_sequence(config, seed=11)
    b = synthesize_sequence(config, seed=11)
    for (ca, la), (cb, lb) in zip(a.frames, b.frames):
        assert np.array_equal(ca.points, cb.points)
        for ba, bb in zip(la.boxes, lb.boxes):
            assert np.array_equal(ba.center, bb.center)


def test_synthesize_centers_move_with_constant_velocity():
    config = SceneConfig(frames=6, objects=2, points_per_object=30,
                         background_points=0)
    seq = synthesize_sequence(config, seed=4)
    for tid in (0, 1):
        centers = np.array([label.box_by_track(tid).center for _, label in seq.frames])
        steps = np.diff(centers, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-12)
        speed = np.linalg.norm(steps[0])
        assert config.velocity_min - 1e-9 <= speed <= config.velocity_max + 1e-9


def test_synthesize_points_stay_inside_boxes():
    config = SceneConfig(frames=3, objects=2, points_per_object=50,
                         background_points=0, noise_sigma=0.02)
    seq = synthesize_sequence(config, seed=5)
    for cloud, label in seq.frames:
        covered = np.zeros(len(cloud), dtype=bool)
        for box in label.boxes:
            covered |= points_in_box(cloud, box)
        assert covered.all()


def test_synthesize_invalid_config():
    with pytest.raises(ValueError):
        synthesize_sequence(SceneConfig(frames=0), seed=0)
    with pytest.raises(ValueError):
        synthesize_sequence(SceneConfig(objects=0), seed=0)


@pytest.mark.parametrize("field", ["noise_sigma", "velocity_min", "velocity_max",
                                   "spawn_spacing"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_synthesize_rejects_a_non_finite_or_negative_scalar(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        synthesize_sequence(SceneConfig(**{field: value}), seed=0)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def small_sequence(seed=6, frames=4):
    return synthesize_sequence(
        SceneConfig(frames=frames, objects=2, points_per_object=40,
                    background_points=25), seed)


def test_augmentation_zero_magnitude_is_identity():
    seq = small_sequence()
    out = apply_displacement_augmentation(seq, 0.0, "fixed", seed=1)
    for (ca, la), (cb, lb) in zip(seq.frames, out.frames):
        assert np.array_equal(ca.points, cb.points)
        for ba, bb in zip(la.boxes, lb.boxes):
            assert np.array_equal(ba.center, bb.center)


def test_augmentation_fixed_norm_added_to_motion():
    seq = small_sequence()
    out = apply_displacement_augmentation(seq, 2.0, "fixed", seed=2)
    for tid in (0, 1):
        for f in range(1, len(seq)):
            orig_step = (seq.frames[f][1].box_by_track(tid).center
                         - seq.frames[f - 1][1].box_by_track(tid).center)
            aug_step = (out.frames[f][1].box_by_track(tid).center
                        - out.frames[f - 1][1].box_by_track(tid).center)
            extra = aug_step - orig_step
            assert np.linalg.norm(extra) == pytest.approx(2.0, abs=1e-9)
            assert extra[2] == 0.0  # horizontal shift only


def test_augmentation_uniform_random_norm_bounded():
    seq = small_sequence(frames=6)
    out = apply_displacement_augmentation(seq, 1.5, "uniform_random", seed=3)
    for tid in (0, 1):
        for f in range(1, len(seq)):
            extra = ((out.frames[f][1].box_by_track(tid).center
                      - out.frames[f - 1][1].box_by_track(tid).center)
                     - (seq.frames[f][1].box_by_track(tid).center
                        - seq.frames[f - 1][1].box_by_track(tid).center))
            assert np.linalg.norm(extra) <= 1.5 + 1e-9


def test_augmentation_points_move_with_box():
    seq = small_sequence()
    out = apply_displacement_augmentation(seq, 2.0, "fixed", seed=4)
    for f in range(len(seq)):
        cloud_orig, label_orig = seq.frames[f]
        cloud_aug, label_aug = out.frames[f]
        for box_o, box_a in zip(label_orig.boxes, label_aug.boxes):
            inside = points_in_box(cloud_orig, box_o)
            delta = box_a.center - box_o.center
            assert np.allclose(cloud_aug.points[inside],
                               cloud_orig.points[inside] + delta)
        # background untouched
        bg = ~np.any([points_in_box(cloud_orig, b) for b in label_orig.boxes], axis=0)
        assert np.array_equal(cloud_aug.points[bg], cloud_orig.points[bg])


def test_augmentation_shared_mode_moves_objects_together():
    seq = small_sequence()
    out = apply_displacement_augmentation(seq, 2.0, "fixed", seed=5, per_object=False)
    for f in range(1, len(seq)):
        extras = []
        for tid in (0, 1):
            extras.append((out.frames[f][1].box_by_track(tid).center
                           - seq.frames[f][1].box_by_track(tid).center))
        assert np.allclose(extras[0], extras[1])


def test_augmentation_validates_arguments():
    seq = small_sequence()
    with pytest.raises(ValueError):
        apply_displacement_augmentation(seq, -1.0, "fixed")
    with pytest.raises(ValueError):
        apply_displacement_augmentation(seq, 1.0, "sideways")
    for magnitude in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="magnitude must be finite and non-negative"):
            apply_displacement_augmentation(seq, magnitude, "fixed")


# ---------------------------------------------------------------------------
# training targets
# ---------------------------------------------------------------------------

def target_fixture():
    cloud = PointCloud(np.array([
        [0.0, 0.0, 0.0],    # inside box 0
        [0.2, 0.1, 0.0],    # inside box 0
        [5.0, 5.0, 0.0],    # inside box 1
        [20.0, 20.0, 0.0],  # background
    ]))
    prev = FrameLabel(0, [Box3D((0, 0, 0), (2, 2, 2), 0.0, track_id=0),
                          Box3D((5, 5, 0), (2, 2, 2), 0.0, track_id=1)])
    return cloud, prev


def test_label_targets_static_object():
    cloud, prev = target_fixture()
    curr = FrameLabel(1, [Box3D((0, 0, 0), (2, 2, 2), 0.0, track_id=0),
                          Box3D((5, 5, 0), (2, 2, 2), 0.0, track_id=1)])
    t = label_targets(cloud, prev, curr)
    assert t.foreground_mask.tolist() == [True, True, True, False]
    assert np.array_equal(t.displacement, np.zeros((4, 3)))
    assert not t.excluded.any()


def test_label_targets_moved_object():
    cloud, prev = target_fixture()
    curr = FrameLabel(1, [Box3D((1, 0, 0), (2, 2, 2), 0.0, track_id=0),
                          Box3D((5, 5, 0), (2, 2, 2), 0.0, track_id=1)])
    t = label_targets(cloud, prev, curr)
    assert np.allclose(t.displacement[0], (1, 0, 0))
    assert np.allclose(t.displacement[1], (1, 0, 0))
    assert np.allclose(t.displacement[2], (0, 0, 0))


def test_label_targets_background_point():
    cloud, prev = target_fixture()
    curr = FrameLabel(1, list(prev.boxes))
    t = label_targets(cloud, prev, curr)
    assert not t.foreground_mask[3]
    assert np.array_equal(t.displacement[3], np.zeros(3))


def test_label_targets_vanished_track_excluded():
    cloud, prev = target_fixture()
    curr = FrameLabel(1, [Box3D((5, 5, 0), (2, 2, 2), 0.0, track_id=1)])
    t = label_targets(cloud, prev, curr)
    assert t.excluded.tolist() == [True, True, False, False]
    assert np.array_equal(t.displacement[:2], np.zeros((2, 3)))


def test_label_targets_rejects_box_targets():
    cloud, prev = target_fixture()
    with pytest.raises(ValueError, match="box targets"):
        label_targets(cloud, prev, prev, with_box_targets=True)


def test_label_targets_rigid_displacement_per_box():
    seq = small_sequence()
    for cloud_a, la, cloud_b, lb in seq.adjacent_pairs():
        t = label_targets(cloud_a, la, lb)
        for box in la.boxes:
            inside = points_in_box(cloud_a, box)
            d = t.displacement[inside & t.foreground_mask]
            assert len(d) > 0
            assert np.allclose(d, d[0])


# ---------------------------------------------------------------------------
# domain type invariants
# ---------------------------------------------------------------------------

def test_frame_label_rejects_duplicate_tracks():
    with pytest.raises(ValueError):
        FrameLabel(0, [Box3D((0, 0, 0), (1, 1, 1), 0, track_id=1),
                       Box3D((5, 0, 0), (1, 1, 1), 0, track_id=1)])


def test_sequence_rejects_nonincreasing_frames():
    cloud = PointCloud(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        Sequence([(cloud, FrameLabel(1)), (cloud, FrameLabel(1))])
