import numpy as np
import pytest

from disptrack.geom import Box3D, PointCloud, points_in_box
from disptrack.ingest import (
    FrameLabel,
    SceneConfig,
    Sequence,
    apply_displacement_augmentation,
    label_targets,
    synthesize_sequence,
)


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
    # Object points come first, points_per_object per object in box order.
    # Noise clipped per world axis reaches 3 sigma * sqrt(2) along a yawed
    # box axis, which a 3 sigma inset left outside in 17 of these drives.
    config = SceneConfig()
    for seed in range(20):
        for cloud, label in synthesize_sequence(config, seed).frames:
            for obj, box in enumerate(label.boxes):
                own = cloud.points[obj * config.points_per_object:
                                   (obj + 1) * config.points_per_object]
                assert points_in_box(PointCloud(own), box).all(), \
                    (seed, label.frame_index, obj)


def test_synthesize_invalid_config():
    with pytest.raises(ValueError):
        synthesize_sequence(SceneConfig(frames=0), seed=0)
    with pytest.raises(ValueError):
        synthesize_sequence(SceneConfig(objects=0), seed=0)
    # A negative or NaN arena extent used to fail inside numpy's uniform.
    for name in ("arena_half_extent", "frame_period"):
        for value in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
                synthesize_sequence(SceneConfig(**{name: value}), seed=0)
    # A count of the wrong type used to raise a bare TypeError in its range check.
    for name in ("frames", "objects", "points_per_object", "background_points"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got None$"):
            SceneConfig(**{name: None})


@pytest.mark.parametrize("field", ["noise_sigma", "velocity_min", "velocity_max",
                                   "spawn_spacing", "direction_change_every"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, None, "0.1"])
def test_synthesize_rejects_a_non_finite_or_negative_scalar(field, value):
    # SceneConfig raises on construction.  A negative direction_change_every
    # used to run as constant velocity, and None or a string raised a bare
    # TypeError.
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        synthesize_sequence(SceneConfig(**{field: value}), seed=0)


@pytest.mark.parametrize("value", [2.5, 3.0, True])
@pytest.mark.parametrize("field", ["frames", "objects", "points_per_object",
                                   "background_points", "direction_change_every"])
def test_scene_config_rejects_a_non_integer_count(field, value):
    # A float count used to pass and fail inside synthesis with a bare
    # TypeError; direction_change_every=True ran as a change every frame.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        SceneConfig(**{field: value})
    SceneConfig(**{field: np.int64(3)})


@pytest.mark.parametrize("field", ["length_range", "width_range", "height_range"])
@pytest.mark.parametrize("bounds", [(2.0, 1.0), (float("nan"), 1.0), (1.0, float("inf")),
                                    (0.0, 0.0), (-1.0, 1.0), (1.0,), (1.0, 2.0, 3.0),
                                    (None, 1.0), 1.0])
def test_scene_config_rejects_a_bad_size_range(field, bounds):
    # Synthesis used to die in numpy on a reversed or NaN range, a zero size
    # failed later in Box3D, and a 1-tuple made every box that size.
    with pytest.raises(ValueError, match=f"^{field} must be two finite numbers with "
                                         f"0 < low <= high, got "):
        SceneConfig(**{field: bounds})
    assert getattr(SceneConfig(**{field: (1.5, 1.5)}), field) == (1.5, 1.5)


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


def test_augmentation_moves_a_point_in_overlapping_boxes_with_the_first_box():
    # Two static, overlapping boxes; the first point lies inside both.
    points = np.array([[0.5, 0.0, 0.0], [-0.8, 0.0, 0.0], [1.8, 0.0, 0.0]])
    boxes = [Box3D((0, 0, 0), (2, 2, 2), 0.0, track_id=0),
             Box3D((1, 0, 0), (2, 2, 2), 0.0, track_id=1)]
    seq = Sequence([(PointCloud(points), FrameLabel(f, list(boxes))) for f in range(2)])
    out = apply_displacement_augmentation(seq, 1.0, "fixed", seed=0)
    (cloud_0, label_0), (cloud_1, label_1) = out.frames
    shift_0, shift_1 = (label_1.boxes[i].center - boxes[i].center for i in range(2))
    assert not np.allclose(shift_0, shift_1)

    # Each point moves with the first box that contains it, and by nothing else.
    assert np.allclose(cloud_1.points, points + [shift_0, shift_0, shift_1],
                       rtol=0, atol=1e-12)
    # Its target is that same box's motion, so the target carries every point
    # onto its next position.
    targets = label_targets(cloud_0, label_0, label_1)
    assert targets.foreground_mask.all()
    assert np.allclose(targets.displacement, [shift_0, shift_0, shift_1], rtol=0, atol=1e-12)
    assert np.allclose(cloud_0.points + targets.displacement, cloud_1.points,
                       rtol=0, atol=1e-12)


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
    for magnitude in (float("nan"), float("inf"), None, "1.0"):
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


@pytest.mark.parametrize("index", [float("nan"), 1.5, True])
def test_frame_label_rejects_a_non_integer_index(index):
    # A NaN index used to build, and a Sequence with frame indices 3, NaN, 1
    # passed the strictly-increasing check, because NaN compares false.
    with pytest.raises(ValueError, match=f"^frame_index must be an integer, got {index!r}$"):
        FrameLabel(index)
    assert type(FrameLabel(np.int64(2)).frame_index) is int
