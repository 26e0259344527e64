"""The disptrack benchmark workloads, driven through the public API only.

Each workload is a closed loop with a single caller in one process: every
operation starts when the previous one returns.

desk_train     PipelineConfig() trained for one epoch over six seeded
               SceneConfig() drives (800 points per frame, 294 steps), then
               predict_displacements and mean_displacement_error on a
               held-out drive.  Every array is small, so fixed per-call costs
               (Python overhead, Adam, oracle detection, targets) weigh far
               more than at paper scale.  The only workload that measures
               quality.
paper_predict  PipelineConfig.paper_scale() on 15 000-point frames (8 objects
               x 500 points, 11 000 background points, so the 4 000 foreground
               points fit under n_filtered = 5 000); predict only.  Distance
               matrices, sorts and FPS dominate and there is no backward pass,
               so a backward-pass change should show no change here.
paper_train    the same frames and config, train_association over them: the
               paper_predict forward plus wide backward scatters and Adam over
               573 k parameters.

Operations whose output fails a check, or that raise, count as failed
instead of ending the run.  Repeating an operation on the same inputs must
give a bit-identical result (predict_displacements is documented as
stateless and training is seeded), and in a traced run the untraced baseline
operation must match the traced one bit for bit.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from disptrack import pipeline
from disptrack.ingest import SceneConfig, Sequence, label_targets, synthesize_sequence
from disptrack.pipeline import PipelineConfig

from tracing import LAYER_METRICS, Tracer

SETUP_REPEATS = 3
MIN_TIMED_OPS = 3
TRAIN_SEQUENCES = 6
HELDOUT_SEQUENCES = 1
#: train_step_ms_p90 needs ten steps beyond the 90th percentile.
P90_MIN_STEPS = 100


@dataclass(frozen=True)
class Scale:
    """Input sizes of a workload."""

    scene: SceneConfig
    config: PipelineConfig


#: One frame pair, so every timed operation of a paper workload does the same
#: work and repeats the warm-up operation exactly.
PAPER_SCENE = SceneConfig(frames=2, objects=8, points_per_object=500,
                          background_points=11000)
SCALES = {
    "desk_train": Scale(SceneConfig(), PipelineConfig()),
    "paper_predict": Scale(PAPER_SCENE, PipelineConfig.paper_scale()),
    "paper_train": Scale(PAPER_SCENE, PipelineConfig.paper_scale()),
}


@dataclass
class Result:
    """What one run measured: operation counts, metrics and input shape."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    shape: dict[str, float] = field(default_factory=dict)

    def attempt(self, units: int, op, check):
        """Run `op`; count `units` failed if it raises or `check` rejects it."""
        self.attempted += units
        try:
            out = op()
        except Exception:  # a failing operation is a measured outcome
            traceback.print_exc(file=sys.stderr)
            self.failed += units
            return None
        if not check(out):
            print("bench: output check failed", file=sys.stderr)
            self.failed += units
        return out


class Repeats:
    """First output seen per key; later outputs must equal it bit for bit."""

    def __init__(self) -> None:
        self._first: dict = {}

    def same(self, key, arrays: dict[str, np.ndarray]) -> bool:
        first = self._first.setdefault(key, arrays)
        return first.keys() == arrays.keys() and all(
            np.array_equal(first[k], arrays[k]) for k in arrays)


class StepClock:
    """Return times of pipeline.adam_step, which mark training-step boundaries."""

    def __init__(self) -> None:
        self.ends: list[float] = []

    @contextmanager
    def installed(self):
        original = pipeline.adam_step

        def adam_step(*args, **kwargs):
            out = original(*args, **kwargs)
            self.ends.append(time.perf_counter())
            return out

        pipeline.adam_step = adam_step
        try:
            yield self
        finally:
            pipeline.adam_step = original


def _synthesize(scene: SceneConfig, seeds) -> tuple[list[Sequence], float]:
    start = time.perf_counter()
    seqs = [synthesize_sequence(scene, int(s)) for s in seeds]
    return seqs, time.perf_counter() - start


def _sequence_seeds(seed: int, count: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(count)


def _setup(res: Result, prepare, warm_up):
    """Prepare inputs SETUP_REPEATS times, then warm up once.

    setup_s is the median preparation (synthesis, detections, model build)
    plus the warm-up operation; ingest.synth_ms is the median synthesis time.
    """
    prep_s, synth_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs, synth = prepare()
        prep_s.append(time.perf_counter() - start)
        synth_s.append(synth)
    start = time.perf_counter()
    warm_up(inputs)
    warm_s = time.perf_counter() - start
    res.metrics["setup_s"] = (statistics.median(prep_s) + warm_s, "s")
    res.metrics["ingest.synth_ms"] = (1e3 * statistics.median(synth_s), "ms")
    return inputs


def _filtered_count(config: PipelineConfig, n_points: int) -> int:
    return min(config.n_filtered, config.n_input, n_points)


def _field_ok(field, n_points: int, config: PipelineConfig) -> bool:
    idx = field.point_indices
    return (len(idx) == _filtered_count(config, n_points)
            and len(np.unique(idx)) == len(idx)
            and bool(np.all((idx >= 0) & (idx < n_points)))
            and bool(np.all(np.isfinite(field.vectors))))


def _predict(res: Result, repeats: Repeats, key, pair, model, config):
    """One checked predict_displacements call; returns (field, seconds)."""
    cloud_a, _, cloud_b, _, det_a, det_b = pair
    start = time.perf_counter()
    field = res.attempt(
        1, lambda: pipeline.predict_displacements(cloud_a, cloud_b, det_a, det_b,
                                                  model, config),
        lambda f: _field_ok(f, len(cloud_a), config) and repeats.same(
            key, {"indices": f.point_indices, "vectors": f.vectors}))
    return field, time.perf_counter() - start


def _train(res: Result, repeats: Repeats, key, data, n_pairs, config):
    """One checked train_association call (one epoch).

    Returns (model, call seconds, per-step seconds).
    """
    clock = StepClock()
    start = time.perf_counter()
    with clock.installed():
        out = res.attempt(
            n_pairs, lambda: pipeline.train_association(data, config, epochs=1),
            lambda out: _trained_ok(repeats, key, *out))
    call_s = time.perf_counter() - start
    steps = np.diff([start, *clock.ends]).tolist()
    return (out[0] if out else None), call_s, steps


def _trained_ok(repeats: Repeats, key, model, history) -> bool:
    params = model.param_dict()
    return (all(np.isfinite(loss) for loss in history.epoch_losses)
            and all(np.all(np.isfinite(p)) for p in params.values())
            and repeats.same(key, params))


def _with_detections(seq: Sequence) -> list[tuple]:
    return [(a, la, b, lb, pipeline.oracle_detector(a, la), pipeline.oracle_detector(b, lb))
            for a, la, b, lb in seq.adjacent_pairs()]


def _first_pair(seq: Sequence) -> Sequence:
    return Sequence(seq.frames[:2], name=seq.name, frame_period=seq.frame_period)


#: latency metric, throughput metric and throughput unit per operation kind
_TIMING_NAMES = {"train_step": ("train_step_ms_p50", "train_steps_per_s", "steps/s"),
                 "predict": ("predict_ms_p50", "predict_pairs_per_s", "pairs/s")}


def _timing(res: Result, kind: str, op_s: list[float], total_s: float,
            primary: bool) -> None:
    """Median latency and throughput of one kind of timed operation.

    The throughput of the workload's primary kind is also reported as
    ops_per_s, which every workload has.
    """
    if not op_s:
        return
    latency, rate, unit = _TIMING_NAMES[kind]
    res.metrics[latency] = (1e3 * statistics.median(op_s), "ms")
    res.metrics[rate] = (len(op_s) / total_s, unit)
    if primary:
        res.metrics["ops_per_s"] = (res.metrics[rate][0], "1/s")


def _closed_loop(seconds: float, min_ops: int, op, tracer: Tracer | None):
    """Call op(i) for i = 0, 1, ... back to back until `seconds` have passed
    and `min_ops` calls ran; return the results as (untraced, traced).

    With a tracer every op(i) runs twice, untraced and then traced, so the two
    can be compared bit for bit and timed against each other; one such pair
    is enough.
    """
    plain, traced = [], []
    need = 1 if tracer is not None else min_ops
    start = time.perf_counter()
    while len(plain) < need or time.perf_counter() - start < seconds:
        i = len(plain)
        plain.append(op(i))
        if tracer is not None:
            with tracer.installed():
                traced.append(op(i))
    return plain, traced


def _finish(res: Result, tracer: Tracer | None, traced_ops: int,
            plain_s: list[float], traced_s: list[float]) -> Result:
    if tracer is not None:
        res.metrics.update((name, (value, LAYER_METRICS[name]))
                           for name, value in tracer.layer_metrics(traced_ops).items())
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        res.metrics["trace.overhead_frac"] = (overhead, "ratio")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.metrics["peak_rss_mb"] = (peak_mb, "MB")
    res.metrics["fail_frac"] = (res.failed / max(1, res.attempted), "ratio")
    return res


def desk_train(seed: int, seconds: float, tracer: Tracer | None = None,
               scale: Scale = SCALES["desk_train"]) -> Result:
    config = scale.config
    res, repeats = Result(), Repeats()
    seeds = _sequence_seeds(seed, TRAIN_SEQUENCES + HELDOUT_SEQUENCES)

    def prepare():
        seqs, synth = _synthesize(scale.scene, seeds)
        heldout = [p for seq in seqs[TRAIN_SEQUENCES:] for p in _with_detections(seq)]
        return (seqs[:TRAIN_SEQUENCES], heldout), synth

    def warm_up(inputs):
        model, _, _ = _train(res, repeats, "train-warm-up", _first_pair(inputs[0][0]), 1,
                             config)
        if model is not None:
            _predict(res, repeats, "predict-warm-up", inputs[1][0], model, config)

    train, heldout = _setup(res, prepare, warm_up)
    n_steps = sum(len(seq) - 1 for seq in train)
    start = time.perf_counter()
    plain, traced = _closed_loop(
        0.0, 1, lambda i: _train(res, repeats, "train", train, n_steps, config), tracer)
    model, train_s, step_s = plain[0]
    res.shape.update(points_per_frame=len(heldout[0][0]),
                     filtered=_filtered_count(config, len(heldout[0][0])),
                     train_steps=n_steps, heldout_pairs=len(heldout))
    if model is None:
        return _finish(res, tracer, n_steps, [train_s], [t[1] for t in traced])

    # Held-out predictions: one pass and one repeat at least, always untraced.
    def predict(i):
        return _predict(res, repeats, i % len(heldout), heldout[i % len(heldout)],
                        model, config)

    predicts, _ = _closed_loop(seconds - (time.perf_counter() - start),
                               len(heldout) + 1, predict, None)
    fields = [f for f, _ in predicts[:len(heldout)]]
    predict_s = [elapsed for _, elapsed in predicts]

    pairs = [p[:4] for p in heldout]
    epe = res.attempt(1, lambda: pipeline.mean_displacement_error(model, config, pairs),
                      lambda e: np.isfinite(e))
    own_epe, zero_epe = _heldout_errors(pairs, fields)
    if epe is not None and not np.isclose(epe, own_epe, rtol=1e-9, atol=0.0):
        print("bench: mean_displacement_error disagrees with the predicted fields",
              file=sys.stderr)
        res.failed += 1

    _timing(res, "train_step", step_s, train_s, primary=True)
    if len(step_s) >= P90_MIN_STEPS:
        res.metrics["train_step_ms_p90"] = (1e3 * float(np.percentile(step_s, 90)), "ms")
    _timing(res, "predict", predict_s, sum(predict_s), primary=False)
    if epe is not None:
        res.metrics["heldout_epe_m"] = (epe, "m")
    res.metrics["zero_epe_m"] = (zero_epe, "m")
    return _finish(res, tracer, n_steps * len(traced), [train_s], [t[1] for t in traced])


def paper_predict(seed: int, seconds: float, tracer: Tracer | None = None,
                  scale: Scale = SCALES["paper_predict"]) -> Result:
    config = scale.config
    res, repeats = Result(), Repeats()

    def prepare():
        seqs, synth = _synthesize(scale.scene, _sequence_seeds(seed, 1))
        return (_with_detections(seqs[0]), pipeline.build_displacement_model(config)), synth

    def predict(i):
        return _predict(res, repeats, i % len(pairs), pairs[i % len(pairs)], model,
                        config)[1]

    # The warm-up prediction is the first of pair 0, which the loop repeats.
    pairs, model = _setup(res, prepare, lambda inputs: _predict(
        res, repeats, 0, inputs[0][0], inputs[1], config))
    if tracer is not None:
        tracer.register(model)
    plain, traced = _closed_loop(seconds, MIN_TIMED_OPS, predict, tracer)
    _timing(res, "predict", plain, sum(plain), primary=True)
    res.shape.update(points_per_frame=len(pairs[0][0]),
                     filtered=_filtered_count(config, len(pairs[0][0])))
    return _finish(res, tracer, len(traced), plain, traced)


def paper_train(seed: int, seconds: float, tracer: Tracer | None = None,
                scale: Scale = SCALES["paper_train"]) -> Result:
    config = scale.config
    res, repeats = Result(), Repeats()

    def prepare():
        seqs, synth = _synthesize(scale.scene, _sequence_seeds(seed, 1))
        return seqs[0], synth

    seq = _setup(res, prepare, lambda s: _train(res, repeats, "train", s, len(s) - 1, config))
    n_steps = len(seq) - 1
    plain, traced = _closed_loop(
        seconds, -(-MIN_TIMED_OPS // n_steps),
        lambda i: _train(res, repeats, "train", seq, n_steps, config), tracer)
    call_s = [elapsed for _, elapsed, _ in plain]
    _timing(res, "train_step", [s for _, _, steps in plain for s in steps], sum(call_s),
            primary=True)
    res.shape.update(points_per_frame=len(seq.frames[0][0]),
                     filtered=_filtered_count(config, len(seq.frames[0][0])),
                     train_steps=n_steps)
    return _finish(res, tracer, n_steps * len(traced), call_s,
                   [elapsed for _, elapsed, _ in traced])


def _heldout_errors(pairs, fields) -> tuple[float, float]:
    """Mean error of the fields and of zero motion on the same filtered
    foreground points, as mean_displacement_error selects them."""
    errors, zero = [], []
    for (cloud_a, label_a, _, label_b), field in zip(pairs, fields):
        if field is None:  # a failed prediction, already counted
            continue
        targets = label_targets(cloud_a, label_a, label_b, with_box_targets=False)
        sel = field.point_indices
        keep = targets.foreground_mask[sel] & ~targets.excluded[sel]
        truth = targets.displacement[sel][keep]
        errors.append(np.linalg.norm(field.vectors[keep] - truth, axis=1))
        zero.append(np.linalg.norm(truth, axis=1))
    return float(np.concatenate(errors).mean()), float(np.concatenate(zero).mean())


WORKLOADS = {"desk_train": desk_train, "paper_predict": paper_predict,
             "paper_train": paper_train}
