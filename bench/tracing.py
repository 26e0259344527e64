"""Per-layer spans for disptrack, recorded from outside the package.

`Tracer.installed()` swaps the module globals and tape methods that each
layer is entered through for timing wrappers, and restores them on exit.
Wrapped entry points:

* pipeline: sa_layer, fp_layer, association_head, dense_apply (the head),
  adam_step, tracking_loss, label_targets, oracle_detector,
  probability_filter, point_features, build_displacement_model (to learn
  which parameter group is which stage);
* micronet.layers: farthest_point_sample, dense_apply;
* the backward methods of SaTape, FpTape, AssociationTape, DenseTape and
  PipelineTape.

Spans are aggregated in memory by name: the inclusive time of every span
with that name, and its self time (inclusive time minus the time of the
spans opened inside it).  Work counters sit beside them.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from disptrack import pipeline
from disptrack.micronet import dense, layers

#: Stages that select neighbours (distances, sort, gather, pool).
SELECT_STAGES = ("sa1", "sa2", "assoc", "sa3", "fp1", "fp2", "fp3")
#: Stages with a forward and a backward span.
STAGES = SELECT_STAGES + ("head",)
SA_STAGES = ("sa1", "sa2", "sa3")

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    **{f"layers.{s}.select_ms": "ms" for s in SELECT_STAGES},
    **{f"layers.{s}.dist_entries": "count" for s in SELECT_STAGES},
    **{f"layers.{s}.fwd_ms": "ms" for s in STAGES},
    "geom.fps_ms": "ms",
    "geom.fps_dist_evals": "count",
    **{f"layers.{s}.bwd_ms": "ms" for s in STAGES},
    "pipeline.backward_ms": "ms",
    "dense.bwd_ms": "ms",
    "dense.fwd_ms": "ms",
    "dense.fwd_gflop": "GFLOP",
    "dense.fwd_gflops": "GFLOP/s",
    "optim.adam_ms": "ms",
    "optim.params": "count",
    "losses.tracking_ms": "ms",
    "ingest.targets_ms": "ms",
    "pipeline.detect_ms": "ms",
    "pipeline.features_ms": "ms",
    "pipeline.filter_ms": "ms",
    **{f"layers.{s}.fill": "ratio" for s in SA_STAGES},
    "pipeline.filter_fg_frac": "ratio",
    "ingest.synth_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Aggregated spans and counters for one traced stretch of work."""

    def __init__(self) -> None:
        self._open: list[list] = []          # [name, seconds of child spans]
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stage_of: dict[int, str] = {}  # id(DenseParams) -> stage name
        self._models: list = []              # keeps registered ids unique
        self._tape_stage = weakref.WeakKeyDictionary()

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            self.inclusive_s[name] += elapsed
            self.self_s[name] += elapsed - frame[1]
            if self._open:
                self._open[-1][1] += elapsed

    def register(self, model: pipeline.DisplacementModel) -> None:
        """Learn which stage each of the model's parameter groups belongs to."""
        self._models.append(model)
        for name, params in model.param_groups().items():
            self._stage_of[id(params)] = name

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _sa_layer(self, fn):
        def wrapper(spec, points, feats, start_index, capture=False):
            stage = self._stage_of[id(spec.mlp)]
            with self.span(f"{stage}.fwd"):
                # The tape is always taken so its in-radius mask can be read;
                # capturing changes no value the layer returns.
                centroids, pooled, tape = fn(spec, points, feats, start_index,
                                             capture=True)
            self.counts[f"{stage}.dist"] += spec.sample_count * len(points)
            self.counts[f"{stage}.valid"] += np.count_nonzero(tape.valid)
            self.counts[f"{stage}.slots"] += tape.valid.size
            if not capture:
                return centroids, pooled, None
            self._tape_stage[tape] = stage
            return centroids, pooled, tape
        return wrapper

    def _fp_layer(self, fn):
        def wrapper(target_points, source_points, source_feats, skip_feats, mlp,
                    capture=False):
            stage = self._stage_of[id(mlp)]
            with self.span(f"{stage}.fwd"):
                out, tape = fn(target_points, source_points, source_feats,
                               skip_feats, mlp, capture=capture)
            self.counts[f"{stage}.dist"] += len(target_points) * len(source_points)
            if tape is not None:
                self._tape_stage[tape] = stage
            return out, tape
        return wrapper

    def _association_head(self, fn):
        def wrapper(spec, points_a, feats_a, points_b, feats_b, capture=False):
            with self.span("assoc.fwd"):
                result = fn(spec, points_a, feats_a, points_b, feats_b,
                            capture=capture)
            self.counts["assoc.dist"] += len(points_a) * len(points_b)
            return result
        return wrapper

    def _dense_apply(self, fn):
        def wrapper(params, x, capture=False):
            with self.span("dense.fwd"):
                result = fn(params, x, capture=capture)
            macs = sum(w.shape[0] * w.shape[1] for w in params.weights)
            self.counts["dense.flop"] += 2.0 * len(x) * macs
            return result
        return wrapper

    def _fps(self, fn):
        def wrapper(cloud, m, start_index):
            with self.span("geom.fps"):
                result = fn(cloud, m, start_index)
            self.counts["fps.evals"] += m * len(cloud)
            return result
        return wrapper

    def _filter(self, fn):
        def wrapper(cloud, probs, n_filtered):
            with self.span("pipeline.filter"):
                kept = fn(cloud, probs, n_filtered)
            # Oracle mask probabilities are exactly 1 inside the labelled boxes
            # and 0 elsewhere, so this is the filter's precision on the labels.
            self.counts["filter.fg"] += np.count_nonzero(np.asarray(probs)[kept] > 0.5)
            self.counts["filter.kept"] += len(kept)
            return kept
        return wrapper

    def _adam(self, fn):
        def wrapper(params, grads, state, lr, **kwargs):
            with self.span("optim.adam"):
                result = fn(params, grads, state, lr, **kwargs)
            self.counts["adam.steps"] += 1
            self.counts["adam.params"] += sum(p.size for p in params.values())
            return result
        return wrapper

    def _build(self, fn):
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.register(model)
            return model
        return wrapper

    def _stage_backward(self, fn, stage=None):
        def wrapper(tape, grad):
            with self.span(f"{stage or self._tape_stage[tape]}.bwd"):
                return fn(tape, grad)
        return wrapper

    def _dense_backward(self, fn):
        def wrapper(tape, grad):
            # The head's dense tape is the only one PipelineTape runs directly.
            if self._open and self._open[-1][0] == "pipeline.bwd":
                with self.span("head.bwd"), self.span("dense.bwd"):
                    return fn(tape, grad)
            with self.span("dense.bwd"):
                return fn(tape, grad)
        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        dense_fwd = self._dense_apply(layers.dense_apply)
        patches = [
            (pipeline, "sa_layer", self._sa_layer(pipeline.sa_layer)),
            (pipeline, "fp_layer", self._fp_layer(pipeline.fp_layer)),
            (pipeline, "association_head",
             self._association_head(pipeline.association_head)),
            (pipeline, "dense_apply", self._timed("head.fwd", dense_fwd)),
            (layers, "dense_apply", dense_fwd),
            (layers, "farthest_point_sample", self._fps(layers.farthest_point_sample)),
            (pipeline, "adam_step", self._adam(pipeline.adam_step)),
            (pipeline, "tracking_loss",
             self._timed("losses.tracking", pipeline.tracking_loss)),
            (pipeline, "label_targets",
             self._timed("ingest.targets", pipeline.label_targets)),
            (pipeline, "oracle_detector",
             self._timed("pipeline.detect", pipeline.oracle_detector)),
            (pipeline, "probability_filter", self._filter(pipeline.probability_filter)),
            (pipeline, "point_features",
             self._timed("pipeline.features", pipeline.point_features)),
            (pipeline, "build_displacement_model",
             self._build(pipeline.build_displacement_model)),
            (layers.SaTape, "backward", self._stage_backward(layers.SaTape.backward)),
            (layers.FpTape, "backward", self._stage_backward(layers.FpTape.backward)),
            (layers.AssociationTape, "backward",
             self._stage_backward(layers.AssociationTape.backward, "assoc")),
            (dense.DenseTape, "backward", self._dense_backward(dense.DenseTape.backward)),
            (pipeline.PipelineTape, "backward",
             self._stage_backward(pipeline.PipelineTape.backward, "pipeline")),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        try:
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation values of every LAYER_METRICS entry but the two that
        the tracer cannot see (synthesis time and tracing overhead)."""
        ms = 1e3 / ops
        out: dict[str, float] = {}
        for s in SELECT_STAGES:
            out[f"layers.{s}.select_ms"] = self.self_s[f"{s}.fwd"] * ms
            out[f"layers.{s}.dist_entries"] = self.counts[f"{s}.dist"] / ops
        for s in STAGES:
            out[f"layers.{s}.fwd_ms"] = self.inclusive_s[f"{s}.fwd"] * ms
            out[f"layers.{s}.bwd_ms"] = self.inclusive_s[f"{s}.bwd"] * ms
        gflop = self.counts["dense.flop"] / 1e9
        out.update({
            "geom.fps_ms": self.inclusive_s["geom.fps"] * ms,
            "geom.fps_dist_evals": self.counts["fps.evals"] / ops,
            "pipeline.backward_ms": self.inclusive_s["pipeline.bwd"] * ms,
            "dense.bwd_ms": self.inclusive_s["dense.bwd"] * ms,
            "dense.fwd_ms": self.inclusive_s["dense.fwd"] * ms,
            "dense.fwd_gflop": gflop / ops,
            "dense.fwd_gflops": gflop / self.inclusive_s["dense.fwd"],
            "optim.adam_ms": self.inclusive_s["optim.adam"] * ms,
            "optim.params": self.counts["adam.params"] / max(1.0, self.counts["adam.steps"]),
            "losses.tracking_ms": self.inclusive_s["losses.tracking"] * ms,
            "ingest.targets_ms": self.inclusive_s["ingest.targets"] * ms,
            "pipeline.detect_ms": self.inclusive_s["pipeline.detect"] * ms,
            "pipeline.features_ms": self.inclusive_s["pipeline.features"] * ms,
            "pipeline.filter_ms": self.inclusive_s["pipeline.filter"] * ms,
            "pipeline.filter_fg_frac": self.counts["filter.fg"] / self.counts["filter.kept"],
        })
        for s in SA_STAGES:
            out[f"layers.{s}.fill"] = self.counts[f"{s}.valid"] / self.counts[f"{s}.slots"]
        return out
