"""Checks of the benchmark itself: tracing fidelity and metric coverage.

Run with the repository tests (`python -m pytest`) or alone
(`python -m pytest bench`).  Everything runs at a tiny scale.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from disptrack import pipeline  # noqa: E402
from disptrack.ingest import SceneConfig, synthesize_sequence  # noqa: E402
from disptrack.pipeline import PipelineConfig, SaConfig  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = PipelineConfig(n_input=240, n_filtered=128, k=8,
                      sa1=SaConfig(32, 0.5, 8, (8, 8)), sa2=SaConfig(16, 1.0, 8, (8, 8)),
                      assoc_widths=(8,), sa3=SaConfig(4, 4.0, 8, (8,)),
                      fp1_widths=(8,), fp2_widths=(8,), fp3_widths=(8,), head_widths=(8,))
TINY_SCENE = SceneConfig(frames=3, objects=2, points_per_object=60, background_points=40)
TINY_SCALES = {
    # 6 drives x 17 pairs: enough steps for train_step_ms_p90
    "desk_train": workloads.Scale(
        SceneConfig(frames=18, objects=2, points_per_object=60, background_points=40),
        TINY),
    "paper_predict": workloads.Scale(TINY_SCENE, TINY),
    "paper_train": workloads.Scale(TINY_SCENE, TINY),
}
#: The end-to-end metrics of each workload besides the ones BENCHMARK.json gates.
WORKLOAD_METRICS = {
    "desk_train": {"predict_pairs_per_s": "pairs/s", "predict_ms_p50": "ms",
                   "train_steps_per_s": "steps/s", "train_step_ms_p50": "ms",
                   "train_step_ms_p90": "ms", "heldout_epe_m": "m", "zero_epe_m": "m",
                   "fail_frac": "ratio"},
    "paper_predict": {"predict_pairs_per_s": "pairs/s", "predict_ms_p50": "ms",
                      "fail_frac": "ratio"},
    "paper_train": {"train_steps_per_s": "steps/s", "train_step_ms_p50": "ms",
                    "fail_frac": "ratio"},
}


def test_traced_outputs_are_bit_identical_to_untraced():
    seq = synthesize_sequence(TINY_SCENE, 3)
    a, label_a, b, label_b = next(seq.adjacent_pairs())
    det_a = pipeline.oracle_detector(a, label_a)
    det_b = pipeline.oracle_detector(b, label_b)
    originals = (pipeline.sa_layer, pipeline.adam_step, pipeline.PipelineTape.backward)

    model, _ = pipeline.train_association(seq, TINY, epochs=1)
    field = pipeline.predict_displacements(a, b, det_a, det_b, model, TINY)
    tracer = Tracer()
    with tracer.installed():
        traced_model, _ = pipeline.train_association(seq, TINY, epochs=1)
        traced_field = pipeline.predict_displacements(a, b, det_a, det_b, traced_model,
                                                      TINY)

    params, traced_params = model.param_dict(), traced_model.param_dict()
    assert params.keys() == traced_params.keys()
    for key in params:
        assert np.array_equal(params[key], traced_params[key]), key
    assert np.array_equal(field.point_indices, traced_field.point_indices)
    assert np.array_equal(field.vectors, traced_field.vectors)
    assert (pipeline.sa_layer, pipeline.adam_step,
            pipeline.PipelineTape.backward) == originals
    assert tracer.counts["adam.steps"] == len(seq) - 1
    assert tracer.inclusive_s["pipeline.bwd"] > tracer.inclusive_s["head.bwd"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    tracer = Tracer() if trace else None
    res = workloads.WORKLOADS[name](0, 0.0, tracer, scale=TINY_SCALES[name])

    assert res.attempted >= 1 and res.failed == 0
    if trace:
        expected = dict(LAYER_METRICS)
        gated = SPEC["per_layer"]
    else:
        expected = dict(WORKLOAD_METRICS[name])
        gated = SPEC["end_to_end"]
    expected.update((m["name"], m["unit"]) for m in gated)
    units = {key: unit for key, (_, unit) in res.metrics.items()}
    assert {key: units.get(key) for key in expected} == expected
    assert all(np.isfinite(value) for value, _ in res.metrics.values())


def test_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
