"""The benchmark's own tests: every workload at a tiny size, the tracer's
accounting, and agreement between BENCHMARK.json and what the runs print."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from egobench import harness
from egobench import tracer as tracing
from egobench.run import ROOT

TINY = {
    "sweep": dict(scenes=6, noise_seeds=1),
    # enough epochs for top-1 to clear the workload's floor
    "train": dict(epochs=25),
    "segment": dict(frames=3, classes=1),
}

# per-layer metrics each workload must move from zero
EXERCISED = {
    "sweep": (
        "experiments.make_eval_scenes.self_s", "experiments.sweep_threshold.self_s",
        "experiments.ablation_masking.self_s", "experiments.ablation_desharpen.self_s",
        "synth.mask_quality.calls", "synth.noisy_pose_oracle.self_s", "geometry.mpjpe_report.self_s",
        "rangeseg.range_mask.distinct_ratio", "kernels.box_blur.distinct_ratio",
        "rangeseg.desharpen_mask.self_s", "synth.gen_scene_depth.calls",
        "kernels.capsule_zfield.ms_per_call", "rangeseg.normalize_depth.self_s",
    ),
    "train": (
        "synth.generate_dataset.self_s", "sequence.save_dataset.self_s", "sequence.load_dataset.self_s",
        "sequence.encode_frames.self_s", "sequence.ndjson.mb", "sequence.subsample_or_pad.self_s",
        "sequence.augment_sequence.calls", "geometry.rotate_points_2d.calls", "model.forward_batch.calls",
        "model.backward_batch.self_s", "model.evaluate.self_s", "nnkit.linear_backward.self_s",
        "nnkit.multi_head_attention_backward.self_s", "nnkit.adamw_step.self_s",
        "nnkit.gemm.gflop", "nnkit.gemm.gflop_per_s",
    ),
    "segment": (
        "synth.write_fixture_tree.self_s", "cli.segment.self_s", "rangeseg.apply_mask.self_s",
        "rangeseg.range_mask_metric.self_s", "rangeseg.io.self_s", "rangeseg.io.mb",
        "kernels.box_blur.calls",
    ),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_is_correct(name, tmp_path):
    result, problems, _ = harness.run_workload(name, 3, 0.0, False, str(tmp_path), **TINY[name])
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(n, metrics[n]["unit"]) for n, _, _ in harness.END_TO_END] == [
        (m["name"], m["unit"]) for m in _spec()["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    result, problems, _ = harness.run_workload(name, 4, 0.0, True, str(tmp_path), **TINY[name])
    assert problems == [] and result["failed"] == 0
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in _spec()["per_layer"]]
    for layer in EXERCISED[name]:
        assert metrics[layer] > 0, layer
    # every span's self time, the root's and the bookkeeping add up to the traced wall time
    self_total = sum(v for n, v in metrics.items() if n.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_tracer_nests_and_restores(tmp_path):
    from egohand import experiments, rangeseg

    from egobench.sweep import Sweep

    original = rangeseg.range_mask
    wl = Sweep(1, str(tmp_path), scenes=2, noise_seeds=1)
    wl.setup()
    tr = tracing.Tracer()
    with tracing.installed(tr):
        assert experiments.range_mask is rangeseg.range_mask is not original
        with tr.span("bench.round"):
            for _, _, op in wl.round():
                op()
    assert experiments.range_mask is rangeseg.range_mask is original
    layers = {sid: layer for sid, layer, *_ in tr.spans}
    parents = {layers[parent] for _, layer, parent, *_ in tr.spans if layer == "rangeseg.range_mask"}
    assert parents == {"experiments.sweep_threshold", "experiments.ablation_masking",
                       "experiments.ablation_desharpen"}


def test_per_layer_spec_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in _spec()["per_layer"]] == tracing.per_layer_spec()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "egobench"), tmp_path / "egobench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "egobench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
