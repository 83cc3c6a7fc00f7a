import copy
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from egohand.cli import main
from egohand.geometry import CameraIntrinsics, HandPose25D, project_to_image
from egohand.model import ActionModelConfig
from egohand.rangeseg import DepthMap, load_mask, load_ppm, save_depth, save_ppm
from egohand.sequence import (
    FrameRecord,
    ObjectObs,
    load_dataset,
    load_encoded,
    load_pose_file,
    save_pose_file,
)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """Small synth fixture tree shared by the CLI tests."""
    out = tmp_path_factory.mktemp("tree") / "data"
    rc = main(
        [
            "synth", "--classes", "6", "--per-class", "5", "--seed", "3",
            "--scene-frames", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestExitCodes:
    def test_usage_error_is_4(self):
        assert main(["segment", "--bogus"]) == 4
        assert main([]) == 4

    def test_missing_file_is_2(self, tmp_path):
        rc = main(
            ["segment", "--depth", str(tmp_path / "nope"), "--frames", str(tmp_path),
             "--t", "0.5", "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_bad_format_is_3(self, tmp_path):
        bad = tmp_path / "bad.dmap"
        bad.write_bytes(b"not a dmap")
        (tmp_path / "bad.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        rc = main(
            ["segment", "--depth", str(bad), "--frames", str(tmp_path),
             "--t", "0.5", "--out", str(tmp_path / "o")]
        )
        assert rc == 3

    def test_t_out_of_range_is_3(self, tree, tmp_path):
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--t", "1.5", "--out", str(tmp_path / "o")]
        )
        assert rc == 3

    def test_missing_t_is_usage_error(self, tree, tmp_path):
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 4

    def test_empty_t_list_is_4(self, tree, tmp_path):
        rc = main(
            ["sweep-threshold", "--data", str(tree), "--t-list", ",",
             "--out", str(tmp_path / "r.csv")]
        )
        assert rc == 4

    def test_partial_fixture_tree_is_2(self, tree, tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "poses.ndjson").write_bytes((tree / "poses.ndjson").read_bytes())
        (partial / "manifest.csv").write_bytes((tree / "manifest.csv").read_bytes())
        rc = main(
            ["sweep-threshold", "--data", str(partial), "--t-list", "0.47",
             "--scenes", "2", "--out", str(tmp_path / "r.csv")]
        )
        assert rc == 2  # params.json missing


def _flat_depth(tree, tmp):
    save_depth(tmp / "a.dmap", DepthMap(np.zeros((8, 8))))
    save_ppm(tmp / "a.ppm", np.zeros((8, 8, 3), np.uint8))
    return ["segment", "--depth", str(tmp / "a.dmap"), "--frames", str(tmp), "--t", "0.5",
            "--out", str(tmp / "o")]


def _zero_depth_pose(tree, tmp):
    pose = HandPose25D(np.zeros((21, 3)))
    frame = FrameRecord(0, pose, pose, ObjectObs(np.zeros((4, 2)), 0), "train")
    save_pose_file(tmp / "p.ndjson", CameraIntrinsics(500.0, 500.0, 256.0, 256.0), "2.5d", [frame])
    return ["lift", "--in", str(tmp / "p.ndjson"), "--out", str(tmp / "o.ndjson")]


def _diverging_train(tree, tmp):
    # the first step's huge learning rate makes the validation logits non-finite
    return ["train", "--data", str(tree), "--epochs", "1", "--set", "base_lr=1e300",
            "--out", str(tmp / "o")]


def _short_checkpoint(tree, tmp):
    (tmp / "c.bin").write_bytes(b"SHRP\x01")
    return ["eval-action", "--data", str(tree), "--checkpoint", str(tmp / "c.bin")]


def _non_object_pose_line(tree, tmp):
    header = (tree / "poses.ndjson").read_text().splitlines()[0]
    (tmp / "d").mkdir()
    (tmp / "d" / "poses.ndjson").write_text(header + "\n5\n")
    (tmp / "d" / "manifest.csv").write_bytes((tree / "manifest.csv").read_bytes())
    return ["encode", "--in", str(tmp / "d"), "--out", str(tmp / "e.ndjson")]


def _bad_params(edit):
    """sweep-threshold on a tree whose params.json is the fixture's after ``edit``."""

    def make_argv(tree, tmp):
        (tmp / "d").mkdir()
        meta = edit(json.loads((tree / "params.json").read_text()))
        (tmp / "d" / "params.json").write_text(json.dumps(meta))
        return ["sweep-threshold", "--data", str(tmp / "d"), "--t-list", "0.47", "--scenes", "2",
                "--out", str(tmp / "r.csv")]

    return make_argv


@pytest.mark.parametrize(
    "make_argv, words",
    [
        pytest.param(_flat_depth, (), id="flat-depth"),
        pytest.param(_zero_depth_pose, (), id="zero-depth-pose"),
        pytest.param(_diverging_train, (), id="diverging-train"),
        pytest.param(_short_checkpoint, (), id="short-checkpoint"),
        pytest.param(_non_object_pose_line, (), id="non-object-pose-line"),
        pytest.param(_bad_params(lambda m: {**m, "params": {**m["params"], "zoom": 2}}),
                     ("params.json", "unknown params field 'zoom'"), id="params-unknown-key"),
        pytest.param(_bad_params(lambda m: {**m, "params": {**m["params"], "arm_band": 5}}),
                     ("params.json", "malformed params field 'arm_band'"), id="params-arm-band-number"),
        pytest.param(_bad_params(lambda m: [m]), ("params.json", "master_seed"), id="params-top-level-list"),
        *(pytest.param(_bad_params(lambda m, k=key, v=value: {**m, "params": {**m["params"], k: v}}),
                       ("params.json", key), id=f"params-{key}-{value}")
          for key, value in (("image_size", -5), ("fx", float("inf")), ("noise_sigma0", -1.0))),
        pytest.param(_bad_params(lambda m: {k: v for k, v in m.items() if k != "master_seed"}),
                     ("params.json", "master_seed"), id="params-missing-master-seed"),
    ],
)
def test_library_errors_exit_3_with_one_line(make_argv, words, tree, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", *make_argv(tree, tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("format/config error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    for word in words:
        assert word in proc.stderr


class TestSegment:
    def test_outputs_and_stats(self, tree, tmp_path):
        out = tmp_path / "seg"
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--t", "0.475", "--out", str(out)]
        )
        assert rc == 0
        masks = sorted(out.glob("*.mask.dmap"))
        assert len(masks) == 3
        # threshold at the band midpoint reproduces the emitted gt masks
        for mask_path in masks:
            stem = mask_path.name[: -len(".mask.dmap")]
            got = load_mask(mask_path)
            want = load_mask(tree / "scenes" / f"{stem}.gtmask.dmap")
            assert np.array_equal(got.values, want.values)
            seg = load_ppm(out / f"{stem}.seg.ppm")
            assert seg.shape == (512, 512, 3)
        stats = (out / "mask_stats.csv").read_text().splitlines()
        assert stats[0] == "frame,kept_fraction,kept_pixels"
        assert len(stats) == 4

    def test_metric_mm_path(self, tree, tmp_path):
        out = tmp_path / "segmm"
        scenes = tmp_path / "mm"
        scenes.mkdir()
        for p in (tree / "scenes").glob("*.mm.dmap"):
            stem = p.name[: -len(".mm.dmap")]
            (scenes / f"{stem}.dmap").write_bytes(p.read_bytes())
            (scenes / f"{stem}.ppm").write_bytes((tree / "scenes" / f"{stem}.ppm").read_bytes())
        rc = main(
            ["segment", "--depth", str(scenes), "--frames", str(scenes),
             "--metric-mm", "700", "--out", str(out)]
        )
        assert rc == 0
        for mask_path in out.glob("*.mask.dmap"):
            stem = mask_path.name[: -len(".mask.dmap")]
            want = load_mask(tree / "scenes" / f"{stem}.gtmask.dmap")
            assert np.array_equal(load_mask(mask_path).values, want.values)

    def test_metric_mm_on_tree_reads_mm_maps(self, tree, tmp_path):
        # scenes/ holds <stem>.dmap pseudo-depth beside <stem>.mm.dmap metric maps
        out = tmp_path / "segtree"
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--metric-mm", "700", "--out", str(out)]
        )
        assert rc == 0
        stems = sorted(p.name[: -len(".gtmask.dmap")] for p in (tree / "scenes").glob("*.gtmask.dmap"))
        masks = sorted(out.glob("*.mask.dmap"))
        assert [p.name[: -len(".mask.dmap")] for p in masks] == stems
        for stem, mask_path in zip(stems, masks):
            want = load_mask(tree / "scenes" / f"{stem}.gtmask.dmap")
            assert np.array_equal(load_mask(mask_path).values, want.values)

    @pytest.mark.parametrize("fill", ["300,0,0", "-1,0,0", "a,b,c", "1.5,0,0", "1,2", "1,2,3,4"])
    def test_fill_outside_0_255_is_usage_error(self, tree, tmp_path, fill):
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--t", "0.475", "--fill", fill, "--out", str(tmp_path / "o")]
        )
        assert rc == 4
        assert not (tmp_path / "o").exists()

    def test_fill_255_written_exactly(self, tree, tmp_path):
        out = tmp_path / "filled"
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--t", "0.475", "--fill", "255, 128,0", "--out", str(out)]
        )
        assert rc == 0
        stem = sorted(out.glob("*.mask.dmap"))[0].name[: -len(".mask.dmap")]
        removed = load_mask(out / f"{stem}.mask.dmap").values == 0.0
        assert removed.any()
        assert np.all(load_ppm(out / f"{stem}.seg.ppm")[removed] == [255, 128, 0])

    def test_desharpen_emits_soft_mask(self, tree, tmp_path):
        out = tmp_path / "soft"
        rc = main(
            ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
             "--t", "0.475", "--desharpen", "2", "--out", str(out)]
        )
        assert rc == 0
        m = load_mask(next(iter(sorted(out.glob("*.mask.dmap")))))
        assert not m.binary
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0
        assert np.any((m.values > 0) & (m.values < 1))


class TestSweep:
    def test_csv_and_svg(self, tree, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep-threshold", "--data", str(tree), "--t-list", "0.35,0.47",
             "--mode", "train", "--scenes", "6", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mpjpe_left,mpjpe_right,mpjpe_both"
        assert len(lines) == 3
        svg = out.with_suffix(".svg")
        assert svg.is_file() and svg.read_text().startswith("<svg")

    def test_single_element_list(self, tree, tmp_path):
        out = tmp_path / "one.csv"
        rc = main(
            ["sweep-threshold", "--data", str(tree), "--t-list", "0.47",
             "--scenes", "4", "--out", str(out)]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2


class TestLiftEvalPose:
    def _make_25d(self, tree, path):
        ds = load_dataset(tree)
        k = ds.intrinsics
        frames = []
        # sequence 20 belongs to class 4, which has an absent left hand
        for seq in ds.sequences[:2] + ds.sequences[20:21]:
            for fr in seq.frames:
                frames.append(
                    FrameRecord(
                        fr.frame_id,
                        project_to_image(fr.left, k) if fr.left.present else _absent25(),
                        project_to_image(fr.right, k) if fr.right.present else _absent25(),
                        fr.obj,
                        fr.split,
                    )
                )
        save_pose_file(path, k, "2.5d", frames)
        return ds

    def test_lift_round_trips_to_3d(self, tree, tmp_path):
        src = tmp_path / "p25.ndjson"
        ds = self._make_25d(tree, src)
        out = tmp_path / "p3.ndjson"
        assert main(["lift", "--in", str(src), "--out", str(out)]) == 0
        _, space, frames = load_pose_file(out)
        assert space == "3d"
        by_id = {fr.frame_id: fr for fr in frames}
        saw_absent = False
        for seq in ds.sequences[:2] + ds.sequences[20:21]:
            for fr in seq.frames:
                got = by_id[fr.frame_id]
                if fr.left.present:
                    assert np.max(np.abs(got.left.joints - fr.left.joints)) < 1e-9
                else:
                    saw_absent = True
                    assert not got.left.present and np.all(got.left.joints == 0.0)
        assert saw_absent

    def test_eval_pose_zero_and_offset(self, tree, tmp_path):
        ds = load_dataset(tree)
        k = ds.intrinsics
        frames = [fr for seq in ds.sequences[:2] for fr in seq.frames]
        gt_path = tmp_path / "gt.ndjson"
        save_pose_file(gt_path, k, "3d", frames)
        assert main(["eval-pose", "--pred", str(gt_path), "--gt", str(gt_path)]) == 0

        import copy

        shifted = copy.deepcopy(frames)
        for fr in shifted:
            for pose in (fr.left, fr.right):
                if pose.present:
                    pose.joints[:, 0] += 5.0
        pred_path = tmp_path / "pred.ndjson"
        save_pose_file(pred_path, k, "3d", shifted)
        out_csv = tmp_path / "m.csv"
        rc = main(["eval-pose", "--pred", str(pred_path), "--gt", str(gt_path), "--out", str(out_csv)])
        assert rc == 0
        row = out_csv.read_text().splitlines()[1].split(",")
        assert all(abs(float(v) - 5.0) < 1e-9 for v in row)

    def test_frame_id_mismatch_is_5(self, tree, tmp_path):
        ds = load_dataset(tree)
        frames = [fr for seq in ds.sequences[:1] for fr in seq.frames]
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        save_pose_file(a, ds.intrinsics, "3d", frames)
        import copy

        other = copy.deepcopy(frames)
        other[0].frame_id = 9999
        other.sort(key=lambda fr: fr.frame_id)
        save_pose_file(b, ds.intrinsics, "3d", other)
        assert main(["eval-pose", "--pred", str(a), "--gt", str(b)]) == 5


class TestEncode:
    def test_encoded_shapes_and_manifest_count(self, tree, tmp_path):
        out = tmp_path / "enc.ndjson"
        assert main(["encode", "--in", str(tree), "--out", str(out)]) == 0
        rows = load_encoded(out)
        assert len(rows) == 30  # 6 classes x 5 sequences
        for _, _, seq in rows:
            assert seq.frames.shape == (20, 135)

    def test_csv_dir_export(self, tree, tmp_path):
        out = tmp_path / "enc.ndjson"
        csv_dir = tmp_path / "mats"
        assert main(["encode", "--in", str(tree), "--out", str(out), "--csv-dir", str(csv_dir)]) == 0
        assert len(list(csv_dir.glob("*.csv"))) == 30


@pytest.fixture(scope="module")
def trained(tree, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(
        ["train", "--data", str(tree), "--seed", "5", "--epochs", "3",
         "--set", "d_model=16", "--set", "heads=2", "--set", "ff_width=32",
         "--set", "batch_size=8", "--out", str(out)]
    )
    assert rc == 0
    return out


class TestTrainEval:
    def test_outputs_exist(self, trained):
        for name in ("checkpoint.bin", "last.bin", "history.csv", "config.snapshot.cfg", "report.json"):
            assert (trained / name).is_file()
        hist = (trained / "history.csv").read_text().splitlines()
        assert hist[0] == "epoch,train_loss,train_acc,val_acc,lr"
        assert len(hist) == 4

    def test_eval_action_runs_with_sibling_config(self, tree, trained, tmp_path):
        conf = tmp_path / "confusion.csv"
        rc = main(
            ["eval-action", "--data", str(tree), "--checkpoint", str(trained / "checkpoint.bin"),
             "--split", "test", "--out", str(conf)]
        )
        assert rc == 0
        rows = conf.read_text().splitlines()
        assert len(rows) == 37  # header + 36 class rows

    def test_eval_action_mask_group(self, tree, trained):
        rc = main(
            ["eval-action", "--data", str(tree), "--checkpoint", str(trained / "checkpoint.bin"),
             "--split", "test", "--mask-group", "label"]
        )
        assert rc == 0

    def test_wrong_config_shape_is_3(self, tree, trained):
        rc = main(
            ["eval-action", "--data", str(tree), "--checkpoint", str(trained / "checkpoint.bin"),
             "--config", str(trained / "config.snapshot.cfg"), "--set", "d_model=32"]
        )
        assert rc == 3

    def test_config_file_line_error_is_3(self, tree, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("d_model = 16\nnot a config line\n")
        rc = main(["train", "--data", str(tree), "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_config_env_var(self, tree, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("d_model = 16\nheads = 2\nff_width = 32\nbatch_size = 8\nmax_epochs = 1\n")
        monkeypatch.setenv("EGOHAND_CONFIG", str(cfg))
        out = tmp_path / "envrun"
        assert main(["train", "--data", str(tree), "--seed", "1", "--out", str(out)]) == 0
        snap = (out / "config.snapshot.cfg").read_text()
        assert "d_model = 16" in snap


class TestPlot:
    def test_two_point_line(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n0.0,1.0\n1.0,3.0\n")
        out = tmp_path / "d.svg"
        assert main(["plot", "--csv", str(csv), "--out", str(out)]) == 0
        text = out.read_text()
        assert "polyline" in text and text.count("<circle") == 2

    def test_empty_csv_is_3(self, tmp_path):
        csv = tmp_path / "e.csv"
        csv.write_text("x,y\n")
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "e.svg")]) == 3

    def test_malformed_csv_is_3(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("x,y\n1.0\n")
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "m.svg")]) == 3

    def test_byte_determinism(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("t,v\n0.1,2.0\n0.2,2.5\n0.3,1.0\n")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--csv", str(csv), "--out", str(a)]) == 0
        assert main(["plot", "--csv", str(csv), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


_MODEL_CONFIG_KEYS = {f.name for f in dataclasses.fields(ActionModelConfig)}


def _pose_files(tree, tmp):
    """(pred, gt) 3d pose files of the tree's first sequence, pred shifted 5 mm in x."""
    ds = load_dataset(tree)
    frames = list(ds.sequences[0].frames)
    save_pose_file(tmp / "gt.ndjson", ds.intrinsics, "3d", frames)
    shifted = copy.deepcopy(frames)
    for fr in shifted:
        for pose in (fr.left, fr.right):
            if pose.present:
                pose.joints[:, 0] += 5.0
    save_pose_file(tmp / "pred.ndjson", ds.intrinsics, "3d", shifted)
    return tmp / "pred.ndjson", tmp / "gt.ndjson"


def _report_synth(tree, trained, tmp):
    # the module's tree fixture ran synth
    return tree / "report.json", 3, {"classes", "per_class", "scene_frames", "params"}, {"sequences"}


def _report_segment(tree, trained, tmp):
    assert main(["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
                 "--t", "0.475", "--out", str(tmp / "seg")]) == 0
    return (tmp / "seg" / "report.json", None, {"t", "metric_mm", "desharpen", "fill"},
            {"frames", "mean_kept_fraction"})


def _report_sweep(tree, trained, tmp):
    assert main(["sweep-threshold", "--data", str(tree), "--t-list", "0.47", "--scenes", "2",
                 "--seed", "4", "--out", str(tmp / "s.csv")]) == 0
    return tmp / "s.csv.report.json", 4, {"t_list", "mode", "scenes", "data", "params"}, {"rows"}


def _report_eval_pose(tree, trained, tmp):
    pred, gt = _pose_files(tree, tmp)
    assert main(["eval-pose", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp / "m.csv")]) == 0
    return tmp / "m.csv.report.json", None, {"pred", "gt"}, {"mpjpe_left", "mpjpe_right", "mpjpe_both"}


def _report_train(tree, trained, tmp):
    # the module's trained fixture ran train
    return trained / "report.json", 5, _MODEL_CONFIG_KEYS, {"best_epoch", "best_val_acc", "epochs_run"}


def _report_eval_action(tree, trained, tmp):
    assert main(["eval-action", "--data", str(tree), "--checkpoint", str(trained / "checkpoint.bin"),
                 "--out", str(tmp / "c.csv")]) == 0
    # the sibling config snapshot carries the training seed
    return tmp / "c.csv.report.json", 5, _MODEL_CONFIG_KEYS, {"split", "top1", "mask_group"}


@pytest.mark.parametrize(
    "command, run",
    [("synth", _report_synth), ("segment", _report_segment), ("sweep-threshold", _report_sweep),
     ("eval-pose", _report_eval_pose), ("train", _report_train), ("eval-action", _report_eval_action)],
)
def test_run_report_contents(command, run, tree, trained, tmp_path):
    path, seed, config_keys, metric_keys = run(tree, trained, tmp_path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"command", "config", "seed", "metrics", "wall_time_s"}
    assert doc["command"] == command
    assert doc["seed"] == seed
    assert set(doc["config"]) == config_keys
    assert set(doc["metrics"]) == metric_keys
    assert isinstance(doc["wall_time_s"], float) and doc["wall_time_s"] >= 0.0


def test_commands_without_a_report(tree, trained, tmp_path):
    src = tmp_path / "p25.ndjson"
    pose = HandPose25D(np.full((21, 3), 500.0))
    frame = FrameRecord(0, pose, pose, ObjectObs(np.zeros((4, 2)), 0), "train")
    save_pose_file(src, CameraIntrinsics(500.0, 500.0, 256.0, 256.0), "2.5d", [frame])
    pred, gt = _pose_files(tree, tmp_path)
    (tmp_path / "d.csv").write_text("x,y\n0.0,1.0\n1.0,3.0\n")
    checkpoint = str(trained / "checkpoint.bin")
    reports_before = sorted(tree.rglob("*report.json")) + sorted(trained.rglob("*report.json"))
    for argv in (
        ["lift", "--in", str(src), "--out", str(tmp_path / "p3.ndjson")],
        ["encode", "--in", str(tree), "--out", str(tmp_path / "enc.ndjson"),
         "--csv-dir", str(tmp_path / "mats")],
        ["plot", "--csv", str(tmp_path / "d.csv"), "--out", str(tmp_path / "d.svg")],
        ["eval-pose", "--pred", str(pred), "--gt", str(gt)],
        ["eval-action", "--data", str(tree), "--checkpoint", checkpoint],
    ):
        assert main(argv) == 0, argv[0]
    assert sorted(tmp_path.rglob("*report.json")) == []
    assert sorted(tree.rglob("*report.json")) + sorted(trained.rglob("*report.json")) == reports_before


def _absent25():
    from egohand.geometry import JOINT_COUNT, HandPose25D

    j = np.zeros((JOINT_COUNT, 3))
    j[:, 2] = 1.0  # placeholder depth for absent hands in 2.5d files
    return HandPose25D(j, present=False)


def test_console_entry_point_works():
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "sweep-threshold" in proc.stdout
