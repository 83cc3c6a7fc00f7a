import copy
import dataclasses
import hashlib
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from egohand import cli
from egohand.cli import build_parser, main
from egohand.geometry import CameraIntrinsics, HandPose, lift_to_camera, project_to_image
from egohand.model import HISTORY_HEADER, ActionModelConfig
from egohand.rangeseg import DepthMap, load_mask, load_ppm, save_depth, save_ppm
from egohand.sequence import (
    SEQ_LEN,
    FrameRecord,
    ObjectObs,
    encode_frames,
    load_dataset,
    load_pose_file,
    save_pose_file,
    subsample_or_pad,
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

    @pytest.mark.parametrize("flags", [["--t", "0.5", "--metric-mm", "700"], []], ids=["both", "neither"])
    def test_t_and_metric_mm_take_exactly_one(self, tree, tmp_path, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "egohand", "segment", "--depth", str(tree / "scenes"),
             "--frames", str(tree / "scenes"), *flags, "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1
        assert "--t" in proc.stderr and "--metric-mm" in proc.stderr
        assert not (tmp_path / "o").exists()

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
    pose = HandPose(np.zeros((21, 3)))
    frame = FrameRecord(0, pose, pose, ObjectObs(np.zeros((4, 2)), 0), "train")
    save_pose_file(tmp / "p.ndjson", CameraIntrinsics(500.0, 500.0, 256.0, 256.0), "2.5d", [frame])
    return ["lift", "--in", str(tmp / "p.ndjson"), "--out", str(tmp / "o.ndjson")]


def _nan_metric_mm(tree, tmp):
    return ["segment", "--depth", str(tree / "scenes"), "--frames", str(tree / "scenes"),
            "--metric-mm", "nan", "--out", str(tmp / "o")]


def _train_with(*overrides):
    """One-epoch train on the tree with each ``key=value`` config override."""
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    return lambda tree, tmp: ["train", "--data", str(tree), "--epochs", "1", *sets, "--out", str(tmp / "o")]


def _two_d_pose_file(tree, tmp):
    # a pose space with 2 columns per joint; lift takes only 2.5d
    header, *frames = (tree / "poses.ndjson").read_text().splitlines()
    (tmp / "p.ndjson").write_text(json.dumps({**json.loads(header), "space": "2d"}) + "\n" + frames[0] + "\n")
    return ["lift", "--in", str(tmp / "p.ndjson"), "--out", str(tmp / "o.ndjson")]


def _short_checkpoint(tree, tmp):
    (tmp / "c.bin").write_bytes(b"SHRP\x01")
    return ["eval-action", "--data", str(tree), "--checkpoint", str(tmp / "c.bin")]


def _non_object_pose_line(tree, tmp):
    header = (tree / "poses.ndjson").read_text().splitlines()[0]
    (tmp / "d").mkdir()
    (tmp / "d" / "poses.ndjson").write_text(header + "\n5\n")
    (tmp / "d" / "manifest.csv").write_bytes((tree / "manifest.csv").read_bytes())
    return ["encode", "--in", str(tmp / "d"), "--out", str(tmp / "e.ndjson")]


def _long_integer_pose_line(line):
    """encode on the tree with a 5000-digit number on pose line ``line`` (the header's fx, or a frame_id)."""

    def make_argv(tree, tmp):
        lines = (tree / "poses.ndjson").read_text().splitlines()
        key = '"fx":' if line == 1 else '"frame_id":'
        lines[line - 1] = re.sub(key + "[0-9.]+", key + "1" * 5000, lines[line - 1], count=1)
        (tmp / "d").mkdir()
        (tmp / "d" / "poses.ndjson").write_text("\n".join(lines) + "\n")
        (tmp / "d" / "manifest.csv").write_bytes((tree / "manifest.csv").read_bytes())
        return ["encode", "--in", str(tmp / "d"), "--out", str(tmp / "e.ndjson")]

    return make_argv


_NESTED = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder's recursion limit


def _nested_pose_line(tree, tmp):
    lines = (tree / "poses.ndjson").read_text().splitlines()
    lines[4] = _NESTED
    (tmp / "d").mkdir()
    (tmp / "d" / "poses.ndjson").write_text("\n".join(lines) + "\n")
    (tmp / "d" / "manifest.csv").write_bytes((tree / "manifest.csv").read_bytes())
    return ["encode", "--in", str(tmp / "d"), "--out", str(tmp / "e.ndjson")]


def _nested_params(tree, tmp):
    (tmp / "d").mkdir()
    (tmp / "d" / "params.json").write_text('{"master_seed": ' + _NESTED + ', "params": {}}')
    return ["sweep-threshold", "--data", str(tmp / "d"), "--t-list", "0.47", "--scenes", "2",
            "--out", str(tmp / "r.csv")]


def _repeated_sequence_id(tree, tmp):
    # the second manifest row takes the first row's sequence_id
    header, first, second, *rest = (tree / "manifest.csv").read_text().splitlines()
    second = ",".join([first.split(",")[0], *second.split(",")[1:]])
    (tmp / "d").mkdir()
    (tmp / "d" / "poses.ndjson").write_bytes((tree / "poses.ndjson").read_bytes())
    (tmp / "d" / "manifest.csv").write_text("\n".join([header, first, second, *rest]) + "\n")
    return ["encode", "--in", str(tmp / "d"), "--out", str(tmp / "e.ndjson"), "--csv-dir", str(tmp / "m")]


def _as_space(tree, tmp, space):
    """The tree's pose file with the header's space tag set to ``space``, at ``tmp/p.ndjson``."""
    header, rest = (tree / "poses.ndjson").read_text().split("\n", 1)
    (tmp / "p.ndjson").write_text(json.dumps({**json.loads(header), "space": space}) + "\n" + rest)
    return tmp / "p.ndjson"


def _edited_dataset(edit_manifest=lambda rows: rows, space="3d"):
    """encode on a copy of the tree whose manifest data rows (lists of fields)
    went through ``edit_manifest`` and whose pose file has space ``space``."""

    def make_argv(tree, tmp):
        (tmp / "d").mkdir()
        _as_space(tree, tmp, space).rename(tmp / "d" / "poses.ndjson")
        header, *rows = (tree / "manifest.csv").read_text().splitlines()
        rows = edit_manifest([row.split(",") for row in rows])
        (tmp / "d" / "manifest.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        return ["encode", "--in", str(tmp / "d"), "--out", str(tmp / "e.ndjson")]

    return make_argv


def _first_row(**fields):
    """A manifest edit that sets the named fields of the first data row."""
    columns = ("sequence_id", "frame_start", "frame_end", "action_label", "split")

    def edit(rows):
        rows[0] = [fields.get(name, value) for name, value in zip(columns, rows[0])]
        return rows

    return edit


def _one_column_csv(tree, tmp):
    (tmp / "c.csv").write_text("x\n1\n2\n")
    return ["plot", "--csv", str(tmp / "c.csv"), "--out", str(tmp / "c.svg")]


def _not_utf8(name, argv):
    """``argv`` (with {tmp}) on a copy of the tree whose ``name`` file, or the
    file ``tmp/name`` outside it, starts with a byte that is not UTF-8."""

    def make_argv(tree, tmp):
        shutil.copytree(tree, tmp / "d")
        path = tmp / "d" / name if (tmp / "d" / name).exists() else tmp / name
        path.write_bytes(b"\xff" + (path.read_bytes() if path.exists() else b"x,y\n1,2\n"))
        return [arg.format(tmp=tmp) for arg in argv.split()]

    return make_argv


def _bad_gt_line(tree, tmp):
    # the third line of --gt lacks the left hand; --pred is whole
    lines = (tree / "poses.ndjson").read_text().splitlines()
    frame = json.loads(lines[2])
    del frame["left"]
    (tmp / "gt.ndjson").write_text("\n".join([*lines[:2], json.dumps(frame), *lines[3:]]) + "\n")
    return ["eval-pose", "--pred", str(tree / "poses.ndjson"), "--gt", str(tmp / "gt.ndjson")]


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
        pytest.param(_nan_metric_mm, ("metric threshold", "nan"), id="nan"),
        # the first step's huge learning rate makes the validation logits non-finite
        pytest.param(_train_with("base_lr=1e300"), (), id="diverging-train"),
        pytest.param(_train_with("blocks=0"), ("blocks must be >= 1",), id="blockless-train"),
        pytest.param(_train_with("schedule_start=0", "schedule_every=0"), ("schedule_every must be >= 1",),
                     id="schedule-every-0"),
        pytest.param(_train_with("aug_rotation=nan"), ("aug_rotation must be finite, got nan",),
                     id="nan-aug-rotation"),
        pytest.param(_train_with("base_lr=-1"), ("base_lr must be > 0, got -1.0",), id="negative-base-lr"),
        pytest.param(_train_with("aug_rotation=1e308"), ("aug_rotation must be <= pi, got 1e+308",),
                     id="huge-aug-rotation"),
        pytest.param(_train_with("input_dim=10"), ("input_dim must be 135", "got 10"), id="input-dim"),
        pytest.param(_repeated_sequence_id, ("manifest.csv: line 3: repeated sequence_id 0",),
                     id="repeated-sequence-id"),
        pytest.param(_edited_dataset(_first_row(frame_end="0")), ("manifest.csv: line 2: empty frame range [0, 0)",),
                     id="empty-frame-range"),
        pytest.param(_edited_dataset(_first_row(action_label="99")),
                     ("manifest.csv: line 2: action label 99 outside [0, 36)",), id="manifest-label-99"),
        pytest.param(_bad_gt_line, ("gt.ndjson: line 3: missing field 'left'",), id="eval-pose-bad-gt-line"),
        *(pytest.param(_not_utf8(name, argv), (f"{name}: 'utf-8' codec can't decode byte 0xff",), id=f"not-utf8-{name}")
          for name, argv in (
              ("poses.ndjson", "encode --in {tmp}/d --out {tmp}/e.ndjson"),
              ("manifest.csv", "encode --in {tmp}/d --out {tmp}/e.ndjson"),
              ("c.csv", "plot --csv {tmp}/c.csv --out {tmp}/c.svg"),
              ("c.cfg", "train --data {tmp}/d --config {tmp}/c.cfg --out {tmp}/o"),
          )),
        pytest.param(_edited_dataset(space="2.5d"), ("expected a 3d dataset, got space '2.5d'",),
                     id="encode-2.5d-dataset"),
        pytest.param(lambda tree, tmp: ["lift", "--in", str(tree / "poses.ndjson"), "--out", str(tmp / "o")],
                     ("poses.ndjson: lift expects a 2.5d pose file, got space '3d'",), id="lift-3d-file"),
        pytest.param(lambda tree, tmp: ["eval-pose", "--pred", str(_as_space(tree, tmp, "2.5d")),
                                        "--gt", str(tree / "poses.ndjson")],
                     ("p.ndjson: eval-pose expects 3d pose files, got space '2.5d' for --pred",),
                     id="eval-pose-2.5d-file"),
        pytest.param(_one_column_csv, ("need at least one y column",), id="plot-one-column"),
        pytest.param(_two_d_pose_file, ("p.ndjson: line 1: unknown space tag '2d'",), id="two-d-pose-file"),
        pytest.param(_short_checkpoint, ("c.bin: truncated checkpoint header",), id="short-checkpoint"),
        pytest.param(lambda tree, tmp: ["eval-action", "--data", str(tree), "--checkpoint", str(tree / "poses.ndjson")],
                     ("poses.ndjson: bad checkpoint magic b'{\"in'",), id="checkpoint-magic"),
        pytest.param(_non_object_pose_line, ("poses.ndjson: line 2: expected a JSON object, got int",),
                     id="non-object-pose-line"),
        pytest.param(_long_integer_pose_line(1), ("poses.ndjson: line 1: invalid JSON: Exceeds the limit",),
                     id="long-integer-header"),
        pytest.param(_long_integer_pose_line(5), ("poses.ndjson: line 5: invalid JSON: Exceeds the limit",),
                     id="long-integer-frame"),
        pytest.param(_nested_pose_line, ("poses.ndjson: line 5: invalid JSON", "recursion"), id="nested-pose-line"),
        pytest.param(_nested_params, ("params.json", "recursion"), id="params-nested"),
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
        pytest.param(_bad_params(lambda m: {**m, "master_seed": -1}),
                     ("params.json", "non-negative integer 'master_seed'"), id="params-negative-master-seed"),
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


def _segment(depth, frames):
    return lambda tree, tmp: ["segment", "--depth", str(depth(tree, tmp)), "--frames", str(frames(tree, tmp)),
                              "--t", "0.5", "--out", str(tmp / "o")]


def _lone_map(tree, tmp):
    """A copy of the tree's first depth map, alone in ``tmp/maps``."""
    (tmp / "maps").mkdir()
    first = min((tree / "scenes").glob("*[0-9].dmap"))
    (tmp / "maps" / first.name).write_bytes(first.read_bytes())
    return tmp / "maps" / first.name


@pytest.mark.parametrize("make_argv, code, words", [
    pytest.param(_segment(lambda tree, tmp: tmp, lambda tree, tmp: tree / "scenes"), 2,
                 ("i/o error: ", "no .dmap files under"), id="segment-no-maps"),
    pytest.param(_segment(_lone_map, lambda tree, tmp: tmp / "maps"), 2,
                 ("i/o error: ", "missing frame for '000000'"), id="segment-map-without-frame"),
    pytest.param(_edited_dataset(_first_row(frame_start="1000000", frame_end="1000001")), 5,
                 ("data consistency error: ", "frame 1000000 missing from poses.ndjson"), id="manifest-frame-missing"),
    pytest.param(_edited_dataset(lambda rows: _first_row(split="val" if rows[0][4] != "val" else "test")(rows)), 5,
                 ("data consistency error: ", "!= manifest split"), id="manifest-split-mismatch"),
])
def test_io_and_consistency_errors_exit_with_one_line(make_argv, code, words, tree, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", *make_argv(tree, tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(words[0]) and all(word in proc.stderr for word in words[1:])


@pytest.mark.parametrize("epochs", ["0", "-3"])
def test_train_without_epochs_exits_3_and_writes_nothing(epochs, tree, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", "train", "--data", str(tree), "--epochs", epochs,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"format/config error: max_epochs must be >= 1, got {epochs}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--per-class", "0"], "per_class must be >= 1, got 0"),
    (["--per-class", "2", "--scene-frames", "-3"], "scene_frames must be >= 0, got -3"),
])
def test_synth_count_out_of_range_exits_3_and_writes_nothing(flags, message, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", "synth", "--classes", "2", *flags, "--out", str(tmp_path / "t")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"format/config error: {message}\n"
    assert not (tmp_path / "t").exists()


def test_synth_into_a_tree_whose_scenes_is_a_file_exits_2_and_writes_nothing(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "x" / "scenes").write_text("keep me\n")
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", "synth", "--classes", "2", "--per-class", "1", "--out", str(tmp_path / "x")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    assert [p.name for p in (tmp_path / "x").iterdir()] == ["scenes"]
    assert (tmp_path / "x" / "scenes").read_text() == "keep me\n"


@pytest.mark.parametrize("key, value, message", [
    ("bone_scale", float("nan"), "bone_scale must be finite and positive, got nan"),
    ("bone_scale", -0.5, "bone_scale must be finite and positive, got -0.5"),
    ("bones", {"index": [40.0, float("nan"), 22.0, 18.0]}, "bones['index'] lengths must be > 0, got [40.0, nan"),
    ("infer_damping", float("nan"), "infer_damping must lie in [0, 1], got nan"),
    ("infer_damping", -0.5, "infer_damping must lie in [0, 1], got -0.5"),
    ("infer_damping", 1.5, "infer_damping must lie in [0, 1], got 1.5"),
    ("frames_range", [0, -3], "frames_range must satisfy 1 <= lo <= hi, got (0, -3)"),
    ("frames_range", [0, 0], "frames_range must satisfy 1 <= lo <= hi, got (0, 0)"),
    ("cx", float("nan"), "principal point must be finite"),
], ids=["bone_scale-nan", "bone_scale-negative", "bones-nan", "infer_damping-nan", "infer_damping-negative",
        "infer_damping-above-1", "frames_range-0-to-minus-3", "frames_range-0-to-0", "cx-nan"])
def test_impossible_params_exit_3_and_write_nothing(key, value, message, tree, tmp_path):
    def edit(meta):
        params = meta["params"]
        new = {**params[key], **value} if key == "bones" else value
        return {**meta, "params": {**params, key: new}}

    argv = _bad_params(edit)(tree, tmp_path)
    proc = subprocess.run([sys.executable, "-m", "egohand", *argv], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("format/config error: ") and proc.stderr.count("\n") == 1
    assert "params.json" in proc.stderr and message in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["params.json"]


@pytest.mark.parametrize("command", ["train", "synth", "sweep-threshold"])
def test_negative_seed_exits_3_naming_the_seed(command, tree, tmp_path):
    out = tmp_path / "o"
    argv = {
        "train": ["--data", str(tree), "--epochs", "1", "--out", str(out)],
        "synth": ["--classes", "2", "--per-class", "3", "--out", str(out)],
        "sweep-threshold": ["--data", str(tree), "--t-list", "0.47", "--scenes", "2", "--out", str(out)],
    }[command]
    proc = subprocess.run([sys.executable, "-m", "egohand", command, *argv, "--seed", "-1"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "format/config error: seed must be >= 0, got -1\n"
    assert not out.exists()


def _two_per_class_tree(tree, tmp):
    # two sequences per class go to train and test, so the validation split is empty
    assert main(["synth", "--classes", "2", "--per-class", "2", "--scene-frames", "0",
                 "--out", str(tmp / "d")]) == 0
    return _train_with()(tmp / "d", tmp)


@pytest.mark.parametrize("make_argv, code, message", [
    (lambda tree, tmp: [*_train_with()(tree, tmp), "--seed", "-1"], 3, "seed must be >= 0, got -1"),
    (_train_with("d_model=1000000000000000"), 3, "Unable to allocate"),
    (_train_with("n_classes=2"), 3, "train label 2 outside [0, 2)"),
    (_two_per_class_tree, 5, "train and validation sets must be non-empty"),
], ids=["negative-seed", "unallocatable-model", "labels-beyond-n-classes", "empty-val-split"])
def test_failed_train_leaves_no_out_directory(make_argv, code, message, tree, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", *make_argv(tree, tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert proc.stderr.count("\n") == 1 and message in proc.stderr
    assert not (tmp_path / "o").exists()


def test_unallocatable_model_size_exits_3(tree, tmp_path):
    # 959 PiB of weights: the allocation fails at once, before any page is touched
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", *_train_with("d_model=1000000000000000")(tree, tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("format/config error: Unable to allocate")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("scenes", ["0", "-2"])
def test_sweep_scene_count_out_of_range_exits_3_and_writes_nothing(scenes, tree, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", "sweep-threshold", "--data", str(tree), "--t-list", "0.47",
         "--scenes", scenes, "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"format/config error: n_scenes must be >= 1, got {scenes}\n"
    assert list(tmp_path.iterdir()) == []


class TestSegment:
    @pytest.mark.parametrize("out_exists", [False, True])
    def test_failure_leaves_no_partial_output(self, out_exists, tree, tmp_path):
        # the second map is cut short: the first frame's outputs were written before it is read
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        stems = sorted(p.name[: -len(".dmap")] for p in (tree / "scenes").glob("*.dmap") if p.name.count(".") == 1)
        for stem in stems:
            (scenes / f"{stem}.dmap").write_bytes((tree / "scenes" / f"{stem}.dmap").read_bytes())
            (scenes / f"{stem}.ppm").write_bytes((tree / "scenes" / f"{stem}.ppm").read_bytes())
        (scenes / f"{stems[1]}.dmap").write_bytes((scenes / f"{stems[1]}.dmap").read_bytes()[:100])
        out = tmp_path / "seg"
        if out_exists:
            out.mkdir()
            (out / "keep.txt").write_text("not this run's")
        proc = subprocess.run(
            [sys.executable, "-m", "egohand", "segment", "--depth", str(scenes), "--frames", str(scenes),
             "--t", "0.475", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3 and proc.stderr.count("\n") == 1
        assert stems[1] in proc.stderr
        if out_exists:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:
            assert not out.exists()

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

    def test_single_mm_dmap_file_matches_directory_run(self, tree, tmp_path):
        scenes = tree / "scenes"
        stem = sorted(p.name[: -len(".mm.dmap")] for p in scenes.glob("*.mm.dmap"))[0]
        one, every = tmp_path / "one", tmp_path / "every"
        for depth, out in ((scenes / f"{stem}.mm.dmap", one), (scenes, every)):
            assert main(["segment", "--depth", str(depth), "--frames", str(scenes),
                         "--metric-mm", "700", "--out", str(out)]) == 0
        assert [p.name for p in one.glob("*.mask.dmap")] == [f"{stem}.mask.dmap"]
        for name in (f"{stem}.mask.dmap", f"{stem}.seg.ppm"):
            assert (one / name).read_bytes() == (every / name).read_bytes()

    def test_bad_map_is_named(self, tree, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for p in (tree / "scenes").glob("*"):
            (scenes / p.name).write_bytes(p.read_bytes())
        second = sorted(scenes.glob("*.gtmask.dmap"))[1].name.replace(".gtmask", "")
        (scenes / second).write_bytes((scenes / second).read_bytes()[:100])
        argv = ["segment", "--depth", str(scenes), "--frames", str(scenes), "--t", "0.475",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"format/config error: {scenes / second}: payload of 84 bytes where the header gives 1048576: "
            "the file is truncated or has trailing bytes\n"
        )

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

    def test_repeated_desharpened_segment_faults_in_no_fresh_pages(self, tmp_path, fresh_process_faults):
        # each frame's maps and blur reuse the pages the last frame freed, also across calls
        data, seg = tmp_path / "data", tmp_path / "seg"
        faults = fresh_process_faults(f"""
            from egohand.cli import main
            main(["synth", "--classes", "1", "--per-class", "3", "--scene-frames", "8", "--out", {str(data)!r}])
            argv = ["segment", "--depth", {str(data / "scenes")!r}, "--frames", {str(data / "scenes")!r},
                    "--t", "0.475", "--desharpen", "2", "--out"]
        """, [f"main(argv + [{str(seg) + str(i)!r}])" for i in range(3)])
        assert max(faults[1:]) < 1000, faults

    @pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\rb"])
    def test_frame_name_that_would_split_a_csv_row_exits_3(self, stem, tree, tmp_path, capsys):
        # mask_stats.csv writes the stem unquoted; its maps and frame were written first
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        src = sorted((tree / "scenes").glob("*.gtmask.dmap"))[0].name[: -len(".gtmask.dmap")]
        for ext in (".dmap", ".ppm"):
            (scenes / (stem + ext)).write_bytes((tree / "scenes" / (src + ext)).read_bytes())
        out = tmp_path / "seg"
        argv = ["segment", "--depth", str(scenes), "--frames", str(scenes), "--t", "0.475", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("format/config error: ") and err.count("\n") == 1 and repr(stem) in err
        assert not out.exists()


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

    def test_svg_flag_places_the_chart(self, tree, tmp_path):
        argv = ["sweep-threshold", "--data", str(tree), "--t-list", "0.35,0.47", "--scenes", "4"]
        assert main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        chart = tmp_path / "charts" / "b.svg"
        chart.parent.mkdir()
        assert main([*argv, "--out", str(tmp_path / "b.csv"), "--svg", str(chart)]) == 0
        assert chart.read_bytes() == (tmp_path / "a.svg").read_bytes()
        assert not (tmp_path / "b.svg").exists()

    @pytest.mark.parametrize("flags", [["--out", "r.svg"], ["--out", "r.csv", "--svg", "{tmp}/./r.csv"],
                                       pytest.param(["--out", "r.csv", "--svg", "r.csv.report.json"],
                                                    id="over-the-run-report")])
    def test_chart_over_the_csv_exits_4_and_writes_nothing(self, flags, tree, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        flags = [f.format(tmp=tmp_path) for f in flags]
        argv = ["sweep-threshold", "--data", str(tree), "--t-list", "0.35,0.47", "--scenes", "4", *flags]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage error: the chart ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--out", "r.csv", "--svg", "nodir/r.svg"], ["--out", "nodir/r.csv"]],
                             ids=["chart", "csv"])
    def test_path_in_a_missing_directory_exits_2_before_the_sweep(self, flags, tree, tmp_path, monkeypatch,
                                                                   capsys):
        def no_scenes(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("egohand.experiments.make_eval_scenes", no_scenes)
        argv = ["sweep-threshold", "--data", str(tree), "--t-list", "0.35,0.47", "--scenes", "4", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "no directory nodir" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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

    def test_intrinsics_flag_overrides_the_file(self, tree, tmp_path):
        src = tmp_path / "p25.ndjson"
        self._make_25d(tree, src)
        out = tmp_path / "p3.ndjson"
        assert main(["lift", "--in", str(src), "--out", str(out), "--intrinsics", "400,450,250,260"]) == 0
        k = CameraIntrinsics(400.0, 450.0, 250.0, 260.0)
        _, _, frames25 = load_pose_file(src)
        got_k, _, frames3 = load_pose_file(out)
        assert got_k == k
        for fr25, fr3 in zip(frames25, frames3, strict=True):
            for pose25, pose3 in ((fr25.left, fr3.left), (fr25.right, fr3.right)):
                if pose25.present:
                    assert np.array_equal(pose3.joints[:, :2], lift_to_camera(pose25, k).joints[:, :2])

    def test_intrinsics_flag_needs_four_values(self, tree, tmp_path):
        src = tmp_path / "p25.ndjson"
        self._make_25d(tree, src)
        out = tmp_path / "p3.ndjson"
        assert main(["lift", "--in", str(src), "--out", str(out), "--intrinsics", "400,450,250"]) == 4
        assert not out.exists()

    def test_infinite_focal_flag_exits_3_and_writes_nothing(self, tree, tmp_path):
        src = tmp_path / "p25.ndjson"
        self._make_25d(tree, src)
        out = tmp_path / "p3.ndjson"
        proc = subprocess.run(
            [sys.executable, "-m", "egohand", "lift", "--in", str(src), "--out", str(out),
             "--intrinsics", "inf,500,256,256"], capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.count("\n") == 1 and "finite and positive" in proc.stderr
        assert not out.exists()

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
    """The encoded files against the dataset's sequences prepared directly."""

    @pytest.fixture(scope="class")
    def prepared(self, tree):
        return [(seq, subsample_or_pad(encode_frames(seq)), min(len(seq.frames), SEQ_LEN))
                for seq in load_dataset(tree).sequences]

    def test_encoded_shapes_and_manifest_count(self, tree, tmp_path, prepared):
        out = tmp_path / "enc.ndjson"
        assert main(["encode", "--in", str(tree), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == len(prepared) == 30  # 6 classes x 5 sequences
        for rec, (seq, frames, valid) in zip(records, prepared):
            assert (rec["sequence_id"], rec["split"], rec["action_label"], rec["valid_count"]) == (
                seq.sequence_id, seq.split, seq.action_label, valid
            )
            assert np.array(rec["frames"]).shape == (20, 135)
            assert np.array_equal(np.array(rec["frames"]), frames)

    def test_csv_dir_export(self, tree, tmp_path, prepared):
        out = tmp_path / "enc.ndjson"
        csv_dir = tmp_path / "mats"
        assert main(["encode", "--in", str(tree), "--out", str(out), "--csv-dir", str(csv_dir)]) == 0
        assert len(list(csv_dir.glob("*.csv"))) == len(prepared) == 30
        for seq, frames, _ in prepared:
            text = (csv_dir / f"seq{seq.sequence_id:05d}.csv").read_text()
            assert np.array_equal(np.array([row.split(",") for row in text.splitlines()], dtype=float), frames)

    @pytest.mark.parametrize("under", [(), ("mats",)], ids=["at-a-file", "under-a-file"])
    def test_csv_dir_at_or_under_a_file_exits_2_and_writes_nothing(self, tree, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        csv_dir = taken.joinpath(*under)
        argv = ["encode", "--in", str(tree), "--out", str(tmp_path / "e.ndjson"), "--csv-dir", str(csv_dir)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"i/o error: --csv-dir {csv_dir}: {taken} is not a directory\n"
        assert taken.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [taken]


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
    def test_verbose_prints_one_line_per_epoch(self, tree, tmp_path, capsys):
        rc = main(
            ["train", "--data", str(tree), "--seed", "5", "--epochs", "2", "--set", "d_model=16",
             "--set", "heads=2", "--set", "ff_width=32", "--out", str(tmp_path / "o"), "--verbose"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [["epoch", "0"], ["epoch", "1"]]
        assert lines[-1].startswith("trained 2 epochs")

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

    def test_config_file_line_error_is_3(self, tree, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("d_model = 16\nnot a config line\n")
        rc = main(["train", "--data", str(tree), "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"format/config error: {bad}: line 2: expected 'key = value', got 'not a config line'\n"
        )

    def test_sibling_snapshot_line_error_names_the_snapshot(self, tree, trained, tmp_path, capsys):
        (tmp_path / "checkpoint.bin").write_bytes((trained / "checkpoint.bin").read_bytes())
        snapshot = tmp_path / "config.snapshot.cfg"
        snapshot.write_text("d_model = 16\nheads 2\n")
        rc = main(["eval-action", "--data", str(tree), "--checkpoint", str(tmp_path / "checkpoint.bin")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"format/config error: {snapshot}: line 2: expected 'key = value', got 'heads 2'\n"
        )

    @pytest.mark.parametrize("blocks, message", [
        ("3", "missing parameter 'block2.ln1.g'"),
        ("1", "unexpected parameters ['block1."),
    ], ids=["deeper", "shallower"])
    def test_checkpoint_of_another_depth_exits_3(self, tree, trained, capsys, blocks, message):
        argv = ["eval-action", "--data", str(tree), "--checkpoint", str(trained / "checkpoint.bin"),
                "--set", f"blocks={blocks}"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"format/config error: {message}") and err.count("\n") == 1

    def test_diverging_train_exits_3_and_leaves_no_out(self, tree, tmp_path, capsys):
        # the first step's huge learning rate makes the validation logits non-finite
        argv = ["train", "--data", str(tree), "--epochs", "1", "--set", "d_model=16", "--set", "heads=2",
                "--set", "base_lr=1e200", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "format/config error: non-finite logits: the weights have diverged\n"
        assert not (tmp_path / "o").exists()

    def test_config_is_validated_after_its_overrides(self, tree, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("heads = 3\nd_model = 16\n")
        argv = ["train", "--data", str(tree), "--config", str(cfg), "--epochs", "1", "--set", "batch_size=16"]
        assert main([*argv, "--out", str(tmp_path / "alone")]) == 3
        assert capsys.readouterr().err == "format/config error: d_model 16 not divisible by heads 3\n"
        assert main([*argv, "--set", "d_model=24", "--out", str(tmp_path / "o")]) == 0
        snap = (tmp_path / "o" / "config.snapshot.cfg").read_text().splitlines()
        assert "heads = 3" in snap and "d_model = 24" in snap and "max_epochs = 1" in snap

    def test_seed_and_epochs_flags_follow_the_overrides(self, tree, tmp_path):
        argv = ["train", "--data", str(tree), "--set", "d_model=16", "--set", "heads=2", "--set", "max_epochs=5",
                "--set", "seed=9", "--seed", "2", "--epochs", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        snap = (tmp_path / "o" / "config.snapshot.cfg").read_text().splitlines()
        assert "seed = 2" in snap and "max_epochs = 1" in snap

    def test_eval_action_takes_no_seed(self, tree, trained):
        argv = ["eval-action", "--data", str(tree), "--checkpoint", str(trained / "checkpoint.bin"), "--seed", "1"]
        assert main(argv) == 4

    @pytest.mark.parametrize("under", [(), ("run",), ("run", "deeper")])
    def test_out_at_or_under_a_file_exits_2_before_training(self, tree, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        out = taken.joinpath(*under)
        argv = ["train", "--data", str(tree), "--epochs", "1", "--out", str(out), "--verbose"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no epoch ran
        assert captured.err == f"i/o error: --out {out}: {taken} is not a directory\n"
        assert taken.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [taken]


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

    @pytest.mark.parametrize("text, message", [
        ("x,y\n\n1,2\nbad,3\n", "line 4: could not convert string to float: 'bad'"),
        ("x,y\n\n\n1,2\n1,2,3\n", "line 5 has 3 fields, header has 2"),
        ("x,y\n0,1\x0c\nbad,3\n", "line 3: could not convert string to float: 'bad'"),
        ("x,y\n0,1\x1c2,3\n", "line 2 has 3 fields, header has 2"),
    ], ids=["bad-value", "ragged-row", "form-feed-ends-no-line", "separator-ends-no-line"])
    def test_error_names_the_line_of_the_file_past_blank_lines(self, tmp_path, capsys, text, message):
        csv = tmp_path / "b.csv"
        csv.write_text(text)
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "b.svg")]) == 3
        assert capsys.readouterr().err == f"format/config error: {csv}: {message}\n"

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_is_3(self, tmp_path, capsys, cell):
        csv = tmp_path / "n.csv"
        csv.write_text(f"x,y\n0.0,1.0\n1.0,{cell}\n2.0,3.0\n")
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "n.svg")]) == 3
        err = capsys.readouterr().err
        assert f"{csv}: line 3" in err and err.count("\n") == 1
        assert not (tmp_path / "n.svg").exists()

    @pytest.mark.parametrize("rows, axis", [
        ("1e17,1", "x"),  # widening by 1.0 leaves a one-point x range empty
        ("0,1e17\n1,1e17", "y"),
        ("0,1e308\n1,-1e308", "y"),  # the padded y range overflows
        ("-1e308,0\n1e308,1", "x"),
    ], ids=["one-x-1e17", "constant-y-1e17", "y-overflow", "x-overflow"])
    def test_unplottable_range_is_3(self, tmp_path, capsys, rows, axis):
        csv = tmp_path / "r.csv"
        csv.write_text(f"x,y\n{rows}\n")
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "r.svg")]) == 3
        err = capsys.readouterr().err
        assert f"cannot plot the {axis} range" in err and err.count("\n") == 1
        assert not (tmp_path / "r.svg").exists()

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


# the per-stage seconds a command's report holds, in the report's key order
_STAGES = {"segment": ["apply", "desharpen", "load", "mask", "save"], "sweep-threshold": ["scenes", "sweep", "write"],
           "eval-action": ["load", "predict", "prepare"]}


@pytest.mark.parametrize(
    "command, run",
    [("synth", _report_synth), ("segment", _report_segment), ("sweep-threshold", _report_sweep),
     ("eval-pose", _report_eval_pose), ("train", _report_train), ("eval-action", _report_eval_action)],
)
def test_run_report_contents(command, run, tree, trained, tmp_path):
    path, seed, config_keys, metric_keys = run(tree, trained, tmp_path)
    doc = json.loads(path.read_text())
    timed = {"stage_s"} if command in _STAGES else set()
    per_epoch = {"epoch_s", "seqs_per_s", "epoch_minor_faults"} if command == "train" else set()
    assert set(doc) == {"command", "config", "seed", "metrics", "wall_time_s"} | timed | per_epoch
    assert doc["command"] == command
    assert doc["seed"] == seed
    assert set(doc["config"]) == config_keys
    assert set(doc["metrics"]) == metric_keys
    assert isinstance(doc["wall_time_s"], float) and doc["wall_time_s"] >= 0.0
    if timed:
        stage_s = doc["stage_s"]
        assert list(stage_s) == _STAGES[command]
        assert all(isinstance(v, float) and v >= 0.0 for v in stage_s.values())
        if command == "segment":
            assert stage_s["desharpen"] == 0.0 and stage_s["apply"] > 0.0  # a --t run blurs nothing
        else:
            assert all(v > 0.0 for v in stage_s.values())
        assert sum(stage_s.values()) <= doc["wall_time_s"]
    if per_epoch:
        # one entry per epoch run: finite positive timings and a non-negative fault count
        for key in per_epoch:
            assert len(doc[key]) == doc["metrics"]["epochs_run"]
        for key in ("epoch_s", "seqs_per_s"):
            assert all(isinstance(v, float) and math.isfinite(v) and v > 0.0 for v in doc[key])
        assert all(type(v) is int and v >= 0 for v in doc["epoch_minor_faults"])
        assert sum(doc["epoch_s"]) <= doc["wall_time_s"]
        history = (trained / "history.csv").read_text()
        assert history.splitlines()[0] == ",".join(HISTORY_HEADER) and "fault" not in history


def test_commands_without_a_report(tree, trained, tmp_path):
    src = tmp_path / "p25.ndjson"
    pose = HandPose(np.full((21, 3), 500.0))
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


# (command, exit code, argv, case id) of a run with an output that cannot be
# written (exit 2) or that lies on one of the run's inputs or outputs (exit 4);
# {d} is a copy of the fixture tree, {run} one of a trained run, {taken} a file
_OUTPUT_CASES = [
    ("synth", 2, "synth --classes 2 --per-class 1 --out {taken}/t", "out-under-a-file"),
    ("segment", 2, "segment --depth {d}/scenes --frames {d}/scenes --t 0.5 --out {taken}/o", "out-under-a-file"),
    ("sweep-threshold", 2, "sweep-threshold --data {d} --t-list 0.47 --out {tmp}/nodir/r.csv", "out-in-no-dir"),
    ("sweep-threshold", 4, "sweep-threshold --data {d} --t-list 0.47 --out {d}/params.json", "out-on-params"),
    ("lift", 2, "lift --in {d}/poses.ndjson --out {tmp}/nodir/p.ndjson", "out-in-no-dir"),
    ("lift", 4, "lift --in {d}/poses.ndjson --out {d}/poses.ndjson", "out-on-in"),
    ("eval-pose", 2, "eval-pose --pred {d}/poses.ndjson --gt {d}/poses.ndjson --out {tmp}/nodir/m.csv",
     "out-in-no-dir"),
    ("eval-pose", 4, "eval-pose --pred {run}/p.ndjson --gt {d}/poses.ndjson --out {d}/poses.ndjson", "out-on-gt"),
    ("encode", 2, "encode --in {d} --out {tmp}/nodir/e.ndjson", "out-in-no-dir"),
    ("encode", 2, "encode --in {d} --out {tmp}/e.ndjson --csv-dir {taken}", "csv-dir-on-a-file"),
    ("encode", 4, "encode --in {d} --out {d}/poses.ndjson", "out-on-poses"),
    ("encode", 4, "encode --in {d} --out {tmp}/e.ndjson --csv-dir {tmp}/e.ndjson", "csv-dir-on-out"),
    ("train", 2, "train --data {d} --epochs 1 --out {taken}/o", "out-under-a-file"),
    ("train", 4, "train --data {d} --epochs 1 --config {run}/report.json --out {run}", "report-on-config"),
    ("eval-action", 2, "eval-action --data {d} --checkpoint {run}/checkpoint.bin --out {tmp}/nodir/c.csv",
     "out-in-no-dir"),
    ("eval-action", 2, "eval-action --data {d} --checkpoint {run}/checkpoint.bin --out {run}", "out-on-a-dir"),
    ("eval-action", 4, "eval-action --data {d} --checkpoint {run}/checkpoint.bin --out {run}/checkpoint.bin",
     "out-on-checkpoint"),
    ("eval-action", 4,
     "eval-action --data {d} --checkpoint {run}/checkpoint.bin --out {run}/config.snapshot.cfg",
     "out-on-snapshot"),
    ("eval-action", 4, "eval-action --data {d} --checkpoint {run}/checkpoint.bin --out {d}/manifest.csv",
     "out-on-manifest"),
    ("plot", 2, "plot --csv {run}/history.csv --out {tmp}/nodir/h.svg", "out-in-no-dir"),
    ("plot", 4, "plot --csv {run}/history.csv --out {run}/history.csv", "out-on-csv"),
    ("plot", 4, "plot --csv {run}/history.csv --out {tmp}/./run/../run/history.csv", "out-on-csv-by-another-path"),
]


def _digests(root):
    """sha256 of every file under ``root``, by its path relative to ``root``."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command, code, argv",
                         [pytest.param(*case[:3], id=f"{case[0]}-{case[3]}") for case in _OUTPUT_CASES])
def test_an_output_that_cannot_be_written_or_would_overwrite_an_input_stops_the_run_before_any_work(
        command, code, argv, tree, trained, tmp_path, monkeypatch, capsys):
    shutil.copytree(tree, tmp_path / "d")
    shutil.copytree(trained, tmp_path / "run")
    save_pose_file(tmp_path / "run" / "p.ndjson", *load_pose_file(tree / "poses.ndjson"))
    (tmp_path / "taken").write_text("keep me\n")
    before = sorted(tmp_path.rglob("*")), _digests(tmp_path)

    def no_work(args):
        raise AssertionError(f"{command} ran")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), no_work)
    paths = {"d": tmp_path / "d", "run": tmp_path / "run", "taken": tmp_path / "taken", "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith({2: "i/o error: ", 4: "usage error: "}[code])
    assert (sorted(tmp_path.rglob("*")), _digests(tmp_path)) == before


def _absent25():
    from egohand.geometry import JOINT_COUNT

    j = np.zeros((JOINT_COUNT, 3))
    j[:, 2] = 1.0  # placeholder depth for absent hands in 2.5d files
    return HandPose(j, present=False)


def _readme_cli_commands():
    """The argv of each ``egohand`` line in README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("egohand ")]


def test_readme_cli_lines_parse():
    commands = _readme_cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_console_entry_point_works():
    proc = subprocess.run(
        [sys.executable, "-m", "egohand", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "sweep-threshold" in proc.stdout
