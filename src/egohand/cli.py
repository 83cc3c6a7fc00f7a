"""Command-line surface for the pipeline stages and experiment sweeps.

Exit codes: 0 success, 2 missing/unreadable files, 3 config or format
errors, 4 usage errors, 5 data consistency errors. Code 3 covers
out-of-range thresholds, all-zero depth maps (FlatMapError), joints with
z <= 0 (DegenerateDepthError), truncated checkpoints (FormatError) and
training that diverges to non-finite values (NumericFaultError). Every
error ends with a one-line message on stderr. Every command takes all
randomness from --seed; identical flags and seed produce byte-identical
CSV/SVG/checkpoint/dmap outputs (the report.json wall-time field is the
one exception).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time

import numpy as np

from . import experiments, model, reports, synth
from .errors import (
    DataConsistencyError,
    DatasetFormatError,
    EgohandError,
    EmptyActionError,
    EmptyDatasetError,
    FormatError,
)
from .geometry import CameraIntrinsics, lift_to_camera, mpjpe_report
from .rangeseg import (
    apply_mask,
    desharpen_mask,
    load_depth,
    load_ppm,
    mask_stats,
    normalize_depth,
    range_mask,
    range_mask_metric,
    save_mask,
    save_ppm,
)
from .sequence import (
    GROUP_SLICES,
    MASK_GROUPS,
    ActionSequence,
    FrameRecord,
    encode_frames,
    export_csv_matrices,
    load_dataset,
    load_pose_file,
    save_encoded,
    save_pose_file,
    subsample_or_pad,
)

CONFIG_ENV = "EGOHAND_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _intrinsics_flag(text: str) -> CameraIntrinsics:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--intrinsics needs fx,fy,cx,cy, got {text!r}")
    try:
        return CameraIntrinsics(*(float(x) for x in parts))
    except ValueError as e:
        raise UsageError(f"bad --intrinsics value: {e}") from e


def _fill_flag(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(p.isdecimal() and int(p) <= 255 for p in parts):
        raise UsageError(f"--fill needs r,g,b integers in 0..255, got {text!r}")
    return tuple(int(p) for p in parts)


def _float_list(text: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise UsageError("empty value list")
    try:
        return [float(s) for s in items]
    except ValueError as e:
        raise UsageError(f"bad float list {text!r}: {e}") from e


def _load_tree_meta(data_dir: str) -> tuple[int, synth.SynthParams]:
    path = os.path.join(data_dir, "params.json")
    with open(path) as f:
        try:
            meta = json.load(f)
            if not (isinstance(meta, dict) and type(meta.get("master_seed")) is int
                    and isinstance(meta.get("params"), dict)):
                raise DatasetFormatError("expected an integer 'master_seed' and a 'params' object")
            return meta["master_seed"], synth.SynthParams.from_dict(meta["params"])
        except (ValueError, EgohandError) as e:
            raise DatasetFormatError(f"{path}: {e}") from e


def _resolve_config(args) -> model.ActionModelConfig:
    cfg = model.ActionModelConfig()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        cfg = model.load_config(path)
    if getattr(args, "set", None):
        cfg = model.apply_overrides(cfg, args.set)
    if getattr(args, "seed", None) is not None:
        cfg = model.apply_overrides(cfg, [f"seed={args.seed}"])
    if getattr(args, "epochs", None) is not None:
        cfg = model.apply_overrides(cfg, [f"max_epochs={args.epochs}"])
    return cfg


# --- commands ------------------------------------------------------------------
# Each command returns its run record, (report path, config, seed, metrics),
# which main writes as JSON, or None when the run leaves no report.


def cmd_synth(args) -> tuple:
    params = synth.SynthParams()
    os.makedirs(args.out, exist_ok=True)
    synth.write_fixture_tree(
        args.out, params, args.classes, args.per_class, args.seed, scene_frames=args.scene_frames
    )
    n = args.classes * args.per_class
    print(f"wrote {n} sequences to {args.out}")
    config = {"classes": args.classes, "per_class": args.per_class, "scene_frames": args.scene_frames,
              "params": params.to_dict()}
    return os.path.join(args.out, "report.json"), config, args.seed, {"sequences": n}


def _depth_files(path: str, metric: bool) -> list[tuple[str, str]]:
    """(stem, path) of each map: the file, or a directory's ``<stem>.dmap``
    files; with ``metric``, its ``<stem>.mm.dmap`` files when it holds any."""
    if os.path.isfile(path):
        return [(os.path.basename(path)[: -len(".dmap")], path)]
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no such file or directory: {path}")
    entries = os.listdir(path)
    for suffix in (".mm.dmap", ".dmap") if metric else (".dmap",):
        names = sorted(n for n in entries if n.endswith(suffix) and n.count(".") == suffix.count("."))
        if names:
            return [(n[: -len(suffix)], os.path.join(path, n)) for n in names]
    raise FileNotFoundError(f"no .dmap files under {path}")


def cmd_segment(args) -> tuple:
    if args.t is None and args.metric_mm is None:
        raise UsageError("one of --t or --metric-mm is required")
    os.makedirs(args.out, exist_ok=True)
    stats_rows = []
    for stem, depth_path in _depth_files(args.depth, args.metric_mm is not None):
        frame_path = os.path.join(args.frames, stem + ".ppm")
        if not os.path.isfile(frame_path):
            raise FileNotFoundError(f"missing frame for {stem!r}: {frame_path}")
        dm = load_depth(depth_path)
        if args.metric_mm is not None:
            mask = range_mask_metric(dm, args.metric_mm)
        else:
            norm = dm if dm.normalized else normalize_depth(dm)
            mask = range_mask(norm, args.t)
        if args.desharpen is not None:
            mask = desharpen_mask(mask, args.desharpen)
        frame = load_ppm(frame_path)
        seg = apply_mask(frame, mask, args.fill)
        save_ppm(os.path.join(args.out, stem + ".seg.ppm"), seg)
        save_mask(os.path.join(args.out, stem + ".mask.dmap"), mask)
        kept_fraction, kept_pixels = mask_stats(mask)
        stats_rows.append((stem, kept_fraction, kept_pixels))
    header = ["frame", "kept_fraction", "kept_pixels"]
    reports.write_csv(os.path.join(args.out, "mask_stats.csv"), header, stats_rows)
    print(f"segmented {len(stats_rows)} frames -> {args.out}")
    config = {"t": args.t, "metric_mm": args.metric_mm, "desharpen": args.desharpen, "fill": list(args.fill)}
    metrics = {"frames": len(stats_rows),
               "mean_kept_fraction": float(np.mean([r[1] for r in stats_rows]))}
    return os.path.join(args.out, "report.json"), config, None, metrics


def cmd_sweep_threshold(args) -> tuple:
    t_list = _float_list(args.t_list)
    master_seed, params = _load_tree_meta(args.data)
    scenes = experiments.make_eval_scenes(params, master_seed, args.scenes)
    rows = experiments.sweep_threshold(params, t_list, args.mode, args.seed, scenes)
    reports.write_csv(args.out, ["t", "mpjpe_left", "mpjpe_right", "mpjpe_both"], rows)
    svg_path = args.svg or (os.path.splitext(args.out)[0] + ".svg")
    reports.svg_line_chart(
        svg_path,
        [r[0] for r in rows],
        {"left": [r[1] for r in rows], "right": [r[2] for r in rows], "both": [r[3] for r in rows]},
        "segmentation threshold t",
        "MPJPE (mm)",
        f"{args.mode}-mode threshold sweep",
    )
    best = min(rows, key=lambda r: r[3])
    print(f"sweep ({args.mode}): best t = {best[0]:g} with MPJPE both = {best[3]:.3f} mm")
    config = {"t_list": t_list, "mode": args.mode, "scenes": args.scenes,
              "data": os.path.abspath(args.data), "params": params.to_dict()}
    return args.out + ".report.json", config, args.seed, {"rows": [list(r) for r in rows]}


def cmd_lift(args) -> None:
    from .geometry import absent_pose3d

    k, space, frames = load_pose_file(args.infile)
    if space != "2.5d":
        raise FormatError(f"lift expects a 2.5d pose file, got space {space!r}")
    if args.intrinsics is not None:
        k = args.intrinsics
    # absent hands carry placeholder coordinates; they stay absent zeros
    lift = lambda pose: lift_to_camera(pose, k) if pose.present else absent_pose3d()
    lifted = [
        FrameRecord(fr.frame_id, lift(fr.left), lift(fr.right), fr.obj, fr.split)
        for fr in frames
    ]
    save_pose_file(args.out, k, "3d", lifted)
    print(f"lifted {len(lifted)} frames -> {args.out}")


def cmd_eval_pose(args) -> tuple | None:
    _, pspace, pred = load_pose_file(args.pred)
    _, gspace, gt = load_pose_file(args.gt)
    if pspace != "3d" or gspace != "3d":
        raise FormatError(f"eval-pose expects 3d pose files, got {pspace!r} and {gspace!r}")
    pred_ids = [fr.frame_id for fr in pred]
    gt_ids = [fr.frame_id for fr in gt]
    if pred_ids != gt_ids:
        pairs = itertools.zip_longest(pred_ids, gt_ids)
        offender = next(a if a is not None else b for a, b in pairs if a != b)
        raise DataConsistencyError(f"frame-id mismatch between pred and gt, first offender: {offender}")
    left, right, both = mpjpe_report(
        [(fr.left, fr.right) for fr in pred], [(fr.left, fr.right) for fr in gt]
    )
    print(f"MPJPE left = {left:.4f} mm, right = {right:.4f} mm, both = {both:.4f} mm")
    if args.out:
        reports.write_csv(args.out, ["mpjpe_left", "mpjpe_right", "mpjpe_both"], [(left, right, both)])
        config = {"pred": os.path.abspath(args.pred), "gt": os.path.abspath(args.gt)}
        metrics = {"mpjpe_left": left, "mpjpe_right": right, "mpjpe_both": both}
        return args.out + ".report.json", config, None, metrics


def cmd_encode(args) -> None:
    dataset = load_dataset(args.indir)
    if dataset.space != "3d":
        raise FormatError(f"encode expects a 3d dataset, got space {dataset.space!r}")
    sequences, ids, splits = [], [], []
    for seq in dataset.sequences:
        raw = encode_frames(seq)
        frames, valid = subsample_or_pad(raw)
        sequences.append(ActionSequence(frames, valid, seq.action_label))
        ids.append(seq.sequence_id)
        splits.append(seq.split)
    save_encoded(args.out, sequences, ids=ids, splits=splits)
    if args.csv_dir:
        export_csv_matrices(args.csv_dir, sequences, ids=ids)
    print(f"encoded {len(sequences)} sequences -> {args.out}")


def _raw_sets(data_dir: str):
    dataset = load_dataset(data_dir)
    if dataset.space != "3d":
        raise FormatError(f"training data must be 3d, got space {dataset.space!r}")
    sets = {"train": [], "val": [], "test": []}
    for seq in dataset.sequences:
        sets[seq.split].append((encode_frames(seq), seq.action_label))
    return sets


def cmd_train(args) -> tuple:
    cfg = _resolve_config(args)
    sets = _raw_sets(args.data)
    os.makedirs(args.out, exist_ok=True)

    log = None
    if args.verbose:
        log = lambda row: print(
            f"epoch {row[0]:4d}  loss {row[1]:.4f}  train acc {row[2]:.4f}  "
            f"val acc {row[3]:.4f}  lr {row[4]:g}",
            flush=True,
        )
    result = model.train(sets["train"], sets["val"], cfg, log=log)
    model.save_model(os.path.join(args.out, "checkpoint.bin"), result.best)
    model.save_model(os.path.join(args.out, "last.bin"), result.model.params)
    reports.write_csv(
        os.path.join(args.out, "history.csv"),
        ["epoch", "train_loss", "train_acc", "val_acc", "lr"],
        result.history.rows,
    )
    with open(os.path.join(args.out, "config.snapshot.cfg"), "w") as f:
        f.write(model.config_to_text(cfg))
    print(
        f"trained {len(result.history.rows)} epochs; best val acc "
        f"{result.history.best_val_acc:.4f} at epoch {result.history.best_epoch}"
    )
    metrics = {
        "best_epoch": result.history.best_epoch,
        "best_val_acc": result.history.best_val_acc,
        "epochs_run": len(result.history.rows),
    }
    return os.path.join(args.out, "report.json"), dataclasses.asdict(cfg), cfg.seed, metrics


def cmd_eval_action(args) -> tuple | None:
    if args.config is None:
        sibling = os.path.join(os.path.dirname(args.checkpoint), "config.snapshot.cfg")
        if os.path.isfile(sibling):
            args.config = sibling
    cfg = _resolve_config(args)
    net = model.load_model(args.checkpoint, cfg)
    sets = _raw_sets(args.data)
    if not sets[args.split]:
        raise EmptyDatasetError(f"split {args.split!r} is empty")
    x, y = model.prepare_eval_set(sets[args.split], cfg)
    if args.mask_group:
        x = x.copy()
        x[:, :, GROUP_SLICES[args.mask_group]] = 0.0
    top1, confusion = model.evaluate(net, x, y)
    print(f"top-1 accuracy on {args.split}: {top1:.4f} ({len(y)} sequences)")
    if args.out:
        reports.write_csv(
            args.out,
            [f"pred_{i}" for i in range(cfg.n_classes)],
            [tuple(int(v) for v in row) for row in confusion],
        )
        metrics = {"split": args.split, "top1": top1, "mask_group": args.mask_group}
        return args.out + ".report.json", dataclasses.asdict(cfg), cfg.seed, metrics


def cmd_plot(args) -> None:
    header, rows = reports.read_csv(args.csv)
    if not rows:
        raise FormatError(f"{args.csv}: no data rows to plot")
    xs = [r[0] for r in rows]
    series = {name: [r[i] for r in rows] for i, name in enumerate(header) if i > 0}
    if not series:
        raise FormatError(f"{args.csv}: need at least one y column")
    reports.svg_line_chart(args.out, xs, series, header[0], "value", os.path.basename(args.csv))
    print(f"plotted {len(series)} series -> {args.out}")


# --- parser / dispatch -----------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="egohand", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate the synthetic fixture tree")
    s.add_argument("--classes", type=int, default=36)
    s.add_argument("--per-class", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--scene-frames", type=int, default=4)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("segment", help="range-segment frames by depth threshold")
    s.add_argument("--depth", required=True, help=".dmap file or directory")
    s.add_argument("--frames", required=True, help="directory of .ppm frames")
    s.add_argument("--t", type=float, default=None)
    s.add_argument("--metric-mm", type=float, default=None)
    s.add_argument("--desharpen", type=int, default=None)
    s.add_argument("--fill", type=_fill_flag, default=(0, 0, 0), help="r,g,b fill, each 0..255")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_segment)

    s = sub.add_parser("sweep-threshold", help="MPJPE vs threshold sweep")
    s.add_argument("--data", required=True, help="synth fixture tree")
    s.add_argument("--t-list", required=True)
    s.add_argument("--mode", choices=("train", "infer"), default="train")
    s.add_argument("--scenes", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="report CSV path")
    s.add_argument("--svg", default=None)
    s.set_defaults(func=cmd_sweep_threshold)

    s = sub.add_parser("lift", help="lift a 2.5d pose file to camera space")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--intrinsics", type=_intrinsics_flag, default=None, help="fx,fy,cx,cy")
    s.set_defaults(func=cmd_lift)

    s = sub.add_parser("eval-pose", help="MPJPE report between two 3d pose files")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--out", default=None, help="optional CSV output")
    s.set_defaults(func=cmd_eval_pose)

    s = sub.add_parser("encode", help="encode a dataset to prepared 20x135 sequences")
    s.add_argument("--in", dest="indir", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--csv-dir", default=None)
    s.set_defaults(func=cmd_encode)

    s = sub.add_parser("train", help="train the action classifier")
    s.add_argument("--data", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--set", action="append", default=[], help="config override key=value")
    s.add_argument("--out", required=True)
    s.add_argument("--verbose", action="store_true")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval-action", help="top-1 accuracy and confusion matrix")
    s.add_argument("--data", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--split", choices=("train", "val", "test"), default="test")
    s.add_argument("--mask-group", choices=MASK_GROUPS, default=None)
    s.add_argument("--set", action="append", default=[])
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None, help="confusion CSV path")
    s.set_defaults(func=cmd_eval_action)

    s = sub.add_parser("plot", help="render a CSV as a deterministic SVG line chart")
    s.add_argument("--csv", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_plot)

    return p


# exit code of each error class; an error takes the entry of the first class
# in its MRO, so subclasses not named here share their base class's code
_EXIT_CODES = {
    UsageError: 4,
    OSError: 2,
    EgohandError: 3,
    ValueError: 3,
    KeyError: 3,
    DataConsistencyError: 5,
    EmptyDatasetError: 5,
    EmptyActionError: 5,
}
_EXIT_LABELS = {2: "i/o error", 3: "format/config error", 4: "usage error", 5: "data consistency error"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        record = args.func(args)
        if record is not None:
            # the run report: everything but the wall time re-derives the run
            path, config, seed, metrics = record
            doc = {"command": args.command, "config": config, "seed": seed, "metrics": metrics,
                   "wall_time_s": time.perf_counter() - t0}
            with open(path, "w") as f:
                f.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    except tuple(_EXIT_CODES) as e:
        code = next(_EXIT_CODES[cls] for cls in type(e).__mro__ if cls in _EXIT_CODES)
        print(f"{_EXIT_LABELS[code]}: {e}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
