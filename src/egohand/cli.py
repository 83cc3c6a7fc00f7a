"""Command-line surface for the pipeline stages and experiment sweeps.

Exit codes: 0 success, 2 missing/unreadable files, 3 config or format
errors, 4 usage errors, 5 data consistency errors. Code 3 covers
out-of-range thresholds and negative seeds, all-zero depth maps (FlatMapError),
joints with z <= 0 (DegenerateDepthError), truncated checkpoints (FormatError),
training that diverges to non-finite values (NumericFaultError) and sizes the
machine cannot allocate (MemoryError). Every error ends with a one-line message
on stderr; a reader's error leads with the file it read. Every random draw
comes from a command's --seed; identical flags and seed produce byte-identical
CSV/SVG/checkpoint/dmap outputs (the report.json timing fields are the one
exception).

One rule, checked before any work, covers every path a run writes: --out,
--svg (or the chart beside the sweep CSV), --csv-dir and the run report
(``<out>/report.json`` beside a directory --out, ``<out>.report.json`` beside a
file). A directory output, or its first existing parent, must be a directory,
and a file output's directory must exist (else exit 2). No output may be a file
the run reads (an input flag's file, a dataset directory's files, the config
beside --checkpoint) or another output of the run (else exit 4).

train and eval-action read the model config from one ordered list of
``key = value`` lines: the --config file's (for eval-action without --config,
the checkpoint's sibling config.snapshot.cfg), each --set in order, then
train's --seed and --epochs. A later line naming a key wins, and the config is
validated once, after the last line. train creates --out only after training
succeeds, so a run that fails in setup or training leaves none.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import resource
import sys
import time

import numpy as np

from . import experiments, model, nnkit, reports, sequence, synth
from .errors import (
    ConfigError,
    DataConsistencyError,
    EgohandError,
    EmptyActionError,
    EmptyDatasetError,
    FormatError,
    names_file,
)
from .geometry import CameraIntrinsics, absent_pose, lift_to_camera, mpjpe_report
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
    N_CLASSES,
    SEQ_LEN,
    SPLITS,
    FrameRecord,
    encode_frames,
    export_csv_matrices,
    load_dataset,
    load_pose_file,
    save_encoded,
    save_pose_file,
    subsample_or_pad,
)

SNAPSHOT_FILE = "config.snapshot.cfg"  # train's config beside its checkpoints; eval-action's default config
# the flag of each input, by dest; a dataset directory's inputs are its files
_INPUT_FLAGS = {"infile": "--in", "indir": "--in", "data": "--data", "pred": "--pred", "gt": "--gt",
                "csv": "--csv", "checkpoint": "--checkpoint", "config": "--config"}


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


@names_file
def _config_lines(path) -> list:
    """(line number, text) of each line of a config file."""
    with open(path) as f:
        return list(enumerate(f.read().splitlines(), start=1))


def _resolve_config(path, overrides, **flags) -> model.ActionModelConfig:
    """The model config of one ordered list of ``key = value`` lines: the
    config file's at ``path`` (numbered), each ``--set``, then each flag given.
    An error at a numbered line names the file."""
    lines = _config_lines(path) if path else []
    lines += [(None, pair) for pair in overrides]
    lines += [(None, f"{key} = {value}") for key, value in flags.items() if value is not None]
    try:
        return model.config_from_lines(lines)
    except ConfigError as e:
        if e.line is None:
            raise
        raise ConfigError(f"{path}: {e}") from e


# --- commands ------------------------------------------------------------------
# A command whose subparser declares a report returns its run record, (config,
# seed, metrics, timings), which main writes as JSON beside --out. ``timings``
# holds the timed fields that go beside wall_time_s.


def cmd_synth(args) -> tuple:
    params = synth.SynthParams()
    synth.write_fixture_tree(
        args.out, params, args.classes, args.per_class, args.seed, scene_frames=args.scene_frames
    )
    n = args.classes * args.per_class
    print(f"wrote {n} sequences to {args.out}")
    config = {"classes": args.classes, "per_class": args.per_class, "scene_frames": args.scene_frames,
              "params": dataclasses.asdict(params)}
    return config, args.seed, {"sequences": n}, {}


def _depth_files(path: str, metric: bool) -> list[tuple[str, str]]:
    """(stem, path) of each map: the file, or a directory's ``<stem>.dmap``
    files; with ``metric``, its ``<stem>.mm.dmap`` files when it holds any.
    A stem is the file name up to its first dot."""
    stem = lambda name: name.split(".", 1)[0]
    if os.path.isfile(path):
        return [(stem(os.path.basename(path)), path)]
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no such file or directory: {path}")
    entries = os.listdir(path)
    for suffix in (".mm.dmap", ".dmap") if metric else (".dmap",):
        names = sorted(n for n in entries if stem(n) + suffix == n)
        if names:
            return [(stem(n), os.path.join(path, n)) for n in names]
    raise FileNotFoundError(f"no .dmap files under {path}")


def _stage_timer(stages):
    """(stage_s, timed): ``timed(stage, fn, *fn_args)`` calls ``fn`` and adds
    its seconds to ``stage_s[stage]``; each stage starts at 0.0."""
    stage_s = dict.fromkeys(stages, 0.0)

    def timed(stage, fn, *fn_args):
        t = time.perf_counter()
        result = fn(*fn_args)
        stage_s[stage] += time.perf_counter() - t
        return result

    return stage_s, timed


def cmd_segment(args) -> tuple:
    made_out = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)
    written = []  # every file this run opens for writing; a failed run removes them
    stats_rows = []
    stage_s, timed = _stage_timer(("load", "mask", "desharpen", "apply", "save"))

    def save(fn, name, *values):
        written.append(os.path.join(args.out, name))
        timed("save", fn, written[-1], *values)

    try:
        for stem, depth_path in _depth_files(args.depth, args.metric_mm is not None):
            frame_path = os.path.join(args.frames, stem + ".ppm")
            if not os.path.isfile(frame_path):
                raise FileNotFoundError(f"missing frame for {stem!r}: {frame_path}")
            dm = timed("load", load_depth, depth_path)
            if args.metric_mm is not None:
                mask = timed("mask", range_mask_metric, dm, args.metric_mm)
            else:
                norm = dm if dm.normalized else timed("mask", normalize_depth, dm)
                mask = timed("mask", range_mask, norm, args.t)
            if args.desharpen is not None:
                mask = timed("desharpen", desharpen_mask, mask, args.desharpen)
            frame = timed("load", load_ppm, frame_path)
            seg = timed("apply", apply_mask, frame, mask, args.fill)
            save(save_ppm, stem + ".seg.ppm", seg)
            save(save_mask, stem + ".mask.dmap", mask)
            kept_fraction, kept_pixels = mask_stats(mask)
            stats_rows.append((stem, kept_fraction, kept_pixels))
        save(reports.write_csv, "mask_stats.csv", [("frame", "kept_fraction", "kept_pixels"), *stats_rows])
    except BaseException:
        for path in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if made_out:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        raise
    print(f"segmented {len(stats_rows)} frames -> {args.out}")
    config = {"t": args.t, "metric_mm": args.metric_mm, "desharpen": args.desharpen, "fill": list(args.fill)}
    metrics = {"frames": len(stats_rows),
               "mean_kept_fraction": float(np.mean([r[1] for r in stats_rows]))}
    return config, None, metrics, {"stage_s": stage_s}


def cmd_sweep_threshold(args) -> tuple:
    t_list = _float_list(args.t_list)
    master_seed, params = synth.read_fixture_params(args.data)
    stage_s, timed = _stage_timer(("scenes", "sweep", "write"))
    scenes = timed("scenes", experiments.make_eval_scenes, params, master_seed, args.scenes)
    rows = timed("sweep", experiments.sweep_threshold, params, t_list, args.mode, args.seed, scenes)
    timed("write", reports.write_csv, args.out, [("t", "mpjpe_left", "mpjpe_right", "mpjpe_both"), *rows])
    timed(
        "write",
        reports.svg_line_chart,
        args.writes(args)["--svg"],
        [r[0] for r in rows],
        {"left": [r[1] for r in rows], "right": [r[2] for r in rows], "both": [r[3] for r in rows]},
        "segmentation threshold t",
        "MPJPE (mm)",
        f"{args.mode}-mode threshold sweep",
    )
    best = min(rows, key=lambda r: r[3])
    print(f"sweep ({args.mode}): best t = {best[0]:g} with MPJPE both = {best[3]:.3f} mm")
    config = {"t_list": t_list, "mode": args.mode, "scenes": args.scenes,
              "data": os.path.abspath(args.data), "params": dataclasses.asdict(params)}
    return config, args.seed, {"rows": [list(r) for r in rows]}, {"stage_s": stage_s}


def cmd_lift(args) -> None:
    k, space, frames = load_pose_file(args.infile)
    if space != "2.5d":
        raise FormatError(f"{args.infile}: lift expects a 2.5d pose file, got space {space!r}")
    if args.intrinsics is not None:
        k = args.intrinsics
    # absent hands carry placeholder coordinates; they stay absent zeros
    lift = lambda pose: lift_to_camera(pose, k) if pose.present else absent_pose()
    lifted = [
        FrameRecord(fr.frame_id, lift(fr.left), lift(fr.right), fr.obj, fr.split)
        for fr in frames
    ]
    save_pose_file(args.out, k, "3d", lifted)
    print(f"lifted {len(lifted)} frames -> {args.out}")


def cmd_eval_pose(args) -> tuple:
    _, pspace, pred = load_pose_file(args.pred)
    _, gspace, gt = load_pose_file(args.gt)
    for flag, path, space in (("--pred", args.pred, pspace), ("--gt", args.gt, gspace)):
        if space != "3d":
            raise FormatError(f"{path}: eval-pose expects 3d pose files, got space {space!r} for {flag}")
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
        reports.write_csv(args.out, [("mpjpe_left", "mpjpe_right", "mpjpe_both"), (left, right, both)])
    config = {"pred": os.path.abspath(args.pred), "gt": os.path.abspath(args.gt)}
    return config, None, {"mpjpe_left": left, "mpjpe_right": right, "mpjpe_both": both}, {}


def _load_3d_dataset(data_dir: str):
    dataset = load_dataset(data_dir)
    if dataset.space != "3d":
        raise FormatError(f"{data_dir}: expected a 3d dataset, got space {dataset.space!r}")
    return dataset


def cmd_encode(args) -> None:
    records = []
    for seq in _load_3d_dataset(args.indir).sequences:
        raw = encode_frames(seq)
        valid = min(len(raw), SEQ_LEN)
        records.append((seq.sequence_id, seq.split, seq.action_label, valid, subsample_or_pad(raw)))
    save_encoded(args.out, records)
    if args.csv_dir:
        export_csv_matrices(args.csv_dir, records)
    print(f"encoded {len(records)} sequences -> {args.out}")


def _raw_sets(data_dir: str):
    sets = {split: [] for split in SPLITS}
    for seq in _load_3d_dataset(data_dir).sequences:
        sets[seq.split].append((encode_frames(seq), seq.action_label))
    return sets


def cmd_train(args) -> tuple:
    cfg = _resolve_config(args.config, args.set, seed=args.seed, max_epochs=args.epochs)
    sets = _raw_sets(args.data)

    # per-epoch seconds, training sequences per second and minor page faults (memory
    # the kernel mapped in fresh); epoch 0 counts from the call
    epoch_s, seqs_per_s, epoch_minor_faults = [], [], []
    epoch_start = time.perf_counter()
    faults_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def log(row):
        nonlocal epoch_start, faults_start
        now = time.perf_counter()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        epoch_s.append(now - epoch_start)
        seqs_per_s.append(len(sets["train"]) / epoch_s[-1])
        epoch_minor_faults.append(faults - faults_start)
        epoch_start, faults_start = now, faults
        if args.verbose:
            print(f"epoch {row[0]:4d}  loss {row[1]:.4f}  train acc {row[2]:.4f}  "
                  f"val acc {row[3]:.4f}  lr {row[4]:g}", flush=True)

    result = model.train(sets["train"], sets["val"], cfg, log=log)
    os.makedirs(args.out, exist_ok=True)
    nnkit.save_checkpoint(os.path.join(args.out, "checkpoint.bin"), result.best)
    nnkit.save_checkpoint(os.path.join(args.out, "last.bin"), result.model.params)
    reports.write_csv(os.path.join(args.out, "history.csv"), [model.HISTORY_HEADER, *result.history.rows])
    with open(os.path.join(args.out, SNAPSHOT_FILE), "w") as f:
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
    timings = {"epoch_s": epoch_s, "seqs_per_s": seqs_per_s, "epoch_minor_faults": epoch_minor_faults}
    return dataclasses.asdict(cfg), cfg.seed, metrics, timings


def cmd_eval_action(args) -> tuple:
    sibling = os.path.join(os.path.dirname(args.checkpoint), SNAPSHOT_FILE)
    cfg = _resolve_config(args.config or (sibling if os.path.isfile(sibling) else None), args.set)
    stage_s, timed = _stage_timer(("load", "prepare", "predict"))
    net = model.ActionModel(cfg, params=timed("load", nnkit.load_checkpoint, args.checkpoint))
    sets = timed("load", _raw_sets, args.data)
    if not sets[args.split]:
        raise EmptyDatasetError(f"split {args.split!r} is empty")
    x, y = timed("prepare", model.prepare_eval_set, sets[args.split], cfg)
    if args.mask_group:
        x = x.copy()
        x[:, :, GROUP_SLICES[args.mask_group]] = 0.0
    top1, confusion = timed("predict", model.evaluate, net, x, y)
    print(f"top-1 accuracy on {args.split}: {top1:.4f} ({len(y)} sequences)")
    if args.out:
        reports.write_csv(args.out, [[f"pred_{i}" for i in range(cfg.n_classes)], *confusion.tolist()])
    metrics = {"split": args.split, "top1": top1, "mask_group": args.mask_group}
    return dataclasses.asdict(cfg), cfg.seed, metrics, {"stage_s": stage_s}


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
    p.set_defaults(dirs=(), report=False)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate the synthetic fixture tree")
    s.add_argument("--classes", type=int, default=N_CLASSES)
    s.add_argument("--per-class", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--scene-frames", type=int, default=4)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth, writes=lambda a: {"--out": a.out}, dirs=("--out",), report=True)

    s = sub.add_parser("segment", help="range-segment frames by depth threshold")
    s.add_argument("--depth", required=True, help=".dmap file or directory")
    s.add_argument("--frames", required=True, help="directory of .ppm frames")
    threshold = s.add_mutually_exclusive_group(required=True)
    threshold.add_argument("--t", type=float, default=None)
    threshold.add_argument("--metric-mm", type=float, default=None)
    s.add_argument("--desharpen", type=int, default=None)
    s.add_argument("--fill", type=_fill_flag, default=(0, 0, 0), help="r,g,b fill, each 0..255")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_segment, writes=lambda a: {"--out": a.out}, dirs=("--out",), report=True)

    s = sub.add_parser("sweep-threshold", help="MPJPE vs threshold sweep")
    s.add_argument("--data", required=True, help="synth fixture tree")
    s.add_argument("--t-list", required=True)
    s.add_argument("--mode", choices=("train", "infer"), default="train")
    s.add_argument("--scenes", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="report CSV path")
    s.add_argument("--svg", default=None)
    s.set_defaults(func=cmd_sweep_threshold, report=True,
                   writes=lambda a: {"--out": a.out, "--svg": a.svg or os.path.splitext(a.out)[0] + ".svg"})

    s = sub.add_parser("lift", help="lift a 2.5d pose file to camera space")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--intrinsics", type=_intrinsics_flag, default=None, help="fx,fy,cx,cy")
    s.set_defaults(func=cmd_lift, writes=lambda a: {"--out": a.out})

    s = sub.add_parser("eval-pose", help="MPJPE report between two 3d pose files")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--out", default=None, help="optional CSV output")
    s.set_defaults(func=cmd_eval_pose, writes=lambda a: {"--out": a.out}, report=True)

    s = sub.add_parser("encode", help="encode a dataset to prepared 20x135 sequences")
    s.add_argument("--in", dest="indir", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--csv-dir", default=None)
    s.set_defaults(func=cmd_encode, writes=lambda a: {"--out": a.out, "--csv-dir": a.csv_dir}, dirs=("--csv-dir",))

    s = sub.add_parser("train", help="train the action classifier")
    s.add_argument("--data", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--set", action="append", default=[], help="config override key=value")
    s.add_argument("--out", required=True)
    s.add_argument("--verbose", action="store_true")
    s.set_defaults(func=cmd_train, writes=lambda a: {"--out": a.out}, dirs=("--out",), report=True)

    s = sub.add_parser("eval-action", help="top-1 accuracy and confusion matrix")
    s.add_argument("--data", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--split", choices=SPLITS, default="test")
    s.add_argument("--mask-group", choices=MASK_GROUPS, default=None)
    s.add_argument("--set", action="append", default=[], help="config override key=value")
    s.add_argument("--out", default=None, help="confusion CSV path")
    s.set_defaults(func=cmd_eval_action, writes=lambda a: {"--out": a.out}, report=True)

    s = sub.add_parser("plot", help="render a CSV as a deterministic SVG line chart")
    s.add_argument("--csv", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_plot, writes=lambda a: {"--out": a.out})

    return p


def _check_outputs(args) -> str | None:
    """Check the outputs a subparser declares before any work: ``writes(args)`` maps
    each output flag to its path, ``dirs`` names the directories and ``report`` adds
    a run report beside --out, whose path this returns. An output that cannot be
    written exits 2; one on a file the run reads or on another output exits 4."""
    outputs = [("the chart" if f == "--svg" else f, f, path) for f, path in args.writes(args).items() if path]
    for _, flag, path in outputs:
        if flag in args.dirs:  # its own files are the command's to write
            existing = os.path.abspath(path)
            while not os.path.lexists(existing):
                existing = os.path.dirname(existing)
            if not os.path.isdir(existing):
                raise NotADirectoryError(f"{flag} {path}: {existing} is not a directory")
        elif not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{flag} {path}: no directory {os.path.dirname(path)}")
        elif os.path.isdir(path):
            raise IsADirectoryError(f"{flag} {path} is a directory")
    report = None
    if args.report and args.out:
        report = os.path.join(args.out, "report.json") if "--out" in args.dirs else args.out + ".report.json"
        outputs.insert(0, ("the run report", "--out", report))  # first, so that a clash names the chart
    inputs = [(flag, getattr(args, dest)) for dest, flag in _INPUT_FLAGS.items() if getattr(args, dest, None)]
    inputs += [(f, os.path.join(os.path.dirname(p), SNAPSHOT_FILE)) for f, p in inputs if f == "--checkpoint"]
    inputs += [(f, os.path.join(p, name)) for f, p in inputs if os.path.isdir(p)
               for name in (sequence.POSES_FILE, sequence.MANIFEST_FILE, synth.PARAMS_FILE)]
    claimed = {os.path.realpath(p): f"the {f} input {p}" for f, p in inputs if not os.path.isdir(p)}
    for name, flag, path in outputs:
        real = os.path.realpath(path)
        if real in claimed:
            raise UsageError(f"{name} {path} would overwrite {claimed[real]}: give {flag} another path")
        claimed[real] = f"{name} {path}"
    return report


# exit code of each error class; an error takes the entry of the first class
# in its MRO, so subclasses not named here share their base class's code
_EXIT_CODES = {
    UsageError: 4,
    OSError: 2,
    EgohandError: 3,
    ValueError: 3,
    KeyError: 3,
    MemoryError: 3,
    DataConsistencyError: 5,
    EmptyDatasetError: 5,
    EmptyActionError: 5,
}
_EXIT_LABELS = {2: "i/o error", 3: "format/config error", 4: "usage error", 5: "data consistency error"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = _check_outputs(args)
        t0 = time.perf_counter()
        record = args.func(args)
        if report is not None:
            # the run report: everything but the timings re-derives the run
            config, seed, metrics, timings = record
            doc = {"command": args.command, "config": config, "seed": seed, "metrics": metrics,
                   "wall_time_s": time.perf_counter() - t0, **timings}
            reports.write_json(report, doc)
    except tuple(_EXIT_CODES) as e:
        code = next(_EXIT_CODES[cls] for cls in type(e).__mro__ if cls in _EXIT_CODES)
        print(f"{_EXIT_LABELS[code]}: {e}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
