"""In-memory span tracer that wraps egohand functions where their callers find them.

A layer is one program function, or a named group of them (all ``.dmap``/PPM
file I/O is the layer ``rangeseg.io``). Installing the tracer replaces the
function object in every ``egohand.*`` module namespace that holds it, so
``egohand.experiments.range_mask`` and ``egohand.rangeseg.range_mask`` are
both wrapped, and methods are wrapped on their class. Calls the program makes
internally are therefore seen, and nested layers become child spans.

The self time of a span is its duration minus the durations of its child
spans. Counters that need the arguments (GEMM flops, file bytes, distinct
inputs) are computed after the span closes; the time they take is booked to
``trace.bookkeeping`` and excluded from every layer, so the self times of all
layers, the root span and the bookkeeping add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span stack plus per-layer aggregates; spans stay in memory."""

    def __init__(self):
        self.spans = []  # (span id, layer, parent id or -1, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self._stack = []  # [span id, layer, parent id, child seconds, start]
        self._next_id = 0

    def enter(self, layer: str) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, layer, parent, 0.0, time.perf_counter()])

    def exit(self) -> None:
        end = time.perf_counter()
        sid, layer, parent, child, start = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((sid, layer, parent, start, end))

    @contextlib.contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def bookkeep(self, seconds: float) -> None:
        self.self_s[BOOKKEEPING] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def wall_s(self, roots) -> float:
        """Summed duration of the root spans whose layer is in ``roots``."""
        return sum(end - start for _, layer, parent, start, end in self.spans
                   if parent == -1 and layer in roots)


# --- counters computed from arguments ------------------------------------------


def _fingerprint(values: np.ndarray) -> tuple:
    """Content key of a 2D map: shape, sum and row/column first moments."""
    h, w = values.shape
    return (h, w, float(values.sum()),
            float(values.sum(axis=1) @ np.arange(1.0, h + 1.0)),
            float(values.sum(axis=0) @ np.arange(1.0, w + 1.0)))


def _distinct_range_mask(tr, layer, args, result):
    # depth maps are continuous, so a strided sample identifies one as well as all of it
    tr.distinct[layer].add((_fingerprint(args[0].values[::8, ::8]), float(args[1])))


def _distinct_blur(tr, layer, args, result):
    tr.distinct[layer].add((_fingerprint(np.asarray(args[0])), int(args[1])))


def _file_bytes(tr, layer, args, result):
    tr.counters[layer + ".bytes"] += os.path.getsize(args[0])


def _dataset_bytes(tr, layer, args, result):
    tr.counters["sequence.ndjson.bytes"] += sum(
        os.path.getsize(os.path.join(args[0], name)) for name in ("poses.ndjson", "manifest.csv")
    )


def _rows(x: np.ndarray, width: int) -> int:
    return x.size // width


def _flops_linear(tr, layer, args, result):
    x, w = args[0], args[1]
    tr.counters["nnkit.gemm.flop"] += 2.0 * _rows(x, w.shape[0]) * w.shape[0] * w.shape[1]


def _flops_linear_backward(tr, layer, args, result):
    x, w = args[1], args[2]
    # input gradient g @ w.T plus weight gradient x.T @ g
    tr.counters["nnkit.gemm.flop"] += 4.0 * _rows(x, w.shape[0]) * w.shape[0] * w.shape[1]


def _attention_flops(x: np.ndarray, matmuls_tt: int, matmuls_dd: int) -> float:
    t, d = x.shape[-2], x.shape[-1]
    b = x.size // (t * d)
    # per head T x T x dh products summed over heads give T x T x d
    return 2.0 * b * t * d * (matmuls_tt * t + matmuls_dd * d)


def _flops_attention(tr, layer, args, result):
    # q k^T and attn v, plus the bias-free key projection x @ wk
    tr.counters["nnkit.gemm.flop"] += _attention_flops(args[0], 2, 1)


def _flops_attention_backward(tr, layer, args, result):
    # four T x T products, plus the key projection's input and weight gradients
    tr.counters["nnkit.gemm.flop"] += _attention_flops(args[1][0], 4, 2)


# --- the layer table -------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    name: str
    module: str  # egohand submodule that defines the function
    attr: str
    owner: str | None = None  # class name for methods
    count_only: bool = False  # count calls without a span (hot, tiny functions)
    hook: object = None


LAYERS = (
    Layer("experiments.make_eval_scenes", "experiments", "make_eval_scenes"),
    Layer("experiments.sweep_threshold", "experiments", "sweep_threshold"),
    Layer("experiments.ablation_masking", "experiments", "ablation_masking"),
    Layer("experiments.ablation_desharpen", "experiments", "ablation_desharpen"),
    Layer("synth.mask_quality", "synth", "mask_quality"),
    Layer("synth.noisy_pose_oracle", "synth", "noisy_pose_oracle"),
    Layer("synth.gen_scene_depth", "synth", "gen_scene_depth"),
    Layer("synth.generate_dataset", "synth", "generate_dataset"),
    Layer("synth.write_fixture_tree", "synth", "write_fixture_tree"),
    Layer("geometry.mpjpe_report", "geometry", "mpjpe_report"),
    Layer("geometry.rotate_points_2d", "geometry", "rotate_points_2d", count_only=True),
    Layer("rangeseg.normalize_depth", "rangeseg", "normalize_depth"),
    Layer("rangeseg.range_mask", "rangeseg", "range_mask", hook=_distinct_range_mask),
    Layer("rangeseg.range_mask_metric", "rangeseg", "range_mask_metric"),
    Layer("rangeseg.desharpen_mask", "rangeseg", "desharpen_mask"),
    Layer("rangeseg.apply_mask", "rangeseg", "apply_mask"),
    Layer("rangeseg.io", "rangeseg", "load_depth", hook=_file_bytes),
    Layer("rangeseg.io", "rangeseg", "save_depth", hook=_file_bytes),
    Layer("rangeseg.io", "rangeseg", "save_mask", hook=_file_bytes),
    Layer("rangeseg.io", "rangeseg", "load_ppm", hook=_file_bytes),
    Layer("rangeseg.io", "rangeseg", "save_ppm", hook=_file_bytes),
    Layer("kernels.box_blur", "_kernels", "box_blur", hook=_distinct_blur),
    Layer("kernels.capsule_zfield", "_kernels", "capsule_zfield"),
    Layer("sequence.save_dataset", "sequence", "save_dataset"),
    Layer("sequence.load_dataset", "sequence", "load_dataset", hook=_dataset_bytes),
    Layer("sequence.encode_frames", "sequence", "encode_frames"),
    Layer("sequence.subsample_or_pad", "sequence", "subsample_or_pad"),
    Layer("sequence.augment_sequence", "sequence", "augment_sequence"),
    Layer("model.train", "model", "train"),
    Layer("model.prepare_eval_set", "model", "prepare_eval_set"),
    Layer("model.evaluate", "model", "evaluate"),
    Layer("model.forward_batch", "model", "forward_batch", owner="ActionModel"),
    Layer("model.backward_batch", "model", "backward_batch", owner="ActionModel"),
    Layer("nnkit.linear", "nnkit", "linear", hook=_flops_linear),
    Layer("nnkit.layer_norm", "nnkit", "layer_norm"),
    Layer("nnkit.gelu", "nnkit", "gelu"),
    Layer("nnkit.multi_head_attention", "nnkit", "multi_head_attention", hook=_flops_attention),
    Layer("nnkit.cross_entropy", "nnkit", "cross_entropy"),
    Layer("nnkit.linear_backward", "nnkit", "linear_backward", hook=_flops_linear_backward),
    Layer("nnkit.layer_norm_backward", "nnkit", "layer_norm_backward"),
    Layer("nnkit.gelu_backward", "nnkit", "gelu_backward"),
    Layer("nnkit.multi_head_attention_backward", "nnkit", "multi_head_attention_backward",
          hook=_flops_attention_backward),
    Layer("nnkit.adamw_step", "nnkit", "adamw_step"),
    Layer("cli.segment", "cli", "cmd_segment"),
)

GEMM_LAYERS = ("nnkit.linear", "nnkit.linear_backward", "nnkit.multi_head_attention",
               "nnkit.multi_head_attention_backward")


def _spanned(tr: Tracer, layer: Layer, fn):
    hook = layer.hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.enter(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit()
        if hook is not None:
            t0 = time.perf_counter()
            hook(tr, layer.name, args, result)
            tr.bookkeep(time.perf_counter() - t0)
        return result

    return wrapper


def _counted(tr: Tracer, layer: Layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.calls[layer.name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(tr: Tracer):
    """Wrap every layer for the duration of the block, then restore."""
    undo = []
    try:
        for layer in LAYERS:
            mod = importlib.import_module("egohand." + layer.module)
            make = _counted if layer.count_only else _spanned
            if layer.owner is not None:
                owner = getattr(mod, layer.owner)
                original = owner.__dict__[layer.attr]
                undo.append((owner, layer.attr, original))
                setattr(owner, layer.attr, make(tr, layer, original))
                continue
            original = getattr(mod, layer.attr)
            wrapper = make(tr, layer, original)
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "egohand" or name.startswith("egohand.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        undo.append((other, key, original))
                        setattr(other, key, wrapper)
        yield tr
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


# --- per-layer metrics --------------------------------------------------------------

SELF_LAYERS = tuple(dict.fromkeys(layer.name for layer in LAYERS if not layer.count_only))
CALL_LAYERS = (
    "synth.mask_quality", "rangeseg.range_mask", "kernels.box_blur", "synth.gen_scene_depth",
    "kernels.capsule_zfield", "sequence.augment_sequence", "geometry.rotate_points_2d",
    "model.forward_batch",
)
DISTINCT_LAYERS = ("rangeseg.range_mask", "kernels.box_blur")
PER_CALL_LAYERS = ("kernels.box_blur", "kernels.capsule_zfield")
ROOTS = ("bench.setup", "bench.round")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"{n}.self_s", "s", "lower") for n in SELF_LAYERS]
    spec += [(f"{n}.calls", "count", "lower") for n in CALL_LAYERS]
    spec += [(f"{n}.distinct_ratio", "ratio", "higher") for n in DISTINCT_LAYERS]
    spec += [(f"{n}.ms_per_call", "ms", "lower") for n in PER_CALL_LAYERS]
    spec += [
        ("rangeseg.io.mb", "MB", "lower"),
        ("sequence.ndjson.mb", "MB", "lower"),
        ("nnkit.gemm.gflop", "GFLOP", "lower"),
        ("nnkit.gemm.gflop_per_s", "GFLOP/s", "higher"),
        ("bench.self_s", "s", "lower"),
        ("trace.bookkeeping.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


def per_layer_metrics(setup: Tracer, rounds: Tracer, n_rounds: int, overhead_pct: float) -> dict:
    """Per-layer values for one set-up plus one round.

    ``setup`` traced one set-up and ``rounds`` traced ``n_rounds`` identical
    rounds, so every total is the set-up's plus the round average.
    """

    def one(get):
        return get(setup) + get(rounds) / n_rounds

    values = {}
    for name in SELF_LAYERS:
        values[f"{name}.self_s"] = one(lambda t: t.self_s.get(name, 0.0))
    for name in CALL_LAYERS:
        values[f"{name}.calls"] = one(lambda t: t.calls.get(name, 0))
    for name in DISTINCT_LAYERS:
        built = rounds.calls.get(name, 0) / n_rounds
        # every round repeats the same inputs, so the set holds one round's keys
        values[f"{name}.distinct_ratio"] = len(rounds.distinct[name]) / built if built else 0.0
    for name in PER_CALL_LAYERS:
        calls = setup.calls.get(name, 0) + rounds.calls.get(name, 0)
        busy = setup.self_s.get(name, 0.0) + rounds.self_s.get(name, 0.0)
        values[f"{name}.ms_per_call"] = 1e3 * busy / calls if calls else 0.0
    values["rangeseg.io.mb"] = one(lambda t: t.counters.get("rangeseg.io.bytes", 0.0)) / 1e6
    values["sequence.ndjson.mb"] = one(lambda t: t.counters.get("sequence.ndjson.bytes", 0.0)) / 1e6
    gflop = one(lambda t: t.counters.get("nnkit.gemm.flop", 0.0)) / 1e9
    gemm_s = one(lambda t: sum(t.self_s.get(n, 0.0) for n in GEMM_LAYERS))
    values["nnkit.gemm.gflop"] = gflop
    values["nnkit.gemm.gflop_per_s"] = gflop / gemm_s if gemm_s else 0.0
    values["bench.self_s"] = one(lambda t: sum(t.self_s.get(r, 0.0) for r in ROOTS))
    values["trace.bookkeeping.self_s"] = one(lambda t: t.self_s.get(BOOKKEEPING, 0.0))
    values["trace.wall_s"] = one(lambda t: t.wall_s(ROOTS))
    values["trace.overhead_pct"] = overhead_pct
    return values

