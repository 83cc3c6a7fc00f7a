"""Action-recognition transformer: embed, CLS + positional, x2 encoder
blocks (pre-norm, residual), MLP head; plus the training/eval loops.

The per-epoch RNG is derived from (seed, epoch), so a run resumed from a
checkpoint replays exactly the shuffles, subsampling, and augmentation of
an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import nnkit
from .errors import (
    CheckpointMismatchError,
    ConfigError,
    EmptyDatasetError,
    NumericFaultError,
    StructuralError,
)
from .sequence import FRAME_DIM, N_CLASSES, SEQ_LEN, augment_sequence, subsample_or_pad
from .synth import keyed_rng

PREDICT_CHUNK = 256  # sequences per forward pass in ``ActionModel.predict``


@dataclass
class ActionModelConfig:
    d_model: int = 128
    heads: int = 4
    ff_width: int = 256
    blocks: int = 2
    n_classes: int = N_CLASSES
    seq_len: int = SEQ_LEN
    input_dim: int = FRAME_DIM
    seed: int = 0
    batch_size: int = 64
    base_lr: float = 0.001
    schedule_start: int = 500
    schedule_every: int = 200
    schedule_factor: float = 0.5
    weight_decay: float = 0.01
    aug_rotation: float = 0.5
    aug_mask_prob: float = 0.3
    max_epochs: int = 800

    def __post_init__(self):
        for name in ("d_model", "heads", "ff_width", "blocks", "n_classes", "seq_len", "batch_size",
                     "schedule_every", "max_epochs"):
            if getattr(self, name) < 1:
                raise StructuralError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.heads != 0:
            raise StructuralError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise StructuralError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name, ok, rule in (
            ("base_lr", self.base_lr > 0, "> 0"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("aug_rotation", self.aug_rotation >= 0, ">= 0"),
            ("aug_rotation", self.aug_rotation <= math.pi, "<= pi"),
            ("aug_mask_prob", 0 <= self.aug_mask_prob <= 1, "in [0, 1]"),
            ("schedule_factor", self.schedule_factor > 0, "> 0"),
            ("input_dim", self.input_dim == FRAME_DIM, f"{FRAME_DIM}, the frame vector's width"),
        ):
            if not ok:
                raise StructuralError(f"{name} must be {rule}, got {getattr(self, name)}")


_INT_FIELDS = {f.name for f in dataclasses.fields(ActionModelConfig) if f.type == "int"}


def config_from_lines(lines) -> ActionModelConfig:
    """One config from ``(line number or None, "key = value")`` pairs read in
    order over the defaults: ``#`` starts a comment, a numbered (file) line
    left blank is skipped, and a later line naming a key overrides an earlier
    one. The result is validated once, after the last line; errors carry the
    line's number."""
    values = dataclasses.asdict(ActionModelConfig())
    for ln, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line and ln is not None:
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not sep:
            raise ConfigError(f"expected 'key = value', got {raw!r}", ln)
        if key not in values:
            raise ConfigError(f"unknown config key {key!r}", ln)
        try:
            values[key] = int(val) if key in _INT_FIELDS else float(val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}", ln) from e
    try:
        return ActionModelConfig(**values)
    except StructuralError as e:
        raise ConfigError(str(e)) from e


def config_to_text(cfg: ActionModelConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)!r}" for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"


HISTORY_HEADER = ("epoch", "train_loss", "train_acc", "val_acc", "lr")


@dataclass
class TrainHistory:
    """Per-epoch rows laid out as ``HISTORY_HEADER``. The best epoch is the
    first row with the highest val_acc; (-1, -1.0) before any row."""

    rows: list = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        return max(self.rows, key=lambda row: row[3], default=(-1,))[0]

    @property
    def best_val_acc(self) -> float:
        return max((row[3] for row in self.rows), default=-1.0)


class ActionModel:
    """Transformer classifier over prepared (seq_len x input_dim) sequences."""

    def __init__(self, cfg: ActionModelConfig, params: nnkit.ParamSet | None = None):
        self.cfg = cfg
        self.params = params if params is not None else self._init_params()
        self._validate_shapes()

    # parameter construction -------------------------------------------------

    def _param_shapes(self):
        c = self.cfg
        shapes = {
            "embed.w": (c.input_dim, c.d_model),
            "embed.b": (1, c.d_model),
            "cls": (1, c.d_model),
            "pos": (c.seq_len + 1, c.d_model),
        }
        for i in range(c.blocks):
            p = f"block{i}."
            shapes[p + "ln1.g"] = (1, c.d_model)
            shapes[p + "ln1.b"] = (1, c.d_model)
            for nm in ("q", "k", "v", "o"):
                shapes[p + f"attn.w{nm}"] = (c.d_model, c.d_model)
                if nm != "k":  # key bias cancels in row softmax
                    shapes[p + f"attn.b{nm}"] = (1, c.d_model)
            shapes[p + "ln2.g"] = (1, c.d_model)
            shapes[p + "ln2.b"] = (1, c.d_model)
            shapes[p + "ff1.w"] = (c.d_model, c.ff_width)
            shapes[p + "ff1.b"] = (1, c.ff_width)
            shapes[p + "ff2.w"] = (c.ff_width, c.d_model)
            shapes[p + "ff2.b"] = (1, c.d_model)
        shapes["final_ln.g"] = (1, c.d_model)
        shapes["final_ln.b"] = (1, c.d_model)
        shapes["head1.w"] = (c.d_model, c.d_model)
        shapes["head1.b"] = (1, c.d_model)
        shapes["head2.w"] = (c.d_model, c.n_classes)
        shapes["head2.b"] = (1, c.n_classes)
        return shapes

    def _init_params(self) -> nnkit.ParamSet:
        rng = keyed_rng(self.cfg.seed, 0)
        params = nnkit.ParamSet()
        for name, shape in self._param_shapes().items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "g":
                params.add(name, np.ones(shape))
            elif leaf.startswith("b"):
                params.add(name, np.zeros(shape))
            else:
                params.add(name, rng.normal(0.0, 0.02, size=shape))
        return params

    def _validate_shapes(self):
        expected = self._param_shapes()
        got = {n: v.shape for n, v in self.params.values.items()}
        if got != expected:
            for name, shape in expected.items():
                if name not in got:
                    raise CheckpointMismatchError(f"missing parameter {name!r}")
                if got[name] != shape:
                    raise CheckpointMismatchError(
                        f"parameter {name!r} has shape {got[name]}, config expects {shape}"
                    )
            extra = sorted(set(got) - set(expected))
            raise CheckpointMismatchError(f"unexpected parameters {extra}")

    # forward / backward ------------------------------------------------------

    def _trunk(self, x: np.ndarray, need_cache: bool = False):
        """Embed a (B, seq_len, input_dim) batch, prepend CLS, add the positional
        table, run the blocks and the final LN.

        Returns the float64 input, the normalized (B, d_model) CLS states, what
        ``backward_batch`` needs of the blocks (empty without ``need_cache``)
        and the final LN, which only the CLS row goes through.

        The trunk computes only the rows its result reads, with or without a
        cache: the last block's attention runs over every row, since the CLS
        row attends to all of them, but its output projection, LN2,
        feed-forward and GELU run on the CLS row alone. Each row's arithmetic
        is unchanged, so for B >= 2 logits, loss and gradients keep their
        bytes; at B = 1 numpy runs the one-row GEMMs as vector-matrix products,
        which round differently in the last bits. With a cache, the CLS rows of
        that block's feed-forward inputs (LN2's output and the GELU's) are
        copied into fresh zero-filled (B, seq_len + 1, .) arrays: the
        backward's weight-gradient GEMMs then reduce over as many rows as
        before, and zero rows meet zero gradient rows, so every product and
        sum is unchanged.
        """
        c = self.cfg
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (c.seq_len, c.input_dim):
            raise StructuralError(f"expected (B, {c.seq_len}, {c.input_dim}) input, got {x.shape}")
        pv = self.params.values
        emb = nnkit.linear(x, pv["embed.w"], pv["embed.b"])
        h = np.concatenate([np.broadcast_to(pv["cls"], (len(x), 1, c.d_model)), emb], axis=1)
        h += pv["pos"]

        blocks_cache = []
        for i in range(c.blocks):
            p = f"block{i}."
            last = i == c.blocks - 1
            a1, c_ln1 = nnkit.layer_norm(h, pv[p + "ln1.g"], pv[p + "ln1.b"])
            attn_p = {nm: pv[p + "attn." + nm] for nm in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
            rows = 1 if last else None  # only the CLS row is read past the last attention
            h2, c_attn = nnkit.multi_head_attention(a1, attn_p, c.heads, rows)
            h2 += h[:, :rows]
            a2, c_ln2 = nnkit.layer_norm(h2, pv[p + "ln2.g"], pv[p + "ln2.b"])
            f1g, c_gelu = nnkit.gelu(nnkit.linear(a2, pv[p + "ff1.w"], pv[p + "ff1.b"]), need_cache)
            h = nnkit.linear(f1g, pv[p + "ff2.w"], pv[p + "ff2.b"])
            h += h2
            if need_cache and last:  # the weight-gradient GEMMs' operands, zero-padded
                a2, f1g = (np.concatenate([a, np.zeros((len(x), c.seq_len, a.shape[-1]))], axis=1)
                           for a in (a2, f1g))
            if need_cache:
                blocks_cache.append((c_ln1, c_attn, a2, c_ln2, c_gelu, f1g))

        cls_vec, c_lnf = nnkit.layer_norm(h[:, 0, :], pv["final_ln.g"], pv["final_ln.b"])
        return x, cls_vec, blocks_cache, c_lnf

    def forward_batch(self, x: np.ndarray, need_cache: bool = False):
        """Logits for a (B, seq_len, input_dim) batch; optionally keep a cache."""
        pv = self.params.values
        x, cls_vec, blocks_cache, c_lnf = self._trunk(x, need_cache)
        h1 = nnkit.linear(cls_vec, pv["head1.w"], pv["head1.b"])
        h1g, c_gelu = nnkit.gelu(h1, need_cache)
        logits = nnkit.linear(h1g, pv["head2.w"], pv["head2.b"])
        if not need_cache:
            return logits, None
        return logits, (x, blocks_cache, c_lnf, cls_vec, c_gelu, h1g)

    def cls_output(self, x: np.ndarray) -> np.ndarray:
        """(B, d_model) final-layer-norm CLS states of a (B, seq_len, input_dim) batch."""
        return self._trunk(x)[1]

    def backward_batch(self, glogits: np.ndarray, cache) -> None:
        """Accumulate parameter gradients from upstream logits gradient."""
        c = self.cfg
        pv = self.params.values
        acc = self.params.accumulate
        x, blocks_cache, c_lnf, cls_vec, c_gelu, h1g = cache

        # each step accumulates its layer's parameter gradients and returns the input gradient
        def lin(name, g, inp):
            g, gw, gb = nnkit.linear_backward(g, inp, pv[name + ".w"])
            acc(name + ".w", gw)
            acc(name + ".b", gb)
            return g

        def norm(name, g, ln_cache):
            g, gg, gb = nnkit.layer_norm_backward(g, ln_cache)
            acc(name + ".g", gg)
            acc(name + ".b", gb)
            return g

        g = nnkit.gelu_backward(lin("head2", glogits, h1g), c_gelu)
        gh = np.zeros((len(x), c.seq_len + 1, c.d_model))
        gh[:, 0, :] = norm("final_ln", lin("head1", g, cls_vec), c_lnf)

        for i in reversed(range(c.blocks)):
            p = f"block{i}."
            c_ln1, c_attn, a2, c_ln2, c_gelu, f1g = blocks_cache[i]
            # feed-forward residual; in the last block the GELU and LN2 steps see the CLS
            # rows alone, and the GEMMs' zero rows stay zero
            rows = 1 if i == c.blocks - 1 else None
            g = lin(p + "ff2", gh, f1g)
            g[:, :rows] = nnkit.gelu_backward(g[:, :rows], c_gelu)
            gh2 = lin(p + "ff1", g, a2)
            gh2[:, :rows] = norm(p + "ln2", gh2[:, :rows], c_ln2)
            gh2 += gh
            # attention residual
            ga1, attn_grads = nnkit.multi_head_attention_backward(gh2, c_attn)
            for nm, arr in attn_grads.items():
                acc(p + "attn." + nm, arr)
            gh = norm(p + "ln1", ga1, c_ln1)
            gh += gh2

        acc("pos", gh.sum(axis=0))
        acc("cls", gh[:, 0, :].sum(axis=0, keepdims=True))
        # the input needs no gradient, so only the weight GEMM runs
        gemb = gh[:, 1:, :].reshape(-1, c.d_model)
        acc("embed.w", x.reshape(-1, c.input_dim).T @ gemb)
        acc("embed.b", gemb.sum(axis=0, keepdims=True))

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Forward + cross-entropy + backward; grads accumulate into params."""
        logits, cache = self.forward_batch(x, need_cache=True)
        loss, probs = nnkit.cross_entropy(logits, labels)
        self.backward_batch(nnkit.cross_entropy_backward(probs, labels), cache)
        return loss, logits

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class per sequence, over chunks of at most ``PREDICT_CHUNK``
        sequences. The chunks differ in size by at most one, so none has one
        row unless ``x`` has: each row's logits then keep their bytes whatever
        the chunking."""
        out = []
        n_chunks = -(-len(x) // PREDICT_CHUNK)
        for chunk in np.array_split(x, n_chunks) if len(x) else ():
            # diverged weights overflow on the way; the check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                logits, _ = self.forward_batch(chunk)
            if not np.all(np.isfinite(logits)):
                raise NumericFaultError("non-finite logits: the weights have diverged")
            out.append(logits.argmax(axis=1))
        return np.concatenate(out) if out else np.zeros(0, dtype=np.intp)


def prepare_eval_set(raw_set, cfg: ActionModelConfig):
    """Uniform, augmentation-free preparation of (frames, label) pairs."""
    xs = [subsample_or_pad(frames, cfg.seq_len) for frames, _ in raw_set]
    return np.stack(xs), np.asarray([label for _, label in raw_set], dtype=np.intp)


def evaluate(model: ActionModel, x: np.ndarray, labels: np.ndarray):
    """(top-1 accuracy, confusion matrix with ground-truth rows)."""
    labels = np.asarray(labels, dtype=np.intp)
    if len(x) == 0:
        raise EmptyDatasetError("cannot evaluate an empty set")
    n = model.cfg.n_classes
    if np.any(labels < 0) or np.any(labels >= n):
        raise StructuralError(f"labels must lie in [0, {n})")
    preds = model.predict(x)
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    top1 = float((preds == labels).mean())
    return top1, confusion


@dataclass
class TrainResult:
    model: ActionModel
    best: nnkit.ParamSet | None
    history: TrainHistory


def _snapshot(params: nnkit.ParamSet) -> nnkit.ParamSet:
    """Copy of the values, AdamW moments and step. It has no gradient tables:
    a snapshot is only saved or used for prediction."""
    snap = nnkit.ParamSet()
    for dst, src in ((snap.values, params.values), (snap.m, params.m), (snap.v, params.v)):
        dst.update((name, arr.copy()) for name, arr in src.items())
    snap.step = params.step
    return snap


def train(
    train_set,
    val_set,
    cfg: ActionModelConfig,
    model: ActionModel | None = None,
    start_epoch: int = 0,
    epochs: int | None = None,
    history: TrainHistory | None = None,
    log=None,
) -> TrainResult:
    """Run the training recipe over raw (frames, label) pairs.

    Per epoch: seeded shuffle -> batches -> per-sequence random subsample +
    rotation/masking augmentation -> forward -> cross-entropy -> backward ->
    AdamW with the step LR schedule. Validation uses uniform subsampling and
    no augmentation. Bit-reproducible for a given (cfg.seed, data); runs
    epochs [start_epoch, epochs), ``epochs`` defaulting to ``cfg.max_epochs``.
    To resume, pass an earlier call's ``model``, ``start_epoch`` and ``history``:
    epoch e behaves identically whether or not the run restarted. ``best`` is a
    snapshot at the call's last epoch that beat every earlier row, else None.
    """
    if not train_set or not val_set:
        raise EmptyDatasetError("train and validation sets must be non-empty")
    for name, labelled in (("train", train_set), ("validation", val_set)):
        for _, label in labelled:
            if not (0 <= label < cfg.n_classes):
                raise StructuralError(f"{name} label {label} outside [0, {cfg.n_classes})")
    model = model if model is not None else ActionModel(cfg)
    history = history if history is not None else TrainHistory()
    end_epoch = cfg.max_epochs if epochs is None else epochs

    x_val, y_val = prepare_eval_set(val_set, cfg)
    best = None

    n = len(train_set)
    for epoch in range(start_epoch, end_epoch):
        rng = keyed_rng(cfg.seed, 1, epoch)
        order = rng.permutation(n)
        lr = nnkit.lr_at(epoch, cfg.base_lr, cfg.schedule_start, cfg.schedule_every, cfg.schedule_factor)
        loss_sum = 0.0
        correct = 0
        for bstart in range(0, n, cfg.batch_size):
            idx = order[bstart : bstart + cfg.batch_size]
            xb = np.empty((len(idx), cfg.seq_len, cfg.input_dim))
            yb = np.empty(len(idx), dtype=np.intp)
            for row, i in enumerate(idx):
                frames, label = train_set[i]
                prepared = subsample_or_pad(frames, cfg.seq_len, rng=rng)
                xb[row] = augment_sequence(prepared, cfg.aug_rotation, cfg.aug_mask_prob, rng)
                yb[row] = label
            model.params.zero_grads()
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                    loss, logits = model.loss_and_grads(xb, yb)
                if not np.isfinite(loss):
                    raise NumericFaultError("non-finite loss")
                nnkit.adamw_step(model.params, lr, weight_decay=cfg.weight_decay)
            except NumericFaultError as e:
                raise NumericFaultError(
                    f"epoch {epoch}, batch {bstart // cfg.batch_size}: {e}"
                ) from e
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == yb).sum())
        val_acc, _ = evaluate(model, x_val, y_val)
        if val_acc > history.best_val_acc:
            best = _snapshot(model.params)
        row = (epoch, loss_sum / n, correct / n, val_acc, lr)
        history.rows.append(row)
        if log is not None:
            log(row)
    return TrainResult(model=model, best=best, history=history)
