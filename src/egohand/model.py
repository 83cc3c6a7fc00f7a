"""Action-recognition transformer: embed, CLS + positional, x2 encoder
blocks (pre-norm, residual), MLP head; plus the training/eval loops.

The per-epoch RNG is derived from (seed, epoch), so a run resumed from a
checkpoint replays exactly the shuffles, subsampling, and augmentation of
an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
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
from .sequence import FRAME_DIM, SEQ_LEN, augment_sequence, subsample_or_pad


@dataclass
class ActionModelConfig:
    d_model: int = 128
    heads: int = 4
    ff_width: int = 256
    blocks: int = 2
    n_classes: int = 36
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
        if self.d_model % self.heads != 0:
            raise StructuralError(f"d_model {self.d_model} not divisible by heads {self.heads}")


_INT_FIELDS = {f.name for f in dataclasses.fields(ActionModelConfig) if f.type == "int"}


def _with_values(cfg: ActionModelConfig, entries) -> ActionModelConfig:
    """``cfg`` with each ``(key, value text, line or None)`` entry parsed and set."""
    values = dataclasses.asdict(cfg)
    for key, val, line in entries:
        if key not in values:
            raise ConfigError(f"unknown config key {key!r}", line)
        try:
            values[key] = int(val) if key in _INT_FIELDS else float(val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}", line) from e
    try:
        return ActionModelConfig(**values)
    except StructuralError as e:
        raise ConfigError(str(e)) from e


def parse_config_text(text: str, base: ActionModelConfig | None = None) -> ActionModelConfig:
    """Parse ``key = value`` lines (# comments allowed) over the defaults."""

    def entries():
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {raw!r}", ln)
            key, _, val = (s.strip() for s in line.partition("="))
            yield key, val, ln

    return _with_values(base if base is not None else ActionModelConfig(), entries())


def load_config(path, base: ActionModelConfig | None = None) -> ActionModelConfig:
    with open(path) as f:
        return parse_config_text(f.read(), base)


def apply_overrides(cfg: ActionModelConfig, pairs) -> ActionModelConfig:
    """Apply ``key=value`` strings (CLI overrides) on top of a config."""

    def entries():
        for pair in pairs:
            key, sep, val = pair.partition("=")
            if not sep:
                raise ConfigError(f"bad override {pair!r}")
            yield key.strip(), val, None

    return _with_values(cfg, entries())


def config_to_text(cfg: ActionModelConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)!r}" for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"


@dataclass
class TrainHistory:
    """Per-epoch (epoch, train_loss, train_acc, val_acc, lr) rows."""

    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = -1.0


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
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.cfg.seed, spawn_key=(0,))))
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

    def _trunk(self, x: np.ndarray, pos: np.ndarray, need_cache: bool = False):
        """Embed, prepend CLS, add ``pos``, run the blocks and the final LN.

        Returns the normalized (B, seq_len + 1, d_model) states plus what
        ``backward_batch`` needs of the blocks (empty without ``need_cache``)
        and the final LN.
        """
        c = self.cfg
        pv = self.params.values
        emb = nnkit.linear(x, pv["embed.w"], pv["embed.b"])
        h = np.concatenate([np.broadcast_to(pv["cls"], (x.shape[0], 1, c.d_model)), emb], axis=1)
        h += pos

        blocks_cache = []
        for i in range(c.blocks):
            p = f"block{i}."
            a1, c_ln1 = nnkit.layer_norm(h, pv[p + "ln1.g"], pv[p + "ln1.b"])
            attn_p = {
                "wq": pv[p + "attn.wq"], "bq": pv[p + "attn.bq"],
                "wk": pv[p + "attn.wk"],
                "wv": pv[p + "attn.wv"], "bv": pv[p + "attn.bv"],
                "wo": pv[p + "attn.wo"], "bo": pv[p + "attn.bo"],
            }
            h2, c_attn = nnkit.multi_head_attention(a1, attn_p, c.heads)
            h2 += h
            a2, c_ln2 = nnkit.layer_norm(h2, pv[p + "ln2.g"], pv[p + "ln2.b"])
            f1 = nnkit.linear(a2, pv[p + "ff1.w"], pv[p + "ff1.b"])
            f1g, c_gelu = nnkit.gelu(f1, need_cache)
            h = nnkit.linear(f1g, pv[p + "ff2.w"], pv[p + "ff2.b"])
            h += h2
            if need_cache:
                blocks_cache.append((c_ln1, c_attn, a2, c_ln2, c_gelu, f1g))

        hf, c_lnf = nnkit.layer_norm(h, pv["final_ln.g"], pv["final_ln.b"])
        return hf, blocks_cache, c_lnf

    def forward_batch(self, x: np.ndarray, need_cache: bool = False):
        """Logits for a (B, seq_len, input_dim) batch; optionally keep a cache."""
        c = self.cfg
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (c.seq_len, c.input_dim):
            raise StructuralError(
                f"expected (B, {c.seq_len}, {c.input_dim}) input, got {x.shape}"
            )
        pv = self.params.values
        hf, blocks_cache, c_lnf = self._trunk(x, pv["pos"], need_cache)
        cls_vec = hf[:, 0, :]
        h1 = nnkit.linear(cls_vec, pv["head1.w"], pv["head1.b"])
        h1g, c_gelu = nnkit.gelu(h1, need_cache)
        logits = nnkit.linear(h1g, pv["head2.w"], pv["head2.b"])
        if not need_cache:
            return logits, None
        return logits, (x, blocks_cache, c_lnf, cls_vec, c_gelu, h1g)

    def cls_output(self, x: np.ndarray, zero_pos: bool = False) -> np.ndarray:
        """(B, d_model) final-layer-norm CLS states of a (B, seq_len, input_dim)
        batch; ``zero_pos`` zeroes the positional table (a permutation probe)."""
        pos = self.params.values["pos"]
        hf, _, _ = self._trunk(np.asarray(x, dtype=np.float64), np.zeros_like(pos) if zero_pos else pos)
        return hf[:, 0, :]

    def backward_batch(self, glogits: np.ndarray, cache) -> None:
        """Accumulate parameter gradients from upstream logits gradient."""
        c = self.cfg
        pv = self.params.values
        acc = self.params.accumulate
        x, blocks_cache, c_lnf, cls_vec, c_gelu, h1g = cache
        b = x.shape[0]

        g, gw, gb = nnkit.linear_backward(glogits, h1g, pv["head2.w"])
        acc("head2.w", gw)
        acc("head2.b", gb)
        g = nnkit.gelu_backward(g, c_gelu)
        g, gw, gb = nnkit.linear_backward(g, cls_vec, pv["head1.w"])
        acc("head1.w", gw)
        acc("head1.b", gb)

        ghf = np.zeros((b, c.seq_len + 1, c.d_model))
        ghf[:, 0, :] = g
        gh, gg, gb = nnkit.layer_norm_backward(ghf, c_lnf)
        acc("final_ln.g", gg)
        acc("final_ln.b", gb)

        for i in reversed(range(c.blocks)):
            p = f"block{i}."
            c_ln1, c_attn, a2, c_ln2, c_gelu, f1g = blocks_cache[i]
            # feed-forward residual
            g, gw, gb = nnkit.linear_backward(gh, f1g, pv[p + "ff2.w"])
            acc(p + "ff2.w", gw)
            acc(p + "ff2.b", gb)
            g = nnkit.gelu_backward(g, c_gelu)
            g, gw, gb = nnkit.linear_backward(g, a2, pv[p + "ff1.w"])
            acc(p + "ff1.w", gw)
            acc(p + "ff1.b", gb)
            ga2, gg, gb = nnkit.layer_norm_backward(g, c_ln2)
            acc(p + "ln2.g", gg)
            acc(p + "ln2.b", gb)
            gh2 = ga2
            gh2 += gh
            # attention residual
            ga1, attn_grads = nnkit.multi_head_attention_backward(gh2, c_attn)
            for nm, arr in attn_grads.items():
                acc(p + "attn." + nm, arr)
            g, gg, gb = nnkit.layer_norm_backward(ga1, c_ln1)
            acc(p + "ln1.g", gg)
            acc(p + "ln1.b", gb)
            gh = g
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

    def predict(self, x: np.ndarray, chunk: int = 256) -> np.ndarray:
        """Argmax class per sequence, batched in chunks."""
        out = []
        for lo in range(0, len(x), chunk):
            # diverged weights overflow on the way; the check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                logits, _ = self.forward_batch(x[lo : lo + chunk])
            if not np.all(np.isfinite(logits)):
                raise NumericFaultError("non-finite logits: the weights have diverged")
            out.append(logits.argmax(axis=1))
        return np.concatenate(out) if out else np.zeros(0, dtype=np.intp)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, epoch))))


def prepare_eval_set(raw_set, cfg: ActionModelConfig):
    """Uniform, augmentation-free preparation of (frames, label) pairs."""
    xs, ys = [], []
    for frames, label in raw_set:
        prepared, _ = subsample_or_pad(frames, cfg.seq_len)
        xs.append(prepared)
        ys.append(label)
    return np.stack(xs), np.asarray(ys, dtype=np.intp)


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
    best: nnkit.ParamSet
    history: TrainHistory


def _snapshot(params: nnkit.ParamSet) -> nnkit.ParamSet:
    snap = nnkit.ParamSet()
    for name, arr in params.values.items():
        snap.add(name, arr.copy())
        snap.m[name] = params.m[name].copy()
        snap.v[name] = params.v[name].copy()
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
    no augmentation. Bit-reproducible for a given (cfg.seed, data) and
    resumable: epoch e behaves identically whether or not the run restarted.
    """
    if not train_set or not val_set:
        raise EmptyDatasetError("train and validation sets must be non-empty")
    for frames, label in train_set:
        if not (0 <= label < cfg.n_classes):
            raise StructuralError(f"train label {label} outside [0, {cfg.n_classes})")
    model = model if model is not None else ActionModel(cfg)
    history = history if history is not None else TrainHistory()
    end_epoch = cfg.max_epochs if epochs is None else epochs

    x_val, y_val = prepare_eval_set(val_set, cfg)
    best = _snapshot(model.params)

    n = len(train_set)
    for epoch in range(start_epoch, end_epoch):
        rng = _epoch_rng(cfg.seed, epoch)
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
                prepared, valid = subsample_or_pad(frames, cfg.seq_len, rng=rng)
                xb[row] = augment_sequence(prepared, cfg.aug_rotation, cfg.aug_mask_prob, rng, valid)
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
        row = (epoch, loss_sum / n, correct / n, val_acc, lr)
        history.rows.append(row)
        if val_acc > history.best_val_acc:
            history.best_val_acc = val_acc
            history.best_epoch = epoch
            best = _snapshot(model.params)
        if log is not None:
            log(row)
    return TrainResult(model=model, best=best, history=history)


def save_model(path, params: nnkit.ParamSet) -> None:
    nnkit.save_checkpoint(path, params)


def load_model(path, cfg: ActionModelConfig) -> ActionModel:
    """Load a checkpoint and validate its tensor shapes against ``cfg``."""
    params = nnkit.load_checkpoint(path)
    return ActionModel(cfg, params=params)
