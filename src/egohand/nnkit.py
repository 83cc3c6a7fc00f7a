"""Dense-tensor layers with hand-written exact backward passes.

Everything is float64. Layers broadcast over leading axes (attention takes
(B, T, D) batches). Gradients are verified against central finite
differences in the test suite; ``grad_check`` is the harness.

Layers reuse their own temporaries (in-place operators) but never write
into their arguments, and every array they return is fresh, so a caller
may pass one array to several layers and keep what a layer returned. Each
rewrite keeps the operation order of the plain expression, so results are
bit-identical to it. The memory of freed temporaries is kept for the next
step by the allocator policy the package sets when it loads.

Checkpoint format (all little-endian): magic ``SHRP``, version u16 (=1),
parameter count u32, then per tensor: name length u16, name bytes (utf-8),
rows u32, cols u32, rows*cols float64 values; then the optimizer-state
table in the same layout (names prefixed ``m:`` / ``v:``), then the step
counter u64.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from scipy.special import erf

from .errors import (
    CheckpointMismatchError,
    FormatError,
    NumericFaultError,
    RangeError,
    StructuralError,
)

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator guard


# --- layers -----------------------------------------------------------------


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[-1] != w.shape[0]:
        raise StructuralError(f"linear: x feature dim {x.shape[-1]} != w rows {w.shape[0]}")
    # flatten leading axes so BLAS sees one large GEMM instead of a stack
    y = x.reshape(-1, w.shape[0]) @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1])


def linear_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Returns (dx, dw, db) for y = x @ w + b given upstream gradient g."""
    d_in, d_out = w.shape
    g2 = g.reshape(-1, d_out)
    gx = (g2 @ w.T).reshape(x.shape)
    gw = x.reshape(-1, d_in).T @ g2
    gb = g2.sum(axis=0, keepdims=True)
    return gx, gw, gb


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """Normalize the last axis with population variance, then scale-shift.

    Returns (y, cache) where cache feeds layer_norm_backward.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    y = xhat * xhat
    inv = y.mean(axis=-1, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv, gamma)


def layer_norm_backward(g: np.ndarray, cache):
    """Returns (dx, dgamma, dbeta)."""
    xhat, inv, gamma = cache
    lead = tuple(range(g.ndim - 1))
    t = g * xhat
    ggamma = t.sum(axis=lead).reshape(1, -1)
    gbeta = g.sum(axis=lead).reshape(1, -1)
    gx = g * gamma
    np.multiply(gx, xhat, out=t)
    m2 = t.mean(axis=-1, keepdims=True)
    gx -= gx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=t)
    gx -= t
    gx *= inv
    return gx, ggamma, gbeta


def _softmax_in_place(e: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis of ``e``, with max subtraction, written over ``e``."""
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, computed with max subtraction."""
    return _softmax_in_place(x.copy())


def softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    t = g * p
    np.subtract(g, t.sum(axis=-1, keepdims=True), out=t)
    t *= p
    return t


def gelu(x: np.ndarray, need_cache: bool = False):
    """Exact Gaussian-error linear unit x * Phi(x).

    Returns (y, cache). With ``need_cache`` the cache is the derivative
    Phi(x) + x * phi(x), built from the forward's ``1 + erf(x / sqrt 2)``,
    which is all ``gelu_backward`` needs; otherwise it is None.
    """
    s = x / _SQRT2
    erf(s, out=s)
    s += 1.0
    y = x * 0.5
    y *= s
    if not need_cache:
        return y, None
    phi = x * -0.5
    phi *= x
    np.exp(phi, out=phi)
    phi *= _INV_SQRT_2PI
    phi *= x
    s *= 0.5
    s += phi
    return y, s


def gelu_backward(g: np.ndarray, cache: np.ndarray) -> np.ndarray:
    return g * cache


def multi_head_attention(x: np.ndarray, p: dict, heads: int, rows: int | None = None):
    """Scaled dot-product self-attention over tokens.

    ``x`` is (B, T, D); ``p`` maps wq,bq,wk,wv,bv,wo,bo to arrays.
    The key projection carries no bias: a uniform key shift adds a constant
    to every score row, which row softmax cancels exactly, so such a bias
    would be a dead parameter. Scale is 1/sqrt(D/heads). q, k and v come from
    one GEMM over ``[wq|wk|wv]``, whose columns hold the bytes of three
    separate GEMMs. With ``rows`` only the first ``rows`` tokens are
    projected to the output, y being (B, rows, D); every token is still
    attended to, and the backward takes a (B, T, D) gradient, zero on the rows
    left out. Returns (y, cache).
    """
    b, t, d = x.shape
    if d % heads != 0:
        raise StructuralError(f"model width {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    qkv = x.reshape(-1, d) @ np.concatenate((p["wq"], p["wk"], p["wv"]), axis=1)
    qkv[:, :d] += p["bq"]
    qkv[:, 2 * d :] += p["bv"]
    # (B, heads, T, dh) views of the q, k and v columns
    q, k, v = qkv.reshape(b, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    attn = _softmax_in_place(scores)
    # each head's context lands in its columns of the merged (B, T, D) rows
    merged = np.empty((b, t, d))
    np.matmul(attn, v, out=merged.reshape(b, t, heads, dh).transpose(0, 2, 1, 3))
    y = linear(merged[:, :rows], p["wo"], p["bo"])
    return y, (x, q, k, v, attn, merged, p, heads, scale)


def multi_head_attention_backward(g: np.ndarray, cache):
    """Returns (dx, dparams) matching multi_head_attention's inputs.

    The q, k and v weight gradients come from one ``x.T @ [gq|gk|gv]`` GEMM;
    the input gradient sums three GEMMs, q then v then k."""
    x, q, k, v, attn, merged, p, heads, scale = cache
    b, t, d = x.shape
    dh = d // heads

    gmerged, gwo, gbo = linear_backward(g, merged, p["wo"])
    gctx = gmerged.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    gattn = gctx @ v.transpose(0, 1, 3, 2)
    g2 = np.empty((b * t, 3 * d))
    gq, gk, gv = g2.reshape(b, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    np.matmul(attn.transpose(0, 1, 3, 2), gctx, out=gv)
    gscores = softmax_backward(gattn, attn)
    gscores *= scale
    np.matmul(gscores, k, out=gq)
    np.matmul(gscores.transpose(0, 1, 3, 2), q, out=gk)

    gw = x.reshape(-1, d).T @ g2
    gb = g2.sum(axis=0, keepdims=True)
    cols = {"q": slice(0, d), "k": slice(d, 2 * d), "v": slice(2 * d, 3 * d)}
    gx = g2[:, cols["q"]] @ p["wq"].T
    gx += g2[:, cols["v"]] @ p["wv"].T
    gx += g2[:, cols["k"]] @ p["wk"].T
    grads = {"wo": gwo, "bo": gbo}
    for name in ("q", "v", "k"):
        grads["w" + name] = gw[:, cols[name]]
        if name != "k":  # the key projection has no bias
            grads["b" + name] = gb[:, cols[name]]
    return gx.reshape(x.shape), grads


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood; returns (loss, probs) with probs cached."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise StructuralError(f"need (B, C) logits and (B,) labels, got {logits.shape}, {labels.shape}")
    c = logits.shape[1]
    if np.any(labels < 0) or np.any(labels >= c):
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise RangeError(f"label {bad} outside [0, {c})")
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)  # softmax_rows' numerator; its row sums also give the log-sum-exp
    total = e.sum(axis=1, keepdims=True)
    loss = float((m[:, 0] + np.log(total[:, 0]) - logits[np.arange(len(labels)), labels]).mean())
    e /= total
    return loss, e


def cross_entropy_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    g = probs.copy()
    g[np.arange(len(labels)), labels] -= 1.0
    g /= len(labels)
    return g


# --- parameters and optimizer ------------------------------------------------


class ParamSet:
    """Named 2D float64 parameters with gradient and AdamW moment buffers."""

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise StructuralError(f"parameter {name!r} must be 2D, got shape {arr.shape}")
        if name in self.values:
            raise StructuralError(f"duplicate parameter name {name!r}")
        self.values[name] = arr
        self.grads[name] = np.zeros_like(arr)
        self.m[name] = np.zeros_like(arr)
        self.v[name] = np.zeros_like(arr)
        return arr

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def accumulate(self, name: str, grad: np.ndarray):
        self.grads[name] += grad.reshape(self.grads[name].shape)


def adamw_step(params: ParamSet, lr: float, weight_decay: float = 0.0) -> None:
    """Decoupled weight decay followed by a bias-corrected Adam update."""
    for name, g in params.grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericFaultError(f"non-finite gradient in {name!r}")
    params.step += 1
    t = params.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p in params.values.items():
        g, m, v = params.grads[name], params.m[name], params.v[name]
        p *= 1.0 - lr * weight_decay
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def lr_at(epoch: int, base: float, start: int, every: int, factor: float) -> float:
    """Step schedule: halve (by ``factor``) at ``start`` and every ``every`` after."""
    if epoch < 0:
        raise RangeError(f"epoch must be >= 0, got {epoch}")
    if epoch < start:
        return base
    return base * factor ** (1 + (epoch - start) // every)


def grad_check(closure, params: ParamSet, h: float = 1e-5, samples_per_param: int = 4,
               rng=None, sample: str = "largest") -> float:
    """Worst relative error of analytic vs central-difference gradients.

    ``closure()`` must return the scalar loss and populate ``params.grads``
    deterministically. Per tensor, ``samples_per_param`` coordinates are
    probed; relative error denominators are floored at 1e-8. The default
    probes each tensor's largest-magnitude gradient coordinates: where the
    true gradient is near zero the central difference is pure roundoff and
    the comparison carries no information about backward correctness.
    ``sample="random"`` draws coordinates from ``rng`` instead.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    closure()
    analytic = {k: g.copy() for k, g in params.grads.items()}
    worst = 0.0
    for name, p in params.values.items():
        flat = p.reshape(-1)
        n = flat.size
        k = min(samples_per_param, n)
        if sample == "largest":
            idx = np.argsort(np.abs(analytic[name].reshape(-1)))[-k:]
        else:
            idx = rng.choice(n, size=k, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = closure()
            flat[i] = orig - h
            lm = closure()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            ga = analytic[name].reshape(-1)[i]
            rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
            worst = max(worst, rel)
    closure()  # leave grads consistent with the unperturbed parameters
    return worst


# --- checkpoint I/O ----------------------------------------------------------

_CKPT_MAGIC = b"SHRP"
_CKPT_VERSION = 1


def _pack_entry(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    return (
        struct.pack("<H", len(nb))
        + nb
        + struct.pack("<II", arr.shape[0], arr.shape[1])
        + arr.astype("<f8").tobytes()
    )


def _read_entry(buf: bytes, off: int):
    if len(buf) - off < 2:
        raise FormatError("truncated checkpoint entry")
    (nlen,) = struct.unpack_from("<H", buf, off)
    off += 2
    try:
        name = buf[off : off + nlen].decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"tensor name is not UTF-8: {e}") from e
    off += nlen
    if len(buf) - off < 8:
        raise FormatError("truncated checkpoint entry header")
    rows, cols = struct.unpack_from("<II", buf, off)
    off += 8
    nbytes = rows * cols * 8
    if len(buf) - off < nbytes:
        raise FormatError(f"truncated tensor data for {name!r}")
    arr = np.frombuffer(buf[off : off + nbytes], dtype="<f8").reshape(rows, cols).copy()
    return name, arr, off + nbytes


def save_checkpoint(path, params: ParamSet) -> None:
    """Atomic (write-temp-then-rename) binary dump of params + AdamW state."""
    parts = [_CKPT_MAGIC, struct.pack("<H", _CKPT_VERSION), struct.pack("<I", len(params.values))]
    for name, arr in params.values.items():
        parts.append(_pack_entry(name, arr))
    opt = [("m:" + n, params.m[n]) for n in params.values] + [
        ("v:" + n, params.v[n]) for n in params.values
    ]
    parts.append(struct.pack("<I", len(opt)))
    for name, arr in opt:
        parts.append(_pack_entry(name, arr))
    parts.append(struct.pack("<Q", params.step))
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(b"".join(parts))
    os.replace(tmp, path)


def load_checkpoint(path) -> ParamSet:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != _CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {buf[:4]!r}")
    if len(buf) < 10:
        raise FormatError(f"truncated checkpoint header ({len(buf)} of 10 bytes)")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != _CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (n,) = struct.unpack_from("<I", buf, 6)
    off = 10
    params = ParamSet()
    for _ in range(n):
        name, arr, off = _read_entry(buf, off)
        if name in params.values:
            raise FormatError(f"duplicate tensor name {name!r}")
        params.add(name, arr)
    if len(buf) - off < 4:
        raise FormatError("missing optimizer table")
    (nopt,) = struct.unpack_from("<I", buf, off)
    off += 4
    seen = set()
    for _ in range(nopt):
        name, arr, off = _read_entry(buf, off)
        kind, _, base = name.partition(":")
        if kind not in ("m", "v") or base not in params.values:
            raise FormatError(f"optimizer entry {name!r} has no matching parameter")
        if name in seen:
            raise FormatError(f"duplicate optimizer entry {name!r}")
        seen.add(name)
        if arr.shape != params.values[base].shape:
            raise CheckpointMismatchError(
                f"optimizer state {name!r} shape {arr.shape} != parameter shape {params.values[base].shape}"
            )
        (params.m if kind == "m" else params.v)[base] = arr
    if len(seen) != 2 * len(params.values):
        missing = next(f"{k}:{n}" for n in params.values for k in "mv" if f"{k}:{n}" not in seen)
        raise FormatError(f"optimizer table has no entry {missing!r}")
    if len(buf) - off < 8:
        raise FormatError("missing step counter")
    (params.step,) = struct.unpack_from("<Q", buf, off)
    off += 8
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes in checkpoint")
    return params
