import numpy as np
import pytest
from scipy.special import erf

from egohand import nnkit
from egohand.errors import (
    CheckpointMismatchError,
    FormatError,
    NumericFaultError,
    RangeError,
    StructuralError,
)


def _fd_grad(loss_fn, arr, h=1e-5):
    """Central finite differences of loss_fn with respect to every entry of arr."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gf[i] = (lp - lm) / (2 * h)
    return g


def _rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8))


class TestLinear:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        y = nnkit.linear(x, np.eye(4), np.zeros((1, 4)))
        assert np.array_equal(y, x)

    def test_hand_arithmetic(self):
        y = nnkit.linear(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]), np.array([[5.0]]))
        assert y.shape == (1, 1) and y[0, 0] == 16.0

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            nnkit.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((1, 5)))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=(1, 5))
        target = rng.normal(size=(4, 5))

        def loss():
            return float(((nnkit.linear(x, w, b) - target) ** 2).sum())

        g = 2.0 * (nnkit.linear(x, w, b) - target)
        gx, gw, gb = nnkit.linear_backward(g, x, w)
        assert _rel(gx, _fd_grad(loss, x)) < 1e-6
        assert _rel(gw, _fd_grad(loss, w)) < 1e-6
        assert _rel(gb, _fd_grad(loss, b)) < 1e-6

    def test_batched_3d_matches_2d(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 7, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=(1, 4))
        batched = nnkit.linear(x, w, b)
        for i in range(6):
            assert np.max(np.abs(batched[i] - nnkit.linear(x[i], w, b))) < 1e-12


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        y, _ = nnkit.layer_norm(np.full((2, 5), 3.7), np.ones((1, 5)), np.zeros((1, 5)))
        assert np.max(np.abs(y)) < 1e-3  # eps guards the zero-variance row

    def test_hand_arithmetic_population_variance(self):
        # row [1, 3]: mean 2, population var 1 -> [-1, 1]
        y, _ = nnkit.layer_norm(np.array([[1.0, 3.0]]), np.ones((1, 2)), np.zeros((1, 2)), eps=1e-12)
        assert np.max(np.abs(y - [[-1.0, 1.0]])) < 1e-6

    def test_row_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 10, (4, 64))
        y, _ = nnkit.layer_norm(x, np.ones((1, 64)), np.zeros((1, 64)), eps=1e-10)
        assert np.max(np.abs(y.mean(axis=1))) < 1e-9
        assert np.max(np.abs((y * y).mean(axis=1) - 1.0)) < 1e-6

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 5, (3, 16))
        g1, b1 = np.ones((1, 16)), np.zeros((1, 16))
        y1, _ = nnkit.layer_norm(x, g1, b1, eps=1e-12)
        y2, _ = nnkit.layer_norm(x * 37.0, g1, b1, eps=1e-12)
        assert np.max(np.abs(y1 - y2)) < 1e-9

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        gamma = rng.normal(size=(1, 6))
        beta = rng.normal(size=(1, 6))
        target = rng.normal(size=(3, 6))

        def loss():
            y, _ = nnkit.layer_norm(x, gamma, beta)
            return float(((y - target) ** 2).sum())

        y, cache = nnkit.layer_norm(x, gamma, beta)
        gx, gg, gb = nnkit.layer_norm_backward(2.0 * (y - target), cache)
        assert _rel(gx, _fd_grad(loss, x)) < 1e-6
        assert _rel(gg, _fd_grad(loss, gamma)) < 1e-6
        assert _rel(gb, _fd_grad(loss, beta)) < 1e-6


class TestSoftmax:
    def test_symmetric_row(self):
        assert np.allclose(nnkit.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_hand_arithmetic(self):
        out = nnkit.softmax_rows(np.log(np.array([[1.0, 3.0]])))
        assert np.max(np.abs(out - [[0.25, 0.75]])) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = nnkit.softmax_rows(rng.normal(0, 30, (20, 9)))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert p.min() >= 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 8))
        assert np.max(np.abs(nnkit.softmax_rows(x) - nnkit.softmax_rows(x + 123.0))) < 1e-12


class TestAttention:
    def _params(self, rng, d):
        return {
            name: rng.normal(0, 0.5, size=(d, d)) if name.startswith("w") else rng.normal(0, 0.5, size=(1, d))
            for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
        }

    def test_single_token_weight_is_one(self):
        rng = np.random.default_rng(8)
        d = 4
        p = self._params(rng, d)
        x = rng.normal(size=(1, 1, d))
        y, cache = nnkit.multi_head_attention(x, p, heads=2)
        attn = cache[4]
        assert attn.shape == (1, 2, 1, 1)
        assert np.allclose(attn, 1.0)
        v = nnkit.linear(x, p["wv"], p["bv"])
        expected = nnkit.linear(v, p["wo"], p["bo"])
        assert np.max(np.abs(y - expected)) < 1e-12

    def test_identical_tokens_identical_rows(self):
        rng = np.random.default_rng(9)
        d = 8
        p = self._params(rng, d)
        x = np.tile(rng.normal(size=(1, 1, d)), (1, 5, 1))
        y, _ = nnkit.multi_head_attention(x, p, heads=4)
        assert np.max(np.abs(y - y[:, :1])) < 1e-12

    def test_head_divisibility(self):
        rng = np.random.default_rng(10)
        with pytest.raises(StructuralError):
            nnkit.multi_head_attention(rng.normal(size=(1, 3, 6)), self._params(rng, 6), heads=4)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        b, t, d, h = 2, 3, 4, 2
        p = self._params(rng, d)
        x = rng.normal(size=(b, t, d))
        target = rng.normal(size=(b, t, d))

        def loss():
            y, _ = nnkit.multi_head_attention(x, p, heads=h)
            return float(((y - target) ** 2).sum())

        y, cache = nnkit.multi_head_attention(x, p, heads=h)
        gx, grads = nnkit.multi_head_attention_backward(2.0 * (y - target), cache)
        assert _rel(gx, _fd_grad(loss, x)) < 1e-5
        for name in p:
            assert _rel(grads[name], _fd_grad(loss, p[name])) < 1e-5, name

    @pytest.mark.parametrize("b", [2, 5])
    def test_leading_rows_projection_keeps_their_bytes(self, b):
        # one CLS row per sequence still makes a GEMM with B >= 2 rows
        rng = np.random.default_rng(14)
        p = self._params(rng, 32)
        x = rng.normal(size=(b, 21, 32))
        y, cache = nnkit.multi_head_attention(x, p, 4)
        y1, cache1 = nnkit.multi_head_attention(x, p, 4, rows=1)
        assert y1.shape == (b, 1, 32) and y1.tobytes() == y[:, :1].tobytes()
        for got, want in zip(_arrays(cache1), _arrays(cache)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("b", [1, 3])
    def test_forward_bytes_match_stacked_key_projection(self, b, heads):
        rng = np.random.default_rng(13)
        p = self._params(rng, 32)
        x = rng.normal(size=(b, 21, 32))
        y, cache = nnkit.multi_head_attention(x, p, heads)
        y_ref, cache_ref = _ref_attention_stacked_keys(x, p, heads)
        assert y.tobytes() == y_ref.tobytes()
        for got, want in zip(_arrays(cache), _arrays(cache_ref)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("b", [1, 3])
    def test_backward_bytes_match_hand_written_key_path(self, b, heads):
        rng = np.random.default_rng(12)
        p = self._params(rng, 8)
        x, g = rng.normal(size=(b, 5, 8)), rng.normal(size=(b, 5, 8))
        _, cache = nnkit.multi_head_attention(x, p, heads)
        gx, grads = nnkit.multi_head_attention_backward(g, cache)
        gx_ref, grads_ref = _ref_attention_backward(g, cache)
        assert gx.tobytes() == gx_ref.tobytes()
        assert list(grads) == list(grads_ref)
        for name, grad in grads.items():
            assert grad.tobytes() == grads_ref[name].tobytes(), name


@pytest.mark.parametrize("b", [1, 2, 7, 64, 65, 256])
def test_fused_qkv_bytes_match_three_gemms(b):
    # the model's width, heads and tokens: one GEMM over [wq|wk|wv] and one
    # x.T @ [gq|gk|gv] against three GEMMs each
    rng = np.random.default_rng(b)
    p = TestAttention()._params(rng, 128)
    x, g = rng.normal(size=(b, 21, 128)), rng.normal(size=(b, 21, 128))
    y, cache = nnkit.multi_head_attention(x, p, 4)
    y_ref, cache_ref = _ref_attention_stacked_keys(x, p, 4)
    assert y.tobytes() == y_ref.tobytes()
    for got, want in zip(cache[1:4], cache_ref[1:4]):  # q, k, v
        assert got.tobytes() == want.tobytes()
    gx, grads = nnkit.multi_head_attention_backward(g, cache)
    gx_ref, grads_ref = _ref_attention_backward(g, cache_ref)
    assert gx.tobytes() == gx_ref.tobytes()
    for name in ("wq", "bq", "wk", "wv", "bv"):
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name


class TestCrossEntropy:
    def test_uniform_logits_is_log_c(self):
        loss, _ = nnkit.cross_entropy(np.zeros((3, 36)), np.array([0, 7, 35]))
        assert abs(loss - np.log(36.0)) < 1e-12

    def test_confident_logit_limit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        loss, _ = nnkit.cross_entropy(logits, np.array([2]))
        assert loss < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(RangeError):
            nnkit.cross_entropy(np.zeros((2, 4)), np.array([1, 4]))
        with pytest.raises(RangeError):
            nnkit.cross_entropy(np.zeros((1, 4)), np.array([-1]))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, 5)

        def loss():
            return nnkit.cross_entropy(logits, labels)[0]

        _, probs = nnkit.cross_entropy(logits, labels)
        g = nnkit.cross_entropy_backward(probs, labels)
        assert _rel(g, _fd_grad(loss, logits)) < 1e-7

    def test_byte_identical_to_separate_log_sum_exp_and_softmax(self):
        # reference: a log-sum-exp with its own exp pass, and softmax_rows for the probabilities
        rng = np.random.default_rng(13)
        for trial in range(300):
            b, c = int(rng.integers(1, 40)), int(rng.integers(1, 50))
            logits = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (b, c))
            labels = rng.integers(0, c, b)
            m = logits.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
            want_loss = float((lse - logits[np.arange(b), labels]).mean())
            loss, probs = nnkit.cross_entropy(logits, labels)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), trial
            assert probs.tobytes() == nnkit.softmax_rows(logits).tobytes(), trial


class TestAdamW:
    def _ps(self, value):
        ps = nnkit.ParamSet()
        ps.add("p", np.array([[value]]))
        return ps

    def test_zero_gradient_is_identity(self):
        ps = self._ps(1.23)
        nnkit.adamw_step(ps, lr=0.001, weight_decay=0.0)
        assert ps.values["p"][0, 0] == 1.23

    def test_first_step_magnitude(self):
        # bias corrections cancel at step 1: delta = -lr * 1 / (1 + eps)
        ps = self._ps(0.0)
        ps.grads["p"][0, 0] = 1.0
        nnkit.adamw_step(ps, lr=0.001, weight_decay=0.0)
        assert abs(ps.values["p"][0, 0] + 0.001 / (1.0 + 1e-8)) < 1e-15
        assert ps.step == 1

    def test_matches_independent_scalar_loop(self):
        # quadratic loss 0.5*(p - 3)^2, gradient p - 3
        ps = self._ps(0.0)
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.004
        for _ in range(10):
            ps.grads["p"][0, 0] = ps.values["p"][0, 0] - 3.0
            nnkit.adamw_step(ps, lr, weight_decay=wd)

        # reference AdamW recurrence written independently on plain floats
        p, m, v = 0.0, 0.0, 0.0
        for t in range(1, 11):
            g = p - 3.0
            p = p * (1.0 - lr * wd)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            p -= lr * mhat / (vhat**0.5 + eps)
        assert abs(ps.values["p"][0, 0] - p) < 1e-12

    def test_nonfinite_gradient_faults(self):
        ps = self._ps(0.0)
        ps.grads["p"][0, 0] = np.nan
        with pytest.raises(NumericFaultError):
            nnkit.adamw_step(ps, 0.001)

    def test_zero_decay_leaves_the_update_bytes(self):
        # multiplying by 1.0 - lr * 0.0 is exact, so no decay branch is needed
        rng = np.random.default_rng(4)
        p = rng.normal(size=(3, 5))
        p[0, :2] = (-0.0, 0.0)
        ps = nnkit.ParamSet()
        ps.add("w", p.copy())
        m = v = np.zeros_like(p)
        for t in range(1, 4):
            g = rng.normal(size=p.shape)
            g[0, :2] = 0.0
            ps.zero_grads()
            ps.accumulate("w", g)
            nnkit.adamw_step(ps, 0.01)
            # the Adam update with no decay term at all
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            p = p - 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert ps.values["w"].tobytes() == p.tobytes()

    def test_decay_applied_before_update(self):
        ps = self._ps(10.0)
        nnkit.adamw_step(ps, lr=0.1, weight_decay=0.5)  # zero grad: only decay acts
        assert abs(ps.values["p"][0, 0] - 10.0 * (1 - 0.1 * 0.5)) < 1e-15


# Reference formulas: each layer written as one expression, in the operation
# order the in-place layers must reproduce bit for bit.


def _ref_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _ref_gelu_backward(g, x):
    phi = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return g * (0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi)


def _ref_layer_norm(x, gamma, beta, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _ref_layer_norm_backward(g, cache):
    xhat, inv, gamma = cache
    gxhat = g * gamma
    gx = inv * (
        gxhat - gxhat.mean(axis=-1, keepdims=True) - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )
    lead = tuple(range(g.ndim - 1))
    return gx, (g * xhat).sum(axis=lead).reshape(1, -1), g.sum(axis=lead).reshape(1, -1)


def _ref_softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ref_softmax_backward(g, p):
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def _ref_attention_stacked_keys(x, p, heads):
    """multi_head_attention with the key projection as a stack of B per-sequence GEMMs."""
    b, t, d = x.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    q = nnkit.linear(x, p["wq"], p["bq"]).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    k = (x @ p["wk"]).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    v = nnkit.linear(x, p["wv"], p["bv"]).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    attn = _ref_softmax_rows(q @ k.transpose(0, 1, 3, 2) * scale)
    merged = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return nnkit.linear(merged, p["wo"], p["bo"]), (x, q, k, v, attn, merged, p, heads, scale)


def _ref_attention_backward(g, cache):
    """multi_head_attention_backward with the key GEMMs written out beside linear_backward."""
    x, q, k, v, attn, merged, p, heads, scale = cache
    b, t, d = x.shape
    dh = d // heads
    gmerged, gwo, gbo = nnkit.linear_backward(g, merged, p["wo"])
    gctx = gmerged.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    gattn = gctx @ v.transpose(0, 1, 3, 2)
    gv = attn.transpose(0, 1, 3, 2) @ gctx
    gscores = nnkit.softmax_backward(gattn, attn)
    gscores *= scale
    gq = gscores @ k
    gk = gscores.transpose(0, 1, 3, 2) @ q

    def unhead(a):
        return a.transpose(0, 2, 1, 3).reshape(b, t, d)

    gx = np.zeros_like(x)
    grads = {"wo": gwo, "bo": gbo}
    for name, ghead in (("q", gq), ("v", gv)):
        gi, gw, gb = nnkit.linear_backward(unhead(ghead), x, p["w" + name])
        gx += gi
        grads["w" + name] = gw
        grads["b" + name] = gb
    gk2 = unhead(gk).reshape(-1, d)
    gx += (gk2 @ p["wk"].T).reshape(x.shape)
    grads["wk"] = x.reshape(-1, d).T @ gk2
    return gx, grads


def _ref_adamw_step(values, grads, m, v, step, lr, beta1, beta2, eps, weight_decay):
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    for name, p in values.items():
        g = grads[name]
        p *= 1.0 - lr * weight_decay
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


# batch x tokens x width of the feed-forward and model layers, and a short last batch
SHAPES = [(64, 22, 256), (64, 22, 128), (16, 22, 256)]


def _call_unchanged(fn, *args):
    """fn(*args), asserting no array inside args changed."""
    before = [np.copy(a) for a in _arrays(args)]
    out = fn(*args)
    for a, b in zip(_arrays(args), before):
        assert np.array_equal(a, b), f"{fn.__name__} wrote into an argument"
    return out


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return []


@pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, s)) for s in SHAPES])
class TestBitIdentity:
    def _data(self, shape, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 2.0, shape), rng.normal(size=shape)

    def test_gelu(self, shape):
        x, g = self._data(shape)
        y, cache = _call_unchanged(nnkit.gelu, x, True)
        assert np.array_equal(y, _ref_gelu(x))
        assert np.array_equal(_call_unchanged(nnkit.gelu, x)[0], y)
        assert nnkit.gelu(x)[1] is None
        gx = _call_unchanged(nnkit.gelu_backward, g, cache)
        assert np.array_equal(gx, _ref_gelu_backward(g, x))

    def test_layer_norm(self, shape):
        x, g = self._data(shape)
        rng = np.random.default_rng(1)
        gamma, beta = rng.normal(size=(1, shape[-1])), rng.normal(size=(1, shape[-1]))
        y, cache = _call_unchanged(nnkit.layer_norm, x, gamma, beta)
        y_ref, cache_ref = _ref_layer_norm(x, gamma, beta)
        assert np.array_equal(y, y_ref)
        for a, b in zip(cache, cache_ref):
            assert np.array_equal(a, b)
        grads = _call_unchanged(nnkit.layer_norm_backward, g, cache)
        for a, b in zip(grads, _ref_layer_norm_backward(g, cache_ref)):
            assert np.array_equal(a, b)

    def test_softmax(self, shape):
        x, g = self._data(shape)
        p = _call_unchanged(nnkit.softmax_rows, x)
        assert np.array_equal(p, _ref_softmax_rows(x))
        assert np.array_equal(_call_unchanged(nnkit.softmax_backward, g, p), _ref_softmax_backward(g, p))

    def test_adamw_step(self, shape):
        rng = np.random.default_rng(2)
        d = shape[-1]
        shapes = {"w": (d, d // 2), "b": (1, d), "pos": shape[1:]}
        values = {k: rng.normal(size=s) for k, s in shapes.items()}
        ps = nnkit.ParamSet()
        for k, a in values.items():
            ps.add(k, a.copy())
        m = {k: np.zeros_like(a) for k, a in values.items()}
        v = {k: np.zeros_like(a) for k, a in values.items()}
        for step in range(1, 4):
            grads = {k: rng.normal(size=a.shape) for k, a in values.items()}
            ps.zero_grads()
            for k, a in grads.items():
                ps.accumulate(k, a)
            nnkit.adamw_step(ps, 1e-3, weight_decay=0.01)
            _ref_adamw_step(values, grads, m, v, step, 1e-3, 0.9, 0.999, 1e-8, 0.01)
            for k in values:
                assert np.array_equal(ps.values[k], values[k])
                assert np.array_equal(ps.m[k], m[k]) and np.array_equal(ps.v[k], v[k])


class TestNoAliasing:
    """Layers leave their arguments and the caches they returned untouched."""

    def test_linear(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.normal(size=(4, 5, 6)), rng.normal(size=(6, 3)), rng.normal(size=(1, 3))
        g = rng.normal(size=(4, 5, 3))
        _call_unchanged(nnkit.linear, x, w, b)
        _call_unchanged(nnkit.linear_backward, g, x, w)

    def test_attention(self):
        rng = np.random.default_rng(4)
        p = TestAttention()._params(rng, 8)
        x, g = rng.normal(size=(3, 5, 8)), rng.normal(size=(3, 5, 8))
        _, cache = _call_unchanged(nnkit.multi_head_attention, x, p, 2)
        _call_unchanged(nnkit.multi_head_attention_backward, g, cache)

    def test_cross_entropy(self):
        rng = np.random.default_rng(5)
        logits, labels = rng.normal(size=(6, 4)), rng.integers(0, 4, 6)
        _, probs = _call_unchanged(nnkit.cross_entropy, logits, labels)
        _call_unchanged(nnkit.cross_entropy_backward, probs, labels)


# the paper's schedule: halve at epoch 500 and every 200 epochs after
PAPER_SCHEDULE = (500, 200, 0.5)


class TestLrSchedule:
    def test_paper_table(self):
        assert nnkit.lr_at(0, 0.001, *PAPER_SCHEDULE) == 0.001
        assert nnkit.lr_at(499, 0.001, *PAPER_SCHEDULE) == 0.001
        assert nnkit.lr_at(500, 0.001, *PAPER_SCHEDULE) == 0.0005
        assert nnkit.lr_at(700, 0.001, *PAPER_SCHEDULE) == 0.00025
        assert nnkit.lr_at(900, 0.001, *PAPER_SCHEDULE) == 0.000125

    def test_non_increasing_with_exact_breakpoints(self):
        prev = np.inf
        for e in range(1200):
            lr = nnkit.lr_at(e, 0.001, *PAPER_SCHEDULE)
            assert lr <= prev
            if e in (500, 700, 900, 1100):
                assert lr == prev / 2
            prev = lr

    def test_negative_epoch(self):
        with pytest.raises(RangeError):
            nnkit.lr_at(-1, 0.001, *PAPER_SCHEDULE)


class TestGradCheck:
    def _linear_setup(self):
        rng = np.random.default_rng(13)
        ps = nnkit.ParamSet()
        w = ps.add("w", rng.normal(size=(3, 2)))
        b = ps.add("b", rng.normal(size=(1, 2)))
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))

        def closure():
            y = nnkit.linear(x, ps.values["w"], ps.values["b"])
            g = 2.0 * (y - target)
            _, gw, gb = nnkit.linear_backward(g, x, ps.values["w"])
            ps.grads["w"][...] = gw
            ps.grads["b"][...] = gb
            return float(((y - target) ** 2).sum())

        return ps, closure

    def test_linear_closure_passes(self):
        ps, closure = self._linear_setup()
        assert nnkit.grad_check(closure, ps, samples_per_param=6) < 1e-6

    def test_corrupted_backward_detected(self):
        ps, closure = self._linear_setup()

        def corrupted():
            loss = closure()
            ps.grads["w"] *= 1.01
            return loss

        assert nnkit.grad_check(corrupted, ps, samples_per_param=6) > 1e-3


class TestCheckpoint:
    def _params(self):
        rng = np.random.default_rng(14)
        ps = nnkit.ParamSet()
        ps.add("alpha", rng.normal(size=(3, 4)))
        ps.add("beta", rng.normal(size=(1, 7)))
        ps.grads["alpha"][...] = 1.0
        nnkit.adamw_step(ps, 0.01)
        return ps

    def test_save_load_save_byte_identical(self, tmp_path):
        ps = self._params()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        nnkit.save_checkpoint(p1, ps)
        loaded = nnkit.load_checkpoint(p1)
        assert loaded.step == ps.step
        for name in ps.values:
            assert np.array_equal(loaded.values[name], ps.values[name])
            assert np.array_equal(loaded.m[name], ps.m[name])
            assert np.array_equal(loaded.v[name], ps.v[name])
        nnkit.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_truncation_rejected(self, tmp_path):
        ps = self._params()
        p = tmp_path / "ck.bin"
        nnkit.save_checkpoint(p, ps)
        raw = p.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            nnkit.load_checkpoint(bad)
        bad.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            nnkit.load_checkpoint(bad)

    def test_optimizer_shape_mismatch(self, tmp_path):
        # hand-build a checkpoint whose moment tensor shape disagrees
        import struct

        ps = nnkit.ParamSet()
        ps.add("w", np.ones((2, 2)))
        buf = b"SHRP" + struct.pack("<H", 1) + struct.pack("<I", 1)
        buf += nnkit._pack_entry("w", np.ones((2, 2)))
        buf += struct.pack("<I", 1)
        buf += nnkit._pack_entry("m:w", np.ones((3, 3)))
        buf += struct.pack("<Q", 0)
        p = tmp_path / "mis.bin"
        p.write_bytes(buf)
        with pytest.raises(CheckpointMismatchError):
            nnkit.load_checkpoint(p)
