import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egohand import model as model_module
from egohand import nnkit
from egohand.errors import (
    CheckpointMismatchError,
    ConfigError,
    EmptyDatasetError,
    StructuralError,
)
from egohand.model import (
    ActionModel,
    ActionModelConfig,
    TrainHistory,
    _snapshot,
    config_from_lines,
    config_to_text,
    evaluate,
    prepare_eval_set,
    train,
)
from egohand.sequence import FRAME_DIM, SEQ_LEN

TINY = ActionModelConfig(
    d_model=16, heads=2, ff_width=32, n_classes=4, seed=3, batch_size=8,
    aug_rotation=0.2, aug_mask_prob=0.2, max_epochs=10,
)


def _raw_set(rng, cfg, n_per_class=4, distinguish_slot=5):
    data = []
    for label in range(cfg.n_classes):
        for _ in range(n_per_class):
            k = int(rng.integers(8, 35))
            f = rng.normal(0, 1.0, (k, FRAME_DIM))
            f[:, distinguish_slot] = 4.0 * label
            data.append((f, label))
    return data


class TestForward:
    def test_logit_shape_and_finiteness(self):
        m = ActionModel(TINY)
        x = np.random.default_rng(0).normal(0, 30, (1, SEQ_LEN, FRAME_DIM))
        logits, _ = m.forward_batch(x)
        assert logits.shape == (1, TINY.n_classes)
        assert np.all(np.isfinite(logits))

    def test_full_config_has_36_logits(self):
        m = ActionModel(ActionModelConfig(seed=0))
        logits, _ = m.forward_batch(np.zeros((1, SEQ_LEN, FRAME_DIM)))
        assert logits.shape == (1, 36)
        assert np.all(np.isfinite(logits))

    def test_input_shape_enforced(self):
        m = ActionModel(TINY)
        with pytest.raises(StructuralError):
            m.forward_batch(np.zeros((1, SEQ_LEN, FRAME_DIM - 1)))
        with pytest.raises(StructuralError):
            m.forward_batch(np.zeros((SEQ_LEN, FRAME_DIM)))
        with pytest.raises(StructuralError):
            m.forward_batch(np.zeros((2, SEQ_LEN + 1, FRAME_DIM)))

    def test_cls_output_shape_enforced(self):
        with pytest.raises(StructuralError):
            ActionModel(TINY).cls_output(np.zeros((2, SEQ_LEN + 1, FRAME_DIM)))

    def test_batch_invariance(self):
        m = ActionModel(TINY)
        rng = np.random.default_rng(1)
        x = rng.normal(0, 20, (7, SEQ_LEN, FRAME_DIM))
        batched, _ = m.forward_batch(x)
        for i in range(7):
            single, _ = m.forward_batch(x[i : i + 1])
            assert np.max(np.abs(batched[i] - single[0])) < 1e-12

    def test_zero_pos_cls_permutation_invariant(self):
        m = ActionModel(TINY)
        m.params.values["pos"][...] = 0.0
        rng = np.random.default_rng(2)
        x = rng.normal(0, 25, (1, SEQ_LEN, FRAME_DIM))
        base = m.cls_output(x)
        assert base.shape == (1, TINY.d_model)
        for _ in range(5):
            perm = rng.permutation(SEQ_LEN)
            out = m.cls_output(x[:, perm])
            assert np.max(np.abs(out - base)) < 1e-9

    def test_active_pos_breaks_permutation_invariance(self):
        m = ActionModel(TINY)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 25, (1, SEQ_LEN, FRAME_DIM))
        out = m.cls_output(x[:, rng.permutation(SEQ_LEN)])
        assert np.max(np.abs(out - m.cls_output(x))) > 1e-6


def _full_row_forward(m: ActionModel, x: np.ndarray):
    """(logits, CLS states) with every block run over all seq_len + 1 rows, as
    the trunk did before inference kept only the CLS row of the last block."""
    c, pv = m.cfg, m.params.values
    h = np.concatenate([np.broadcast_to(pv["cls"], (len(x), 1, c.d_model)),
                        nnkit.linear(x, pv["embed.w"], pv["embed.b"])], axis=1)
    h += pv["pos"]
    for i in range(c.blocks):
        p = f"block{i}."
        a1, _ = nnkit.layer_norm(h, pv[p + "ln1.g"], pv[p + "ln1.b"])
        attn_p = {nm: pv[p + "attn." + nm] for nm in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
        h2, _ = nnkit.multi_head_attention(a1, attn_p, c.heads)
        h2 += h
        a2, _ = nnkit.layer_norm(h2, pv[p + "ln2.g"], pv[p + "ln2.b"])
        f1g, _ = nnkit.gelu(nnkit.linear(a2, pv[p + "ff1.w"], pv[p + "ff1.b"]))
        h = nnkit.linear(f1g, pv[p + "ff2.w"], pv[p + "ff2.b"])
        h += h2
    cls_vec, _ = nnkit.layer_norm(h[:, 0, :], pv["final_ln.g"], pv["final_ln.b"])
    h1g, _ = nnkit.gelu(nnkit.linear(cls_vec, pv["head1.w"], pv["head1.b"]))
    return nnkit.linear(h1g, pv["head2.w"], pv["head2.b"]), cls_vec


class TestClsRowInference:
    """The last block's feed-forward half runs on the CLS row only."""

    def _model(self, seed=0):
        m = ActionModel(ActionModelConfig(seed=seed))
        scale_weights(m, 5.0)
        return m

    @pytest.mark.parametrize("b", [2, 3, 36, 64])
    def test_bytes_match_full_rows(self, b):
        m = self._model()
        x = np.random.default_rng(b).normal(0, 30, (b, SEQ_LEN, FRAME_DIM))
        logits_ref, cls_ref = _full_row_forward(m, x)
        assert m.forward_batch(x)[0].tobytes() == logits_ref.tobytes()
        assert m.cls_output(x).tobytes() == cls_ref.tobytes()

    def test_single_sequence_within_rounding(self):
        # with one row numpy runs the feed-forward GEMMs as vector-matrix
        # products, which sum in another order than the 21-row GEMMs
        m = self._model()
        x = np.random.default_rng(1).normal(0, 30, (1, SEQ_LEN, FRAME_DIM))
        logits_ref, cls_ref = _full_row_forward(m, x)
        for got, want in ((m.forward_batch(x)[0], logits_ref), (m.cls_output(x), cls_ref)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_predict_over_chunks_matches_full_row_argmax(self):
        m = self._model(seed=4)
        x = np.random.default_rng(5).normal(0, 30, (257, SEQ_LEN, FRAME_DIM))  # chunks of 256 and 1
        logits_ref, _ = _full_row_forward(m, x)
        top2 = np.sort(logits_ref, axis=1)[:, -2:]
        assert np.min(top2[:, 1] - top2[:, 0]) > 1e-9  # no near-tie the last chunk's rounding could flip
        np.testing.assert_array_equal(m.predict(x), logits_ref.argmax(axis=1))

    def test_last_block_gelu_sees_one_row_only(self, monkeypatch):
        shapes = []
        gelu = nnkit.gelu

        def probe(x, need_cache=False):
            shapes.append(x.shape)
            return gelu(x, need_cache)

        monkeypatch.setattr(nnkit, "gelu", probe)
        m = ActionModel(TINY)
        x = np.random.default_rng(6).normal(0, 30, (3, SEQ_LEN, FRAME_DIM))
        last = TINY.blocks - 1  # the block GELUs come first, then the head's
        m.predict(x)
        assert shapes[last] == (3, 1, TINY.ff_width)
        shapes.clear()
        m.loss_and_grads(x, np.array([0, 1, 2]))
        assert shapes[last] == (3, 1, TINY.ff_width)


def _full_row_step(m: ActionModel, x: np.ndarray, labels: np.ndarray):
    """(loss, logits, gradients) of one training step with every block run over
    all seq_len + 1 rows, as loss_and_grads did before the last block's
    feed-forward half kept only the CLS row."""
    c, pv = m.cfg, m.params.values
    grads = {name: np.zeros_like(v) for name, v in pv.items()}

    def acc(name, g):
        grads[name] += g.reshape(grads[name].shape)

    h = np.concatenate([np.broadcast_to(pv["cls"], (len(x), 1, c.d_model)),
                        nnkit.linear(x, pv["embed.w"], pv["embed.b"])], axis=1)
    h += pv["pos"]
    caches = []
    for i in range(c.blocks):
        p = f"block{i}."
        a1, c_ln1 = nnkit.layer_norm(h, pv[p + "ln1.g"], pv[p + "ln1.b"])
        attn_p = {nm: pv[p + "attn." + nm] for nm in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
        h2, c_attn = nnkit.multi_head_attention(a1, attn_p, c.heads)
        h2 += h
        a2, c_ln2 = nnkit.layer_norm(h2, pv[p + "ln2.g"], pv[p + "ln2.b"])
        f1g, c_gelu = nnkit.gelu(nnkit.linear(a2, pv[p + "ff1.w"], pv[p + "ff1.b"]), True)
        h = nnkit.linear(f1g, pv[p + "ff2.w"], pv[p + "ff2.b"])
        h += h2
        caches.append((c_ln1, c_attn, a2, c_ln2, c_gelu, f1g))
    cls_vec, c_lnf = nnkit.layer_norm(h[:, 0, :], pv["final_ln.g"], pv["final_ln.b"])
    h1g, c_head = nnkit.gelu(nnkit.linear(cls_vec, pv["head1.w"], pv["head1.b"]), True)
    logits = nnkit.linear(h1g, pv["head2.w"], pv["head2.b"])
    loss, probs = nnkit.cross_entropy(logits, labels)

    def lin(name, g, inp):
        g, gw, gb = nnkit.linear_backward(g, inp, pv[name + ".w"])
        acc(name + ".w", gw)
        acc(name + ".b", gb)
        return g

    def norm(name, g, cache):
        g, gg, gb = nnkit.layer_norm_backward(g, cache)
        acc(name + ".g", gg)
        acc(name + ".b", gb)
        return g

    g = nnkit.gelu_backward(lin("head2", nnkit.cross_entropy_backward(probs, labels), h1g), c_head)
    gh = np.zeros((len(x), c.seq_len + 1, c.d_model))
    gh[:, 0, :] = norm("final_ln", lin("head1", g, cls_vec), c_lnf)
    for i in reversed(range(c.blocks)):
        p = f"block{i}."
        c_ln1, c_attn, a2, c_ln2, c_gelu, f1g = caches[i]
        gh2 = norm(p + "ln2", lin(p + "ff1", nnkit.gelu_backward(lin(p + "ff2", gh, f1g), c_gelu), a2), c_ln2)
        gh2 += gh
        ga1, attn_grads = nnkit.multi_head_attention_backward(gh2, c_attn)
        for nm, arr in attn_grads.items():
            acc(p + "attn." + nm, arr)
        gh = norm(p + "ln1", ga1, c_ln1)
        gh += gh2
    acc("pos", gh.sum(axis=0))
    acc("cls", gh[:, 0, :].sum(axis=0, keepdims=True))
    gemb = gh[:, 1:, :].reshape(-1, c.d_model)
    acc("embed.w", x.reshape(-1, c.input_dim).T @ gemb)
    acc("embed.b", gemb.sum(axis=0, keepdims=True))
    return loss, logits, grads


class TestClsRowTraining:
    """A training step computes the rows the loss reads, with the bytes of the
    full-row step."""

    def _step(self, m, b, seed=None):
        x = np.random.default_rng(b if seed is None else seed).normal(0, 30, (b, SEQ_LEN, FRAME_DIM))
        labels = np.arange(b) % m.cfg.n_classes
        m.params.zero_grads()
        loss, logits = m.loss_and_grads(x, labels)
        return (loss, logits, m.params.grads), _full_row_step(m, x, labels)

    def test_bytes_match_full_rows(self):
        m = ActionModel(ActionModelConfig(seed=3))
        scale_weights(m, 5.0)
        # larger, smaller, then larger again
        for b in (2, 3, 16, 64, 65, 3, 16, 64):
            (loss, logits, grads), (loss_ref, logits_ref, grads_ref) = self._step(m, b)
            assert loss == loss_ref, b
            assert logits.tobytes() == logits_ref.tobytes(), b
            assert list(grads) == list(grads_ref)
            for name, g in grads.items():
                assert g.tobytes() == grads_ref[name].tobytes(), (b, name)

    def test_single_sequence_within_rounding(self):
        # one CLS row: numpy runs the last block's feed-forward GEMMs as vector-matrix products
        m = ActionModel(ActionModelConfig(seed=3))
        scale_weights(m, 5.0)
        (loss, logits, grads), (loss_ref, logits_ref, grads_ref) = self._step(m, 1)
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        for got, want in ((logits, logits_ref), *((grads[n], grads_ref[n]) for n in grads)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_returned_logits_are_fresh(self):
        m = ActionModel(TINY)
        (_, first, _), _ = self._step(m, 4)
        kept = first.copy()
        self._step(m, 4, seed=9)
        assert first.tobytes() == kept.tobytes()


def test_per_epoch_train_calls_fault_in_no_fresh_pages(fresh_process_faults):
    # each step's fresh arrays reuse the pages the last step freed, also across train calls
    faults = fresh_process_faults("""
        from egohand.model import ActionModel, ActionModelConfig, TrainHistory, train
        from egohand.sequence import encode_frames
        from egohand.synth import SynthParams, generate_dataset
        sets = {"train": [], "val": [], "test": []}
        for seq in generate_dataset(SynthParams(), classes=36, per_class=6, master_seed=3).sequences:
            sets[seq.split].append((encode_frames(seq), seq.action_label))
        cfg = ActionModelConfig(seed=1, max_epochs=4)
        m, history = ActionModel(cfg), TrainHistory()
    """, [f"train(sets['train'], sets['val'], cfg, model=m, start_epoch={e}, epochs={e + 1}, history=history)"
          for e in range(4)])
    assert max(faults[1:]) < 1000, faults


def scale_weights(m: ActionModel, factor: float) -> None:
    """Move off the tiny-init point: near-zero gradients sit at the FD
    noise floor of double precision, which would measure conditioning
    rather than backward correctness."""
    for name, p in m.params.values.items():
        leaf = name.rsplit(".", 1)[-1]
        if not (leaf == "g" or leaf.startswith("b")):
            p *= factor


class TestEndToEndGradients:
    def test_full_model_grad_check(self):
        cfg = ActionModelConfig(
            d_model=8, heads=2, ff_width=16, n_classes=5, seed=7, max_epochs=1
        )
        m = ActionModel(cfg)
        scale_weights(m, 10.0)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 10.0, (1, SEQ_LEN, FRAME_DIM))
        y = np.array([3])

        def closure():
            m.params.zero_grads()
            loss, _ = m.loss_and_grads(x, y)
            return loss

        err = nnkit.grad_check(closure, m.params, samples_per_param=3, rng=np.random.default_rng(0))
        assert err < 1e-4


def _file(text):
    """The numbered lines of a config file's ``text``."""
    return list(enumerate(text.splitlines(), start=1))


def _sets(*pairs):
    """Unnumbered ``key=value`` lines, as ``--set`` passes them."""
    return [(None, pair) for pair in pairs]


class TestConfig:
    def test_parse_and_overrides(self):
        text = "d_model = 32\nheads=4  # override\n\n# comment line\nbase_lr = 0.01\n"
        cfg = config_from_lines(_file(text))
        assert cfg.d_model == 32 and cfg.heads == 4 and cfg.base_lr == 0.01
        cfg2 = config_from_lines(_file(text) + _sets("batch_size=16", "aug_mask_prob=0.5"))
        assert cfg2.batch_size == 16 and cfg2.aug_mask_prob == 0.5 and cfg2.d_model == 32

    def test_later_line_wins_and_validation_waits_for_the_last(self):
        # the file alone fails the divisibility rule; its override mends it
        lines = _file("heads = 3\nd_model = 16\n")
        with pytest.raises(ConfigError, match="^d_model 16 not divisible by heads 3$"):
            config_from_lines(lines)
        cfg = config_from_lines(lines + _sets("d_model=24"))
        assert (cfg.heads, cfg.d_model) == (3, 24)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as ei:
            config_from_lines(_file("d_model = 32\nwidgets = 3\n"))
        assert ei.value.line == 2
        with pytest.raises(ConfigError) as ei:
            config_from_lines(_file("d_model = 32\n") + _sets("widgets=3"))
        assert ei.value.line is None and str(ei.value) == "unknown config key 'widgets'"

    @pytest.mark.parametrize("pair", ["", "  ", "# d_model=24", "d_model 24"])
    def test_override_without_key_and_value_is_config_error(self, pair):
        with pytest.raises(ConfigError, match="^expected 'key = value', got ") as ei:
            config_from_lines(_file("d_model = 32\n\n# comment\n") + _sets(pair))
        assert ei.value.line is None

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as ei:
            config_from_lines(_file("\nd_model = many\n"))
        assert ei.value.line == 2

    def test_round_trip_through_text(self):
        cfg = ActionModelConfig(d_model=64, heads=4, seed=11, base_lr=0.0005)
        assert config_from_lines(_file(config_to_text(cfg))) == cfg

    def test_head_divisibility_checked(self):
        with pytest.raises(ConfigError):
            config_from_lines(_file("d_model = 30\nheads = 4\n"))

    @pytest.mark.parametrize("heads", [0, -1, -4])
    def test_non_positive_heads_is_config_error(self, heads):
        with pytest.raises(ConfigError):
            config_from_lines(_file(f"heads = {heads}\n"))

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize(
        "key", ["d_model", "heads", "ff_width", "blocks", "n_classes", "seq_len", "batch_size", "schedule_every"]
    )
    def test_non_positive_size_is_config_error_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got {value}$"):
            config_from_lines(_file(f"{key} = {value}\n"))
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1"):
            config_from_lines(_sets(f"{key}={value}"))


    @pytest.mark.parametrize("key", ["base_lr", "schedule_factor", "weight_decay", "aug_rotation", "aug_mask_prob"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_is_config_error_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            config_from_lines(_sets(f"{key}={value}"))

    @pytest.mark.parametrize("key, value, rule", [
        ("base_lr", "0", "> 0"), ("base_lr", "-1", "> 0"),
        ("schedule_factor", "0", "> 0"),
        ("weight_decay", "-0.01", ">= 0"),
        ("aug_rotation", "-0.5", ">= 0"),
        ("aug_rotation", "3.1416", "<= pi"), ("aug_rotation", "1e308", "<= pi"),
        ("aug_mask_prob", "-0.1", "in [0, 1]"), ("aug_mask_prob", "1.5", "in [0, 1]"),
        ("max_epochs", "0", ">= 1"), ("max_epochs", "-3", ">= 1"),
    ])
    def test_out_of_range_value_is_config_error(self, key, value, rule):
        with pytest.raises(ConfigError, match=f"^{key} must be {re.escape(rule)}, got "):
            config_from_lines(_file(f"{key} = {value}\n"))

    def test_boundary_values_accepted(self):
        edges = _sets("weight_decay=0", "aug_rotation=0", "aug_mask_prob=0", "max_epochs=1", "schedule_factor=2")
        cfg = config_from_lines(edges)
        assert (cfg.weight_decay, cfg.aug_rotation, cfg.aug_mask_prob, cfg.max_epochs) == (0.0, 0.0, 0.0, 1)
        assert config_from_lines(edges + _sets("aug_mask_prob=1")).aug_mask_prob == 1.0
        assert config_from_lines(edges + _sets(f"aug_rotation={math.pi!r}")).aug_rotation == math.pi


_CONFIG_TEXT = config_to_text(ActionModelConfig())


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "model.cfg"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    at=st.floats(0.0, 1.0),
    drop=st.integers(0, 8) | st.integers(0, 200),
    junk=st.text(max_size=12) | st.text(alphabet="0123456789.+-_e= #\nabdhlmrs", max_size=12),
)
@example(at=_CONFIG_TEXT.index("heads = 4") / len(_CONFIG_TEXT), drop=9, junk="heads = 0")
def test_config_splices_raise_only_config_error(config_path, at, drop, junk):
    """Random text spliced into a valid config file: only ConfigError escapes."""
    i = int(at * len(_CONFIG_TEXT))
    config_path.write_text(_CONFIG_TEXT[:i] + junk + _CONFIG_TEXT[i + drop:])
    try:
        config_from_lines(_file(config_path.read_text()))
    except ConfigError:
        pass


class TestTraining:
    def test_separable_two_class_reaches_full_train_accuracy(self):
        cfg = ActionModelConfig(
            d_model=16, heads=2, ff_width=32, n_classes=2, seed=1, batch_size=8,
            aug_rotation=0.0, aug_mask_prob=0.0, max_epochs=50,
        )
        rng = np.random.default_rng(4)
        data = _raw_set(rng, cfg, n_per_class=8)
        res = train(data, data, cfg)
        assert max(row[2] for row in res.history.rows) == 1.0

    def test_same_seed_identical_history_and_checkpoint(self, tmp_path):
        rng = np.random.default_rng(5)
        data = _raw_set(rng, TINY)
        val = _raw_set(np.random.default_rng(6), TINY, n_per_class=2)
        r1 = train(data, val, TINY, epochs=4)
        r2 = train(data, val, TINY, epochs=4)
        assert r1.history.rows == r2.history.rows
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        nnkit.save_checkpoint(p1, r1.model.params)
        nnkit.save_checkpoint(p2, r2.model.params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lr_column_follows_schedule(self):
        # compressed schedule exercises two decays without long runs
        cfg = ActionModelConfig(
            d_model=8, heads=2, ff_width=16, n_classes=2, seed=2, batch_size=4,
            schedule_start=4, schedule_every=3, max_epochs=12,
        )
        data = _raw_set(np.random.default_rng(7), cfg, n_per_class=2)
        res = train(data, data, cfg)
        lrs = [row[4] for row in res.history.rows]
        expect = [nnkit.lr_at(e, cfg.base_lr, 4, 3, 0.5) for e in range(12)]
        assert lrs == expect
        assert lrs[3] == 0.001 and lrs[4] == 0.0005 and lrs[7] == 0.00025

    def test_paper_schedule_boundaries_via_lr_at(self):
        cfg = ActionModelConfig()
        for epoch, expect in ((0, 0.001), (500, 0.0005), (700, 0.00025)):
            assert nnkit.lr_at(epoch, cfg.base_lr, cfg.schedule_start, cfg.schedule_every, cfg.schedule_factor) == expect

    def test_resume_matches_uninterrupted(self, tmp_path):
        data = _raw_set(np.random.default_rng(8), TINY)
        val = _raw_set(np.random.default_rng(9), TINY, n_per_class=2)
        full = train(data, val, TINY, epochs=6)

        part = train(data, val, TINY, epochs=3)
        ck = tmp_path / "resume.bin"
        nnkit.save_checkpoint(ck, part.model.params)
        loaded = ActionModel(TINY, params=nnkit.load_checkpoint(ck))
        resumed = train(
            data, val, TINY, model=loaded, start_epoch=3, epochs=6, history=part.history
        )
        assert resumed.model.params.step == full.model.params.step
        for name in full.model.params.values:
            assert np.array_equal(
                resumed.model.params.values[name], full.model.params.values[name]
            )
        assert resumed.history.rows == full.history.rows

    def test_resume_keeps_the_best_found_after_the_resume_point(self, tmp_path):
        # the data of test_one_snapshot_per_improving_epoch: val_acc improves at epochs 0, 2 and 5
        cfg = dataclasses.replace(TINY, base_lr=0.01)
        data = _raw_set(np.random.default_rng(8), cfg)
        val = _raw_set(np.random.default_rng(9), cfg, n_per_class=2)
        full = train(data, val, cfg, epochs=8)

        part = train(data, val, cfg, epochs=3)
        nnkit.save_checkpoint(tmp_path / "resume.bin", part.model.params)
        loaded = ActionModel(cfg, params=nnkit.load_checkpoint(tmp_path / "resume.bin"))
        resumed = train(data, val, cfg, model=loaded, start_epoch=3, epochs=8, history=part.history)
        assert full.history.best_epoch == resumed.history.best_epoch == 5
        assert resumed.best.step == full.best.step
        for table in ("values", "m", "v"):
            want, got = getattr(full.best, table), getattr(resumed.best, table)
            assert list(got) == list(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (table, name)

    def test_snapshot_copies_tables_without_aliasing(self, tmp_path):
        data = _raw_set(np.random.default_rng(12), TINY)
        src = train(data, data, TINY, epochs=1).model.params
        snap = _snapshot(src)
        assert snap.step == src.step > 0
        for table in ("values", "m", "v"):
            a, b = getattr(src, table), getattr(snap, table)
            assert list(a) == list(b)
            for name in a:
                assert np.array_equal(a[name], b[name]) and not np.shares_memory(a[name], b[name])
        nnkit.save_checkpoint(tmp_path / "src.bin", src)
        nnkit.save_checkpoint(tmp_path / "snap.bin", snap)
        assert (tmp_path / "src.bin").read_bytes() == (tmp_path / "snap.bin").read_bytes()

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptyDatasetError):
            train([], [], TINY)

    def test_shuffle_is_seed_determined_not_order_determined(self):
        data = _raw_set(np.random.default_rng(10), TINY)
        val = _raw_set(np.random.default_rng(11), TINY, n_per_class=2)
        r1 = train(data, val, TINY, epochs=3)
        # training-set permutation with the same seed-derived shuffle
        perm = list(np.random.default_rng(0).permutation(len(data)))
        r2 = train([data[i] for i in perm], val, TINY, epochs=3)
        # same multiset of sequences, same seed: per-epoch sets coincide, so
        # accuracy trajectories may differ only through batch composition;
        # identical input order must reproduce identical history exactly
        r3 = train(data, val, TINY, epochs=3)
        assert r1.history.rows == r3.history.rows

    def test_validation_label_rejected_before_any_step(self):
        data = _raw_set(np.random.default_rng(13), TINY)
        val = [(frames, label) for frames, label in data[:3]] + [(data[0][0], TINY.n_classes)]
        m = ActionModel(TINY)
        with pytest.raises(StructuralError, match=re.escape("validation label 4 outside [0, 4)")):
            train(data, val, TINY, model=m, epochs=3)
        assert m.params.step == 0

    def test_one_snapshot_per_improving_epoch(self, monkeypatch, tmp_path):
        # at this rate and data val_acc improves at epochs 0, 2 and 5 and ties after
        cfg = dataclasses.replace(TINY, base_lr=0.01)
        data = _raw_set(np.random.default_rng(8), cfg)
        val = _raw_set(np.random.default_rng(9), cfg, n_per_class=2)
        calls = []
        real = model_module._snapshot
        monkeypatch.setattr(model_module, "_snapshot",
                            lambda params, **into: calls.append(params.step) or real(params, **into))
        res = train(data, val, cfg, epochs=8)
        accs = [row[3] for row in res.history.rows]
        improving = [e for e, acc in enumerate(accs) if acc > max(accs[:e], default=-1.0)]
        assert len(improving) >= 2 and improving[-1] < 7
        steps_per_epoch = -(-len(data) // cfg.batch_size)
        assert calls == [(e + 1) * steps_per_epoch for e in improving]
        assert res.history.best_epoch == improving[-1]
        # the snapshot holds the weights at the best epoch, not at the end of the call
        upto_best = train(data, val, cfg, epochs=improving[-1] + 1).model.params
        nnkit.save_checkpoint(tmp_path / "best.bin", res.best)
        nnkit.save_checkpoint(tmp_path / "upto.bin", upto_best)
        assert (tmp_path / "best.bin").read_bytes() == (tmp_path / "upto.bin").read_bytes()

    def test_resume_without_improvement_returns_no_best(self):
        # a vanishing rate keeps every prediction, so val_acc only ties the first epoch
        cfg = dataclasses.replace(TINY, base_lr=1e-12)
        data = _raw_set(np.random.default_rng(8), cfg)
        val = _raw_set(np.random.default_rng(9), cfg, n_per_class=2)
        part = train(data, val, cfg, epochs=2)
        assert part.best is not None
        resumed = train(data, val, cfg, model=part.model, start_epoch=2, epochs=8, history=part.history)
        assert len({row[3] for row in resumed.history.rows}) == 1
        assert resumed.best is None
        assert (resumed.history.best_epoch, resumed.history.best_val_acc) == (0, part.history.rows[0][3])


def _best_by_strict_update(val_accs):
    """The best (epoch, val_acc) as a running strict ``>`` update finds it."""
    best = (-1, -1.0)
    for epoch, acc in enumerate(val_accs):
        if acc > best[1]:
            best = (epoch, acc)
    return best


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=12))
@example([])
@example([0.5, 0.75, 0.75, 0.25])
@settings(max_examples=200, deadline=None)
def test_history_best_is_first_highest_row(val_accs):
    history = TrainHistory(rows=[(e, 1.0, 0.5, acc, 0.001) for e, acc in enumerate(val_accs)])
    assert (history.best_epoch, history.best_val_acc) == _best_by_strict_update(val_accs)


def test_history_stores_only_its_rows():
    assert [f.name for f in dataclasses.fields(TrainHistory)] == ["rows"]
    with pytest.raises(AttributeError):
        TrainHistory().best_epoch = 2


class TestEvaluate:
    def test_forced_correct_predictions(self):
        m = ActionModel(TINY)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(12, SEQ_LEN, FRAME_DIM))
        preds = m.predict(x)
        top1, conf = evaluate(m, x, preds)
        assert top1 == 1.0
        assert conf.sum() == 12
        assert np.all(conf == np.diag(np.diag(conf)))

    def test_three_of_four(self):
        m = ActionModel(TINY)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, SEQ_LEN, FRAME_DIM))
        preds = m.predict(x)
        labels = preds.copy()
        labels[0] = (labels[0] + 1) % TINY.n_classes
        top1, _ = evaluate(m, x, labels)
        assert top1 == 0.75

    def test_confusion_rows_are_ground_truth_counts(self):
        m = ActionModel(TINY)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(20, SEQ_LEN, FRAME_DIM))
        labels = rng.integers(0, TINY.n_classes, 20)
        _, conf = evaluate(m, x, labels)
        for c in range(TINY.n_classes):
            assert conf[c].sum() == int((labels == c).sum())

    def test_reorder_invariance(self):
        m = ActionModel(TINY)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(10, SEQ_LEN, FRAME_DIM))
        labels = rng.integers(0, TINY.n_classes, 10)
        a, _ = evaluate(m, x, labels)
        perm = rng.permutation(10)
        b, _ = evaluate(m, x[perm], labels[perm])
        assert a == b

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyDatasetError):
            evaluate(ActionModel(TINY), np.zeros((0, SEQ_LEN, FRAME_DIM)), np.zeros(0, dtype=int))


class TestCheckpointCompat:
    def test_save_load_round_trip(self, tmp_path):
        m = ActionModel(TINY)
        p = tmp_path / "m.bin"
        nnkit.save_checkpoint(p, m.params)
        loaded = ActionModel(TINY, params=nnkit.load_checkpoint(p))
        for name in m.params.values:
            assert np.array_equal(loaded.params.values[name], m.params.values[name])

    def test_wrong_d_model_rejected(self, tmp_path):
        m = ActionModel(TINY)
        p = tmp_path / "m.bin"
        nnkit.save_checkpoint(p, m.params)
        other = dataclasses.replace(TINY, d_model=32)
        with pytest.raises(CheckpointMismatchError):
            ActionModel(other, params=nnkit.load_checkpoint(p))

    def test_prepare_eval_set_shapes(self):
        data = _raw_set(np.random.default_rng(16), TINY, n_per_class=2)
        x, y = prepare_eval_set(data, TINY)
        assert x.shape == (len(data), SEQ_LEN, FRAME_DIM)
        assert y.shape == (len(data),)
