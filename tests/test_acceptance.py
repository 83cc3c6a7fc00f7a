"""Acceptance gate: every criterion at its stated tolerance.

One [ACCEPTANCE] line prints per criterion (live, bypassing capture).
The heavyweight fixtures (synthetic dataset, trained model, scene banks)
are session-scoped so the suite stays inside its runtime budgets.
"""

import time

import numpy as np
import pytest

from egohand import nnkit
from egohand.cli import main as cli_main
from egohand.experiments import (
    ablation_desharpen,
    ablation_masking,
    make_eval_scenes,
    sweep_threshold,
)
from egohand.geometry import (
    JOINT_COUNT,
    CameraIntrinsics,
    HandPose,
    lift_to_camera,
    mpjpe,
    project_to_image,
)
from egohand.model import (
    ActionModel,
    ActionModelConfig,
    evaluate,
    prepare_eval_set,
    train,
)
from egohand.rangeseg import normalize_depth, range_mask, range_mask_metric
from egohand.sequence import FRAME_DIM, GROUP_SLICES, SEQ_LEN, encode_frames
from egohand.synth import SynthParams, gen_scene_depth_metric, generate_dataset

pytestmark = pytest.mark.acceptance


def _pass(capsys, name, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"\n[ACCEPTANCE] {name}: PASS{suffix}", flush=True)


@pytest.fixture(scope="session")
def default_scenes():
    return make_eval_scenes(SynthParams(), seed=7, n_scenes=200)


@pytest.fixture(scope="session")
def raw_sets():
    params = SynthParams()
    ds = generate_dataset(params, classes=36, per_class=50, master_seed=0)
    sets = {"train": [], "val": [], "test": []}
    for seq in ds.sequences:
        sets[seq.split].append((encode_frames(seq), seq.action_label))
    return sets


@pytest.fixture(scope="session")
def trained(raw_sets):
    cfg = ActionModelConfig(seed=1, max_epochs=45)
    t0 = time.perf_counter()
    result = train(raw_sets["train"], raw_sets["val"], cfg)
    seconds = time.perf_counter() - t0
    return result, cfg, seconds


def test_geometry_round_trip(capsys):
    k = CameraIntrinsics(500.0, 480.0, 256.0, 250.0)
    rng = np.random.default_rng(0)
    n_poses = 10_000 // JOINT_COUNT + 1
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n_poses):
        joints = np.column_stack(
            [
                rng.uniform(0, 512, JOINT_COUNT),
                rng.uniform(0, 512, JOINT_COUNT),
                rng.uniform(50, 3000, JOINT_COUNT),
            ]
        )
        p = HandPose(joints)
        back = project_to_image(lift_to_camera(p, k), k)
        worst = max(worst, float(np.max(np.abs(back.joints - joints))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"round-trip error {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass(capsys, "geometry round-trip", f"worst {worst:.1e} px, {elapsed:.2f}s for 10k joints")


def test_mpjpe_oracle(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        a = HandPose(rng.uniform(-400, 400, (JOINT_COUNT, 3)) + [0, 0, 800])
        b = HandPose(rng.uniform(-400, 400, (JOINT_COUNT, 3)) + [0, 0, 800])
        loop = 0.0
        for j in range(JOINT_COUNT):
            d = a.joints[j] - b.joints[j]
            loop += (d[0] ** 2 + d[1] ** 2 + d[2] ** 2) ** 0.5
        worst = max(worst, abs(mpjpe(a, b) - loop / JOINT_COUNT))
    assert worst < 1e-12, f"disagreement {worst}"
    base = HandPose(rng.uniform(-200, 200, (JOINT_COUNT, 3)) + [0, 0, 600])
    shifted = HandPose(base.joints + np.array([3.0, 0.0, 4.0]))
    assert mpjpe(base, shifted) == 5.0
    _pass(capsys, "MPJPE oracle", f"worst vs loop {worst:.1e} mm over 1000 pairs")


def test_range_mask_oracle_equivalence(capsys, default_scenes):
    params = SynthParams()
    mismatches = 0
    for scene in default_scenes:
        mask = range_mask(scene.norm, params.band_midpoint)
        mismatches += int(np.sum(mask.values != scene.gt.values))
    assert mismatches == 0, f"{mismatches} mismatched pixels"
    # metric-mm route at t = 700 mm agrees with the normalized route
    for scene in default_scenes[:50]:
        metric, gt = gen_scene_depth_metric(scene.left, scene.right, params)
        mm = range_mask_metric(metric, 700.0)
        assert np.array_equal(mm.values, gt.values)
        via_norm = range_mask(normalize_depth(metric), 700.0 / metric.values.max())
        assert np.array_equal(mm.values, via_norm.values)
    _pass(capsys, "range-mask oracle equivalence", "0 mismatches over 200 scenes; mm path agrees")


def test_threshold_sweep_shape(capsys):
    t_list = [0.35, 0.39, 0.43, 0.47, 0.51]
    params = SynthParams(arm_band=(0.485, 0.99), background_band=(0.05, 0.455))
    assert params.band_midpoint == 0.47
    t0 = time.perf_counter()
    scenes = make_eval_scenes(params, seed=7, n_scenes=200)
    wins = 0
    train_spreads, infer_spreads = [], []
    for seed in range(10):
        rows = sweep_threshold(params, t_list, "train", seed, scenes)
        both = [r[3] for r in rows]
        wins += int(t_list[int(np.argmin(both))] == 0.47)
        train_spreads.append(max(both) - min(both))
        rows_i = sweep_threshold(params, t_list, "infer", seed, scenes)
        both_i = [r[3] for r in rows_i]
        infer_spreads.append(max(both_i) - min(both_i))
    elapsed = time.perf_counter() - t0
    assert wins >= 9, f"minimum at t=0.47 in only {wins}/10 runs"
    ratio = np.mean(infer_spreads) / np.mean(train_spreads)
    assert ratio < 0.5, f"infer/train spread ratio {ratio:.2f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _pass(
        capsys,
        "threshold-sweep shape",
        f"min at 0.47 in {wins}/10 runs, spread ratio {ratio:.2f}, {elapsed:.0f}s",
    )


def test_masking_improves_pose_error(capsys, default_scenes):
    params = SynthParams()
    results = ablation_masking(params, seeds=range(10), scenes=default_scenes)
    masked = np.array([r[0] for r in results])
    unmasked = np.array([r[1] for r in results])
    rel_improvement = float(np.mean((unmasked - masked) / unmasked))
    d = unmasked - masked
    z = float(d.mean() / (d.std(ddof=1) / np.sqrt(len(d))))  # one-sample z of the paired gains
    assert rel_improvement >= 0.20, f"only {rel_improvement:.1%} improvement"
    assert z > 3.0, f"significance z = {z:.2f}"
    _pass(
        capsys,
        "range masking improves pose error",
        f"{rel_improvement:.0%} mean improvement over 10 seeds, z = {z:.0f}",
    )


def test_desharpening_degrades(capsys, default_scenes):
    params = SynthParams()
    results = ablation_desharpen(params, radius=2, seeds=range(10), scenes=default_scenes)
    strictly_worse = sum(1 for sharp, blurred in results if blurred > sharp)
    assert strictly_worse == 10, f"blurred worse in only {strictly_worse}/10 runs"
    gap = float(np.mean([b - s for s, b in results]))
    _pass(capsys, "de-sharpening degrades", f"10/10 runs, mean gap {gap:.2f} mm")


def test_gradient_integrity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # per-layer finite-difference checks
    def fd(loss_fn, arr, h=1e-5):
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            o = flat[i]
            flat[i] = o + h
            lp = loss_fn()
            flat[i] = o - h
            lm = loss_fn()
            flat[i] = o
            gf[i] = (lp - lm) / (2 * h)
        return g

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))

    worst_layer = 0.0
    # linear
    x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(1, 5))
    tgt = rng.normal(size=(4, 5))
    loss = lambda: float(((nnkit.linear(x, w, b) - tgt) ** 2).sum())
    g = 2.0 * (nnkit.linear(x, w, b) - tgt)
    gx, gw, gb = nnkit.linear_backward(g, x, w)
    worst_layer = max(worst_layer, rel(gx, fd(loss, x)), rel(gw, fd(loss, w)), rel(gb, fd(loss, b)))
    # layer norm
    x = rng.normal(size=(3, 6))
    gamma, beta = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
    tgt = rng.normal(size=(3, 6))

    def ln_loss():
        y, _ = nnkit.layer_norm(x, gamma, beta)
        return float(((y - tgt) ** 2).sum())

    y, cache = nnkit.layer_norm(x, gamma, beta)
    gx, gg, gb = nnkit.layer_norm_backward(2.0 * (y - tgt), cache)
    worst_layer = max(worst_layer, rel(gx, fd(ln_loss, x)), rel(gg, fd(ln_loss, gamma)), rel(gb, fd(ln_loss, beta)))
    # attention
    p = {
        n: rng.normal(0, 0.5, size=(4, 4)) if n.startswith("w") else rng.normal(0, 0.5, size=(1, 4))
        for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
    }
    x = rng.normal(size=(1, 3, 4))
    tgt = rng.normal(size=(1, 3, 4))

    def at_loss():
        y, _ = nnkit.multi_head_attention(x, p, heads=2)
        return float(((y - tgt) ** 2).sum())

    y, cache = nnkit.multi_head_attention(x, p, heads=2)
    gx, grads = nnkit.multi_head_attention_backward(2.0 * (y - tgt), cache)
    worst_layer = max(worst_layer, rel(gx, fd(at_loss, x)))
    for name in p:
        worst_layer = max(worst_layer, rel(grads[name], fd(at_loss, p[name])))
    # cross entropy
    logits = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, 5)
    ce_loss = lambda: nnkit.cross_entropy(logits, labels)[0]
    _, probs = nnkit.cross_entropy(logits, labels)
    worst_layer = max(worst_layer, rel(nnkit.cross_entropy_backward(probs, labels), fd(ce_loss, logits)))
    assert worst_layer < 1e-6, f"per-layer error {worst_layer:.2e}"

    # full default-size 2-block model on a 20x135 input, generic point
    cfg = ActionModelConfig(seed=5)
    model = ActionModel(cfg)
    for name, arr in model.params.values.items():
        leaf = name.rsplit(".", 1)[-1]
        if not (leaf == "g" or leaf.startswith("b")):
            arr *= 10.0
    xb = rng.normal(0, 10.0, (1, SEQ_LEN, FRAME_DIM))
    yb = np.array([7])

    def closure():
        model.params.zero_grads()
        loss, _ = model.loss_and_grads(xb, yb)
        return loss

    full_err = nnkit.grad_check(closure, model.params, samples_per_param=3, rng=np.random.default_rng(0))
    assert full_err < 1e-4, f"full-model error {full_err:.2e}"

    # the harness must catch a deliberately corrupted backward
    def corrupted():
        loss = closure()
        model.params.grads["embed.w"] *= 1.01
        return loss

    fault_err = nnkit.grad_check(corrupted, model.params, samples_per_param=3, rng=np.random.default_rng(0))
    assert fault_err > 1e-3, f"fault injection undetected ({fault_err:.2e})"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(
        capsys,
        "gradient integrity",
        f"layers {worst_layer:.1e}, full model {full_err:.1e}, fault {fault_err:.1e}, {elapsed:.0f}s",
    )


def test_transformer_structural_invariant(capsys, trained, raw_sets):
    result, cfg, _ = trained
    # with positional embeddings zeroed, CLS output ignores frame order
    probe_model = ActionModel(ActionModelConfig(seed=9))
    probe_model.params.values["pos"][...] = 0.0
    rng = np.random.default_rng(3)
    x = rng.normal(0, 40, (1, SEQ_LEN, FRAME_DIM))
    base = probe_model.cls_output(x)
    worst = 0.0
    for _ in range(10):
        out = probe_model.cls_output(x[:, rng.permutation(SEQ_LEN)])
        worst = max(worst, float(np.max(np.abs(out - base))))
    assert worst < 1e-9, f"permutation leakage {worst:.2e}"

    # with them active, permuting frames flips at least one trained argmax
    best_model = ActionModel(cfg, params=result.best)
    x_test, _ = prepare_eval_set(raw_sets["test"], cfg)
    probes = x_test[:50]
    before = best_model.predict(probes)
    perm = np.random.default_rng(4).permutation(SEQ_LEN)
    after = best_model.predict(probes[:, perm, :])
    changed = int((before != after).sum())
    assert changed >= 1, "no argmax changed under frame permutation"
    _pass(
        capsys,
        "transformer structural invariant",
        f"zero-pos leakage {worst:.1e}; permutation changed {changed}/50 argmaxes",
    )


def test_end_to_end_learning(capsys, trained, raw_sets):
    result, cfg, seconds = trained
    assert len(result.history.rows) <= 800
    assert seconds < 600.0, f"training took {seconds:.0f}s"
    best_model = ActionModel(cfg, params=result.best)
    x_test, y_test = prepare_eval_set(raw_sets["test"], cfg)
    top1, _ = evaluate(best_model, x_test, y_test)
    assert top1 >= 0.95, f"test top-1 {top1:.4f}"
    x_masked = x_test.copy()
    x_masked[:, :, GROUP_SLICES["label"]] = 0.0
    top1_masked, _ = evaluate(best_model, x_masked, y_test)
    assert top1_masked >= 0.80, f"label-masked top-1 {top1_masked:.4f}"
    _pass(
        capsys,
        "end-to-end learning",
        f"test top-1 {top1:.3f}, label-masked {top1_masked:.3f}, "
        f"{len(result.history.rows)} epochs in {seconds:.0f}s",
    )


def test_command_determinism(capsys, tmp_path):
    def run_pair(cmd_builder, outputs):
        digests = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir(exist_ok=True)
            assert cli_main(cmd_builder(base)) == 0
            digests.append([(p, (base / p).read_bytes()) for p in outputs])
        for (pa, da), (pb, db) in zip(*digests):
            assert da == db, f"{pa} differs between reruns"

    run_pair(
        lambda base: [
            "synth", "--classes", "3", "--per-class", "4", "--seed", "11",
            "--scene-frames", "2", "--out", str(base / "tree"),
        ],
        ["tree/poses.ndjson", "tree/manifest.csv", "tree/scenes/000000.dmap",
         "tree/scenes/000000.gtmask.dmap", "tree/scenes/000000.ppm"],
    )
    run_pair(
        lambda base: [
            "sweep-threshold", "--data", str(base / "tree"), "--t-list", "0.4,0.475,0.55",
            "--scenes", "4", "--seed", "2", "--out", str(base / "sweep.csv"),
        ],
        ["sweep.csv", "sweep.svg"],
    )
    run_pair(
        lambda base: [
            "train", "--data", str(base / "tree"), "--seed", "3", "--epochs", "2",
            "--set", "d_model=16", "--set", "heads=2", "--set", "ff_width=32",
            "--set", "batch_size=4", "--out", str(base / "run"),
        ],
        ["run/checkpoint.bin", "run/last.bin", "run/history.csv", "run/config.snapshot.cfg"],
    )
    run_pair(
        lambda base: ["plot", "--csv", str(base / "sweep.csv"), "--out", str(base / "chart.svg")],
        ["chart.svg"],
    )
    run_pair(
        lambda base: ["encode", "--in", str(base / "tree"), "--out", str(base / "enc.ndjson")],
        ["enc.ndjson"],
    )
    run_pair(
        lambda base: [
            "segment", "--depth", str(base / "tree" / "scenes"),
            "--frames", str(base / "tree" / "scenes"), "--t", "0.475",
            "--out", str(base / "seg"),
        ],
        ["seg/000000.mask.dmap", "seg/000000.seg.ppm", "seg/mask_stats.csv"],
    )
    run_pair(
        lambda base: [
            "eval-action", "--data", str(base / "tree"), "--checkpoint", str(base / "run" / "checkpoint.bin"),
            "--split", "test", "--out", str(base / "confusion.csv"),
        ],
        ["confusion.csv"],
    )
    _pass(
        capsys,
        "command determinism",
        "synth/sweep/train/plot/encode/segment/eval-action byte-identical on rerun",
    )


def test_format_round_trips_and_rejections(capsys, tmp_path):
    from egohand.rangeseg import DepthMap, load_depth, save_depth
    from egohand.sequence import load_dataset, save_dataset

    rng = np.random.default_rng(5)
    # .dmap
    dm = DepthMap(rng.uniform(0, 4, (16, 16)))
    p1, p2 = tmp_path / "a.dmap", tmp_path / "b.dmap"
    save_depth(p1, dm)
    save_depth(p2, load_depth(p1))
    assert p1.read_bytes() == p2.read_bytes()
    # NDJSON dataset via synth fixtures
    params = SynthParams()
    ds = generate_dataset(params, classes=2, per_class=3, master_seed=3)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    save_dataset(d1, ds)
    save_dataset(d2, load_dataset(d1))
    assert (d1 / "poses.ndjson").read_bytes() == (d2 / "poses.ndjson").read_bytes()
    assert (d1 / "manifest.csv").read_bytes() == (d2 / "manifest.csv").read_bytes()
    # checkpoint
    model = ActionModel(ActionModelConfig(d_model=16, heads=2, ff_width=32, seed=0))
    c1, c2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    nnkit.save_checkpoint(c1, model.params)
    nnkit.save_checkpoint(c2, nnkit.load_checkpoint(c1))
    assert c1.read_bytes() == c2.read_bytes()

    # malformed inputs exit with the specified codes
    bad_dmap = tmp_path / "bad.dmap"
    bad_dmap.write_bytes(b"JUNKJUNKJUNKJUNK")
    (tmp_path / "bad.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    assert cli_main(
        ["segment", "--depth", str(bad_dmap), "--frames", str(tmp_path), "--t", "0.5",
         "--out", str(tmp_path / "o")]
    ) == 3
    assert cli_main(
        ["segment", "--depth", str(tmp_path / "missing.dmap"), "--frames", str(tmp_path),
         "--t", "0.5", "--out", str(tmp_path / "o")]
    ) == 2
    assert cli_main(["plot", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")]) == 2
    assert cli_main(["sweep-threshold", "--data", str(d1), "--t-list", "", "--out", str(tmp_path / "s.csv")]) == 4
    _pass(capsys, "format round-trips", "NDJSON/.dmap/checkpoint byte-stable; bad inputs rejected")
