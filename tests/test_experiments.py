import numpy as np
import pytest

from egohand import experiments
from egohand.errors import EmptyDatasetError, RangeError
from egohand.experiments import (
    EvalScene,
    _paired_mpjpe,
    ablation_desharpen,
    ablation_masking,
    make_eval_scenes,
    sweep_threshold,
)
from egohand.rangeseg import DepthMap, SegMask, desharpen_mask, range_mask
from egohand.synth import SynthParams, mask_quality

# bands whose midpoint sits exactly at 0.47 with a strict quality V-shape
SWEEP_PARAMS = SynthParams(arm_band=(0.485, 0.99), background_band=(0.05, 0.455))
T_LIST = [0.35, 0.39, 0.43, 0.47, 0.51]


@pytest.fixture(scope="module")
def scenes():
    return make_eval_scenes(SWEEP_PARAMS, seed=7, n_scenes=40)


def test_scene_determinism():
    a = make_eval_scenes(SWEEP_PARAMS, seed=3, n_scenes=2)
    b = make_eval_scenes(SWEEP_PARAMS, seed=3, n_scenes=2)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.norm.values, sb.norm.values)
        assert np.array_equal(sa.gt.values, sb.gt.values)


def test_sweep_rows_shape_and_v_shape(scenes):
    rows = sweep_threshold(SWEEP_PARAMS, T_LIST, "train", seed=0, scenes=scenes)
    assert [r[0] for r in rows] == T_LIST
    both = [r[3] for r in rows]
    assert int(np.argmin(both)) == T_LIST.index(0.47)
    # below-band thresholds keep clutter, above-band thresholds cut arm
    assert both[0] > both[3] and both[4] > both[3]


def test_single_threshold(scenes):
    rows = sweep_threshold(SWEEP_PARAMS, [0.47], "train", seed=1, scenes=scenes)
    assert len(rows) == 1 and rows[0][0] == 0.47


def test_infer_mode_flatter(scenes):
    train_rows = sweep_threshold(SWEEP_PARAMS, T_LIST, "train", seed=2, scenes=scenes)
    infer_rows = sweep_threshold(SWEEP_PARAMS, T_LIST, "infer", seed=2, scenes=scenes)
    spread = lambda rows: max(r[3] for r in rows) - min(r[3] for r in rows)
    assert spread(infer_rows) < 0.5 * spread(train_rows)


def test_numpy_threshold_lists(scenes):
    bank = scenes[:6]
    t_list = [0.35, 0.39, 0.43, 0.47, 0.51]
    want = repr(sweep_threshold(SWEEP_PARAMS, t_list, "infer", seed=3, scenes=bank))
    assert repr(sweep_threshold(SWEEP_PARAMS, np.array(t_list), "infer", seed=3, scenes=bank)) == want
    linspace = np.linspace(0.35, 0.51, 5)
    assert repr(sweep_threshold(SWEEP_PARAMS, linspace, "infer", seed=3, scenes=bank)) == repr(
        sweep_threshold(SWEEP_PARAMS, linspace.tolist(), "infer", seed=3, scenes=bank))
    with pytest.raises(ValueError, match="empty"):
        sweep_threshold(SWEEP_PARAMS, np.array([]), "train", seed=0, scenes=bank)


def test_bad_threshold_rejected(scenes):
    with pytest.raises(RangeError):
        sweep_threshold(SWEEP_PARAMS, [1.5], "train", seed=0, scenes=scenes)
    with pytest.raises(ValueError):
        sweep_threshold(SWEEP_PARAMS, [], "train", seed=0, scenes=scenes)
    with pytest.raises(ValueError):
        sweep_threshold(SWEEP_PARAMS, [0.4], "test", seed=0, scenes=scenes)


def test_masking_ablation_direction(scenes):
    res = ablation_masking(SWEEP_PARAMS, seeds=range(3), scenes=scenes)
    for masked, unmasked in res:
        assert masked < unmasked


def test_desharpen_ablation_direction(scenes):
    res = ablation_desharpen(SWEEP_PARAMS, radius=2, seeds=range(3), scenes=scenes)
    for sharp, blurred in res:
        assert blurred > sharp


def _summed_quality(mask, gt):
    """mask_quality as it summed boolean-indexed copies before binary masks were counted."""
    arm = gt.values
    n_arm = np.count_nonzero(arm)
    n_bg = arm.size - n_arm
    bg_kept = float(mask.values[~arm].sum() / n_bg) if n_bg else 0.0
    arm_lost = float((1.0 - mask.values[arm]).sum() / n_arm) if n_arm else 0.0
    return bg_kept, arm_lost


def _threshold_major_sweep(params, t_list, mode, seed, scenes):
    """sweep_threshold as it was: every scene's mask rebuilt for each threshold in turn."""
    rows = []
    for ti, t in enumerate(t_list):
        qualities = [_summed_quality(range_mask(sc.norm, t), sc.gt) for sc in scenes]
        if mode == "infer":
            d = params.infer_damping
            report = _paired_mpjpe(params, scenes, [(d * fb, d * fl) for fb, fl in qualities], seed)
        else:
            report = _paired_mpjpe(params, scenes, qualities, seed, ti)
        rows.append((float(t), *report))
    return rows


def _threshold_major_masking(params, seeds, scenes):
    masked = [_summed_quality(range_mask(sc.norm, params.band_midpoint), sc.gt) for sc in scenes]
    unmasked = [(1.0, 0.0)] * len(scenes)
    return [(_paired_mpjpe(params, scenes, masked, seed)[2], _paired_mpjpe(params, scenes, unmasked, seed)[2])
            for seed in seeds]


def test_scene_major_rows_equal_threshold_major_rows():
    bank = make_eval_scenes(SWEEP_PARAMS, seed=11, n_scenes=6)
    t_list = [0.51, 0.35, 0.47, 0.43, 0.35, 0.39]  # unsorted, 0.35 twice
    for seed in (0, 5):
        for mode in ("train", "infer"):
            got = sweep_threshold(SWEEP_PARAMS, t_list, mode, seed, bank)
            assert repr(got) == repr(_threshold_major_sweep(SWEEP_PARAMS, t_list, mode, seed, bank))
        assert repr(ablation_masking(SWEEP_PARAMS, [seed], bank)) == repr(
            _threshold_major_masking(SWEEP_PARAMS, [seed], bank))
    # a repeated threshold keeps its own noise key in train mode
    rows = sweep_threshold(SWEEP_PARAMS, t_list, "train", 0, bank)
    assert rows[1][0] == rows[4][0] and rows[1][1:] != rows[4][1:]


def _ablation_masking_by_hand(params, seeds, scenes):
    """ablation_masking with its per-seed pairing written out in place."""
    masked = [mask_quality(range_mask(sc.norm, params.band_midpoint), sc.gt) for sc in scenes]
    unmasked = [(1.0, 0.0)] * len(scenes)
    return [(_paired_mpjpe(params, scenes, masked, seed)[2], _paired_mpjpe(params, scenes, unmasked, seed)[2])
            for seed in seeds]


def _ablation_desharpen_by_hand(params, radius, seeds, scenes):
    """ablation_desharpen with its per-seed pairing written out in place."""
    sharp, blurred = [], []
    for sc in scenes:
        mask = range_mask(sc.norm, params.band_midpoint)
        sharp.append(mask_quality(mask, sc.gt))
        blurred.append(mask_quality(desharpen_mask(mask, radius), sc.gt))
    return [(_paired_mpjpe(params, scenes, sharp, seed)[2], _paired_mpjpe(params, scenes, blurred, seed)[2])
            for seed in seeds]


def test_ablations_equal_hand_written_pairing():
    bank = make_eval_scenes(SWEEP_PARAMS, seed=13, n_scenes=6)
    seeds = [0, 9]
    assert repr(ablation_masking(SWEEP_PARAMS, seeds, bank)) == repr(
        _ablation_masking_by_hand(SWEEP_PARAMS, seeds, bank))
    assert repr(ablation_desharpen(SWEEP_PARAMS, 2, seeds, bank)) == repr(
        _ablation_desharpen_by_hand(SWEEP_PARAMS, 2, seeds, bank))


def test_bad_threshold_rejected_before_any_mask(scenes, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "range_mask", lambda *a: calls.append(a) or range_mask(*a))
    for bad in (1.5, 0.0, float("nan")):
        with pytest.raises(RangeError, match="threshold must lie in"):
            sweep_threshold(SWEEP_PARAMS, [0.35, 0.47, bad], "train", seed=0, scenes=scenes)
    assert calls == []
    sweep_threshold(SWEEP_PARAMS, [0.35, 0.47], "infer", seed=0, scenes=scenes[:3])
    assert len(calls) == 6  # one mask per (scene, threshold)


def test_desharpen_ablation_across_map_shapes():
    """Scenes of differing map shapes each blur at their own shape."""
    bank = make_eval_scenes(SWEEP_PARAMS, seed=13, n_scenes=5)

    def subsampled(sc):
        v = sc.norm.values[::2, ::3]
        return EvalScene(sc.left, sc.right, DepthMap(v / v.max(), sc.norm.order, normalized=True),
                         SegMask(sc.gt.values[::2, ::3]))

    mixed = [bank[0], subsampled(bank[1]), subsampled(bank[2]), bank[3], bank[4]]
    assert repr(ablation_desharpen(SWEEP_PARAMS, 2, [0, 9], mixed)) == repr(
        _ablation_desharpen_by_hand(SWEEP_PARAMS, 2, [0, 9], mixed))


def test_repeated_desharpen_ablation_faults_in_no_fresh_pages(fresh_process_faults):
    # each scene's two 2 MiB blur maps reuse the pages the last scene freed, also across calls
    faults = fresh_process_faults("""
        from egohand.experiments import ablation_desharpen, make_eval_scenes
        from egohand.synth import SynthParams
        params = SynthParams()
        scenes = make_eval_scenes(params, seed=7, n_scenes=8)
    """, ["ablation_desharpen(params, 2, [0], scenes)"] * 2)
    assert faults[1] < 200, faults


def test_desharpen_ablation_of_no_scenes_is_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        ablation_desharpen(SWEEP_PARAMS, 2, [0], [])
