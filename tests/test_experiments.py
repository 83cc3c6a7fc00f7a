import numpy as np
import pytest

from egohand.errors import RangeError
from egohand.experiments import (
    ablation_desharpen,
    ablation_masking,
    make_eval_scenes,
    sweep_threshold,
)
from egohand.synth import SynthParams

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

