"""Seeded segmentation experiments: threshold sweeps and mask ablations.

Scenes are regenerated deterministically from (params, scene seed), so no
depth maps need to touch disk. Train-mode sweeps redraw the estimator noise
per threshold (each threshold gets its own retrained estimator); infer-mode
sweeps reuse one noise realization across thresholds and damp the mask-
quality sensitivity by ``params.infer_damping`` (a deployed model partially
compensates input perturbations it was not retrained for).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError
from .geometry import HandPose, mpjpe_report
from .rangeseg import DepthMap, SegMask, desharpen_mask, normalize_depth, range_mask
from .synth import SynthParams, gen_frame, gen_scene_depth, keyed_rng, mask_quality, noisy_pose_oracle
from .sequence import N_CLASSES


@dataclass
class EvalScene:
    left: HandPose
    right: HandPose
    norm: DepthMap
    gt: SegMask


def make_eval_scenes(params: SynthParams, seed: int, n_scenes: int) -> list[EvalScene]:
    """Deterministic single-frame scenes cycling through all classes."""
    if n_scenes < 1:
        raise RangeError(f"n_scenes must be >= 1, got {n_scenes}")
    scenes = []
    for i in range(n_scenes):
        left, right, _ = gen_frame(i % N_CLASSES, keyed_rng(seed, 2, i), params)
        pseudo, gt = gen_scene_depth(left, right, params)
        scenes.append(EvalScene(left, right, normalize_depth(pseudo), gt))
    return scenes


def _sharp_qualities(scenes: list[EvalScene], t_list) -> list[list[tuple[float, float]]]:
    """Per-scene (f_bg, f_loss) of the sharp range mask, one list per threshold.

    Each scene's masks are built and scored while its map is still in cache.
    """
    per_scene = [[mask_quality(range_mask(scene.norm, t), scene.gt) for t in t_list] for scene in scenes]
    return [[q[ti] for q in per_scene] for ti in range(len(t_list))]


def _paired_mpjpe(params: SynthParams, scenes: list[EvalScene], qualities, seed: int, *key: int):
    """(left, right, both) MPJPE of the simulated estimator at per-scene
    (f_bg, f_loss); scene ``si`` draws its noise from ``(seed, *key, si)``, so
    two calls with the same seed and key see the same noise."""
    preds, gts = [], []
    for si, (scene, (f_bg, f_loss)) in enumerate(zip(scenes, qualities)):
        rng = keyed_rng(seed, 3, *key, si)
        pred_l = noisy_pose_oracle(scene.left, f_bg, params, rng, arm_loss_fraction=f_loss)
        pred_r = noisy_pose_oracle(scene.right, f_bg, params, rng, arm_loss_fraction=f_loss)
        preds.append((pred_l, pred_r))
        gts.append((scene.left, scene.right))
    return mpjpe_report(preds, gts)


def sweep_threshold(
    params: SynthParams,
    t_list,
    mode: str,
    seed: int,
    scenes: list[EvalScene],
) -> list[tuple[float, float, float, float]]:
    """Rows of (t, mpjpe_left, mpjpe_right, mpjpe_both) across thresholds."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if len(t_list) == 0:
        raise ValueError("threshold list is empty")
    for t in t_list:
        if not (0.0 < t < 1.0):
            raise RangeError(f"threshold must lie in (0, 1), got {t}")
    rows = []
    for ti, (t, qualities) in enumerate(zip(t_list, _sharp_qualities(scenes, t_list))):
        if mode == "infer":
            d = params.infer_damping
            report = _paired_mpjpe(params, scenes, [(d * fb, d * fl) for fb, fl in qualities], seed)
        else:
            report = _paired_mpjpe(params, scenes, qualities, seed, ti)
        rows.append((float(t), *report))
    return rows


def _paired_arms(params: SynthParams, scenes: list[EvalScene], arms, seeds) -> list[tuple]:
    """Per seed, the MPJPE(both) of each arm's per-scene (f_bg, f_loss), in arm order."""
    return [tuple(_paired_mpjpe(params, scenes, arm, seed)[2] for arm in arms) for seed in seeds]


def ablation_masking(params: SynthParams, seeds, scenes: list[EvalScene]):
    """Paired per-seed MPJPE(both): range-masked vs unmasked full scene.

    The masked arm uses the band-midpoint threshold; the unmasked arm keeps
    the whole background (clutter fraction 1). Noise draws are paired per
    (seed, scene) so the comparison isolates the sigma difference.
    """
    masked, = _sharp_qualities(scenes, [params.band_midpoint])
    unmasked = [(1.0, 0.0)] * len(scenes)
    return _paired_arms(params, scenes, (masked, unmasked), seeds)


def ablation_desharpen(params: SynthParams, radius: int, seeds, scenes: list[EvalScene]):
    """Paired per-seed MPJPE(both): sharp band-midpoint mask vs its blur."""
    sharp, blurred = [], []
    for scene in scenes:
        mask = range_mask(scene.norm, params.band_midpoint)
        sharp.append(mask_quality(mask, scene.gt))
        blurred.append(mask_quality(desharpen_mask(mask, radius), scene.gt))
    return _paired_arms(params, scenes, (sharp, blurred), seeds)
