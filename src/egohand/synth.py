"""Synthetic egocentric scenes and actions with exact ground truth.

Replaces the heavy perception stack in experiments: class-templated hand
motion generates 3D poses with constant bone lengths; a capsule rasterizer
turns them into pseudo-depth maps whose arm and background values live in
disjoint bands, so a ground-truth segmentation mask exists by construction
and any threshold inside the band gap reproduces it exactly.

The simulated pose estimator degrades with mask quality: keypoint noise
sigma grows linearly with the unmasked-background fraction (clutter
confuses the estimator) and with the masked-away arm fraction (lost hand
pixels starve it). Everything is a pure function of (params, seed):
``keyed_rng(seed, *key)`` derives every seeded stream but the per-sequence one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _kernels
from .errors import DatasetFormatError, EgohandError, RangeError, StructuralError
from .geometry import (
    JOINT_COUNT,
    JOINT_PARENTS,
    CameraIntrinsics,
    HandPose,
    absent_pose,
    project_points,
    rotate_points_2d,
)
from .rangeseg import CLOSER_IS_LARGER, CLOSER_IS_SMALLER, DepthMap, SegMask, save_depth, save_mask, save_ppm
from .reports import write_json
from .sequence import N_CLASSES, Dataset, FrameRecord, ObjectObs, SequenceRecord, save_dataset

N_OBJECT_LABELS = 8
PARAMS_FILE = "params.json"  # a fixture tree's master seed and SynthParams

# bone lengths in mm (wrist->base, then three phalanges), per finger
DEFAULT_BONES = {
    "thumb": (45.0, 35.0, 30.0, 25.0),
    "index": (85.0, 40.0, 25.0, 20.0),
    "middle": (88.0, 45.0, 28.0, 22.0),
    "ring": (82.0, 40.0, 26.0, 20.0),
    "pinky": (75.0, 30.0, 20.0, 18.0),
}

# per finger, thumb..pinky: splay angle (rad) about the pointing direction, and the share
# of the curl its k-th segment takes as pitch (curl * k) * gain (the thumb bends less);
# curl * (k * gain) rounds differently
_FINGER_SPLAY = np.array([-1.05, -0.30, 0.0, 0.28, 0.60])[:, None]
_CURL_GAIN = np.array([0.35, 1.0, 1.0, 1.0, 1.0])[:, None]

# one capsule per joint-parent edge, then wrist -> forearm end (row 21 of the projected points)
_CAPSULE_FROM = np.array(JOINT_PARENTS[1:] + (0,))
_CAPSULE_TO = np.arange(1, JOINT_COUNT + 1)
# capsule half-thickness in mm: by segment position within each finger chain, then the forearm
_CAPSULE_RADII_MM = np.array((15.0, 10.0, 8.0, 7.0) * len(DEFAULT_BONES) + (26.0,))
_FOREARM_LENGTH_FACTOR = 2.2
# schematic frame colours: background, then arm
_SCHEMATIC_PALETTE = np.array([(38, 44, 54), (201, 178, 153)], dtype=np.uint8)


def _json_like(value, default) -> bool:
    """Whether JSON ``value`` has the layout and number types of ``default``; a tuple reads as a list."""
    if isinstance(default, (list, tuple, dict)):
        if type(value) is not (dict if isinstance(default, dict) else list) or len(value) != len(default):
            return False
        if isinstance(default, dict):
            return all(k in value and _json_like(value[k], v) for k, v in default.items())
        return all(map(_json_like, value, default))
    return type(value) is int or (type(value) is float and type(default) is float)


@dataclass
class SynthParams:
    image_size: int = 512
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 256.0
    cy: float = 256.0
    arm_band: tuple = (0.55, 0.95)
    background_band: tuple = (0.05, 0.40)
    background_mm_band: tuple = (900.0, 2500.0)
    bone_scale: float = 0.6
    bones: dict = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_BONES.items()})
    noise_sigma0: float = 8.0
    noise_clutter_gain: float = 60.0
    noise_loss_gain: float = 120.0
    infer_damping: float = 0.3
    frames_range: tuple = (12, 40)

    def __post_init__(self):
        if not (self.arm_band[0] > self.background_band[1]):
            raise StructuralError(
                f"arm band {self.arm_band} must sit above background band {self.background_band}"
            )
        if not (0 < self.background_band[0] < self.background_band[1]):
            raise StructuralError(f"bad background band {self.background_band}")
        if not (self.arm_band[0] < self.arm_band[1] <= 1.0):
            raise StructuralError(f"bad arm band {self.arm_band}")
        for finger, lengths in self.bones.items():
            if not all(l > 0 for l in lengths):  # NaN fails too
                raise StructuralError(f"bones[{finger!r}] lengths must be > 0, got {list(lengths)}")
        if self.image_size <= 0:
            raise RangeError(f"image_size must be positive, got {self.image_size}")
        lo, hi = self.frames_range
        if not 1 <= lo <= hi:
            raise RangeError(f"frames_range must satisfy 1 <= lo <= hi, got {self.frames_range}")
        if not 0.0 <= self.infer_damping <= 1.0:
            raise RangeError(f"infer_damping must lie in [0, 1], got {self.infer_damping}")
        for key in ("fx", "fy", "bone_scale"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value > 0):
                raise RangeError(f"{key} must be finite and positive, got {value}")
        for key in ("noise_sigma0", "noise_clutter_gain", "noise_loss_gain"):
            value = getattr(self, key)
            if not value >= 0:  # NaN fails too
                raise RangeError(f"{key} must be non-negative, got {value}")
        self.intrinsics = CameraIntrinsics(self.fx, self.fy, self.cx, self.cy)

    @property
    def band_midpoint(self) -> float:
        return (self.background_band[1] + self.arm_band[0]) / 2.0

    @classmethod
    def from_dict(cls, d: dict) -> "SynthParams":
        """Inverse of ``asdict`` via JSON; an unknown, missing or malformed field raises DatasetFormatError."""
        defaults = asdict(cls())
        for key in sorted(set(d) | set(defaults)):
            kind = "unknown" if key not in defaults else "missing" if key not in d else None
            if kind or not _json_like(d[key], defaults[key]):
                raise DatasetFormatError(f"{kind or 'malformed'} params field {key!r}")
        return cls(**{key: tuple(v) if isinstance(defaults[key], tuple) else v for key, v in d.items()})


# --- hand skeleton ----------------------------------------------------------


def _hand_local(bones: dict, scale: float, curl, mirror: bool) -> np.ndarray:
    """21 joints of one hand in its local frame (wrist at origin, mm), one hand per ``curl``.

    Fingers point along -y; ``curl`` pitches successive phalanges toward +z.
    Built as a right hand, mirrored in x for the left. Each segment direction
    is unit length, so bone lengths are exact for any curl. A scalar curl
    gives a (21, 3) hand, a vector of curls a (len(curl), 21, 3) stack.
    """
    lengths = np.array([bones[finger] for finger in DEFAULT_BONES], dtype=np.float64)
    pitch = np.asarray(curl)[..., None, None] * np.arange(4.0) * _CURL_GAIN
    direction = np.stack(
        [np.sin(_FINGER_SPLAY) * np.cos(pitch), -np.cos(_FINGER_SPLAY) * np.cos(pitch), np.sin(pitch)], axis=-1
    )
    # each chain walks out from the +0.0 wrist, so a -0.0 first step lands on +0.0
    chains = np.cumsum(direction * (lengths * scale)[:, :, None], axis=-2) + 0.0
    lead = chains.shape[:-3]
    joints = np.concatenate([np.zeros((*lead, 1, 3)), chains.reshape(*lead, -1, 3)], axis=-2)
    if mirror:
        joints[..., 0] *= -1.0
    return joints


def _place_hand(local: np.ndarray, yaw: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Hands (frames, 21, 3) turned by ``yaw`` (frames,) about z and moved to ``center`` (frames, 3)."""
    out = local.copy()
    out[..., :2] = rotate_points_2d(local[..., :2], yaw[:, None])
    return out + center[:, None, :]


# --- class motion templates --------------------------------------------------


@dataclass
class MotionTemplate:
    """Deterministic per-class motion signature over normalized time."""

    object_label: int
    left_present: bool
    right_present: bool
    base_left: np.ndarray
    base_right: np.ndarray
    freqs: np.ndarray  # f1 (x), f2 (y), f3 (z), f4 (yaw), f5 (curl)
    phases: np.ndarray
    amp_xy: float
    amp_z: float
    curl0: float
    yaw0: float
    box_size: tuple


def class_template(class_id: int) -> MotionTemplate:
    if not (0 <= class_id < N_CLASSES):
        raise RangeError(f"class id must lie in [0, {N_CLASSES}), got {class_id}")
    c = class_id
    alpha = 2.0 * np.pi * c / N_CLASSES
    ring = 55.0
    base_left = np.array(
        [-82.0 + ring * np.cos(alpha), 18.0 + 0.55 * ring * np.sin(alpha), 545.0 + 28.0 * np.cos(2 * alpha)]
    )
    base_right = np.array(
        [82.0 + ring * np.cos(alpha + 1.1), -12.0 + 0.55 * ring * np.sin(alpha + 2.3), 565.0 - 28.0 * np.sin(alpha)]
    )
    freqs = np.array(
        [
            0.6 + 0.3 * (c % 4),
            0.5 + 0.25 * ((c // 4) % 3),
            0.4 + 0.2 * ((c // 12) % 3),
            0.7 + 0.15 * (c % 5),
            0.35 + 0.1 * (c % 3),
        ]
    )
    phases = alpha * np.array([1.0, 2.0, 3.0, 1.5, 0.7])
    return MotionTemplate(
        object_label=c % N_OBJECT_LABELS,
        left_present=c % 9 != 4,
        right_present=c % 9 != 7,
        base_left=base_left,
        base_right=base_right,
        freqs=freqs,
        phases=phases,
        amp_xy=26.0,
        amp_z=22.0,
        curl0=0.30 + 0.5 * ((c * 7) % N_CLASSES) / N_CLASSES,
        yaw0=0.25 * np.sin(alpha * 1.7),
        box_size=(46.0 + 4.0 * (c % 5), 36.0 + 3.0 * (c % 7)),
    )


@dataclass
class _SequenceJitter:
    center_offset: np.ndarray
    amp_scale: float
    phase_offset: float
    curl_offset: float


def _draw_jitter(rng) -> _SequenceJitter:
    return _SequenceJitter(
        center_offset=rng.uniform(-6.0, 6.0, size=3),
        amp_scale=rng.uniform(0.9, 1.1),
        phase_offset=rng.uniform(-0.5, 0.5),
        curl_offset=rng.uniform(-0.05, 0.05),
    )


def _motion(tpl: MotionTemplate, jit: _SequenceJitter, tau: np.ndarray, p: SynthParams):
    """Ground-truth (left, right, object) frames, one per normalized time in ``tau``."""
    # each product and sum keeps the association of a frame-by-frame evaluation, so frames keep their bytes
    osc = np.sin(2.0 * np.pi * tpl.freqs * tau[:, None] + (tpl.phases + jit.phase_offset))
    offset = jit.amp_scale * (np.array([tpl.amp_xy, tpl.amp_xy, tpl.amp_z]) * osc[:, :3])
    yaw = tpl.yaw0 + 0.30 * osc[:, 3]
    curl = np.clip(tpl.curl0 + jit.curl_offset + 0.15 * osc[:, 4], 0.05, 1.1)

    hands = []  # (frames, 21, 3) joints per present hand, None for an absent one
    for present, base, mirror, sgn in (
        (tpl.left_present, tpl.base_left, True, 1.0),
        (tpl.right_present, tpl.base_right, False, -1.0),
    ):
        if not present:
            hands.append(None)
            continue
        center = base + jit.center_offset + offset * np.array([sgn, 1.0, sgn])
        hands.append(_place_hand(_hand_local(p.bones, p.bone_scale, curl, mirror), sgn * yaw, center))
    # every joint is projected (z > 0 checked), the wrists' (u, v) kept
    k = p.intrinsics
    wrists_uv = [project_points(h.reshape(-1, 3), k)[::JOINT_COUNT, :2] for h in hands if h is not None]
    bc = np.mean(wrists_uv, axis=0) if wrists_uv else np.array([p.cx, p.cy])
    bc = bc + 18.0 * osc[:, 3:]
    bw, bh = tpl.box_size
    margin = 2.0
    bc[:, 0] = np.clip(bc[:, 0], bw / 2 + margin, p.image_size - bw / 2 - margin)
    bc[:, 1] = np.clip(bc[:, 1], bh / 2 + margin, p.image_size - bh / 2 - margin)
    # corners clockwise from the top-left
    corners = bc[:, None, :] + np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) * (bw / 2, bh / 2)
    left, right = ([HandPose(j) for j in h] if h is not None else [absent_pose() for _ in tau] for h in hands)
    return [(lp, rp, ObjectObs(box, tpl.object_label)) for lp, rp, box in zip(left, right, corners)]


def gen_hand_sequence(class_id: int, rng, p: SynthParams):
    """Sampled ground-truth frames for one action instance.

    Returns (frames, length) where frames is a list of (left HandPose,
    right HandPose, ObjectObs). Bone lengths are constant across the
    sequence and all joints project inside the image.
    """
    tpl = class_template(class_id)
    jit = _draw_jitter(rng)
    length = int(rng.integers(p.frames_range[0], p.frames_range[1] + 1))
    tau0 = rng.uniform(0.0, 0.3)
    return _motion(tpl, jit, tau0 + np.arange(length) / max(length - 1, 1), p), length


def gen_frame(class_id: int, rng, p: SynthParams):
    """One ground-truth frame at a random phase (for per-frame experiments)."""
    tpl = class_template(class_id)
    jit = _draw_jitter(rng)
    return _motion(tpl, jit, np.array([rng.uniform(0.0, 1.0)]), p)[0]


# --- scene depth rendering ----------------------------------------------------


def _hand_capsules(pose: HandPose, k: CameraIntrinsics) -> np.ndarray:
    """Projected capsules (x0, y0, z0, x1, y1, z1, r_px) for one hand + forearm."""
    # forearm stub: extend from the wrist away from the middle-finger base
    wrist = pose.joints[0]
    end = wrist + (wrist - pose.joints[9]) * _FOREARM_LENGTH_FACTOR
    uvz = project_points(np.vstack([pose.joints, end]), k)
    a, b = uvz[_CAPSULE_FROM], uvz[_CAPSULE_TO]
    r_px = _CAPSULE_RADII_MM * k.fx / (0.5 * (a[:, 2] + b[:, 2]))
    return np.concatenate([a, b, r_px[:, None]], axis=1)


def _background_pattern(h: int, w: int) -> np.ndarray:
    """Smooth deterministic field in [0, 1] used to fill background bands."""
    x = np.arange(w, dtype=np.float64)
    y = np.arange(h, dtype=np.float64)[:, None]
    return 0.5 + 0.5 * np.sin(2 * np.pi * 1.7 * x / w + 0.9) * np.cos(2 * np.pi * 1.3 * y / h + 0.4)


def arm_depth_buffer(left: HandPose, right: HandPose, p: SynthParams) -> np.ndarray:
    """Per-pixel arm depth in mm (+inf where no arm covers the pixel)."""
    k = p.intrinsics
    segs = [
        _hand_capsules(pose, k) for pose in (left, right) if pose.present
    ]
    if not segs:
        return np.full((p.image_size, p.image_size), np.inf)
    all_segs = np.ascontiguousarray(np.concatenate(segs, axis=0))
    return _kernels.capsule_zfield(p.image_size, p.image_size, all_segs)


def gen_scene_depth(left: HandPose, right: HandPose, p: SynthParams):
    """Pseudo-depth map (closer-is-larger, raw) + exact ground-truth mask.

    Arm pixels are mapped affinely from their depth into the arm band with
    the nearest pixel pinned to the band top, so max(map) equals the band
    top whenever a hand is present; background pixels fill the background
    band with a smooth pattern.
    """
    return _pseudo_depth(arm_depth_buffer(left, right, p), p)


def _banded(zbuf: np.ndarray, band: tuple):
    """The arm mask of ``zbuf`` (finite depth) and a map filling ``band`` with the background pattern."""
    lo, hi = band
    return np.isfinite(zbuf), lo + (hi - lo) * _background_pattern(*zbuf.shape)


def _pseudo_depth(zbuf: np.ndarray, p: SynthParams):
    arm, values = _banded(zbuf, p.background_band)
    a_lo, a_hi = p.arm_band
    if arm.any():
        z = zbuf[arm]
        zmin, zmax = z.min(), z.max()
        if zmax - zmin < 1e-9:
            values[arm] = a_hi
        else:
            values[arm] = a_lo + (a_hi - a_lo) * (zmax - z) / (zmax - zmin)
    return (
        DepthMap(values, order=CLOSER_IS_LARGER, normalized=False),
        SegMask(arm),
    )


def gen_scene_depth_metric(left: HandPose, right: HandPose, p: SynthParams):
    """Ground-truth-style metric map in mm (closer-is-smaller) + exact mask."""
    return _metric_depth(arm_depth_buffer(left, right, p), p)


def _metric_depth(zbuf: np.ndarray, p: SynthParams):
    arm, values = _banded(zbuf, p.background_mm_band)
    values[arm] = zbuf[arm]
    return (
        DepthMap(values, order=CLOSER_IS_SMALLER, normalized=False),
        SegMask(arm),
    )


def render_schematic_frame(gt_mask: SegMask) -> np.ndarray:
    """Flat-shaded RGB frame: arm region vs background."""
    return np.take(_SCHEMATIC_PALETTE, gt_mask.values.view(np.uint8), axis=0)


# --- simulated estimator -------------------------------------------------------


def noisy_pose_oracle(
    gt: HandPose,
    unmasked_background_fraction: float,
    p: SynthParams,
    rng,
    arm_loss_fraction: float = 0.0,
) -> HandPose:
    """Simulated estimator output: isotropic Gaussian jitter per joint.

    sigma = sigma0 + clutter_gain * unmasked_background_fraction
                   + loss_gain * arm_loss_fraction  (all mm).
    With both fractions zero the expected MPJPE is sigma0 * sqrt(8/pi).
    """
    for name, f in (
        ("unmasked_background_fraction", unmasked_background_fraction),
        ("arm_loss_fraction", arm_loss_fraction),
    ):
        if not (0.0 <= f <= 1.0):
            raise RangeError(f"{name} must lie in [0, 1], got {f}")
    if not gt.present:
        return absent_pose()
    sigma = (
        p.noise_sigma0
        + p.noise_clutter_gain * unmasked_background_fraction
        + p.noise_loss_gain * arm_loss_fraction
    )
    noise = rng.standard_normal((JOINT_COUNT, 3))
    return HandPose(gt.joints + sigma * noise, present=True)


def mask_quality(mask: SegMask, gt: SegMask) -> tuple[float, float]:
    """(unmasked background fraction, masked-away arm fraction).

    ``gt`` must be binary. Soft masks contribute their weights: a background
    pixel kept at 0.3 counts 0.3 toward clutter; an arm pixel kept at 0.3
    loses 0.7.
    """
    if not gt.binary:
        raise StructuralError("ground-truth mask must be binary")
    if mask.values.shape != gt.values.shape:
        raise StructuralError("mask and ground truth dimensions differ")
    arm = gt.values
    n_arm = np.count_nonzero(arm)
    n_bg = arm.size - n_arm
    if mask.binary:
        # both sums are integer counts, so counting gives their exact values
        kept, kept_arm = np.count_nonzero(mask.values), np.count_nonzero(mask.values & arm)
        bg_kept, arm_lost = kept - kept_arm, n_arm - kept_arm
    else:
        bg_kept, arm_lost = mask.values[~arm].sum(), (1.0 - mask.values[arm]).sum()
    return (float(bg_kept / n_bg) if n_bg else 0.0), (float(arm_lost / n_arm) if n_arm else 0.0)


# --- dataset emission -----------------------------------------------------------


def sequence_seed(master_seed: int, sequence_index: int) -> int:
    """Per-sequence seed derivation; stable under any parallel schedule."""
    if master_seed < 0:
        raise RangeError(f"seed must be >= 0, got {master_seed}")
    return master_seed ^ sequence_index


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of ``seed`` under spawn key ``key``. Key domains: ``(0,)`` model weight
    init, ``(1, epoch)`` a training epoch's shuffle, subsampling and augmentation, ``(2, i)``
    evaluation scene ``i``, ``(3, ...)`` the simulated estimator's noise."""
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def generate_dataset(params: SynthParams, classes: int, per_class: int, master_seed: int):
    """Labelled 3D-pose dataset with per-class 70/15/15 splits."""
    if not (1 <= classes <= N_CLASSES):
        raise RangeError(f"classes must lie in [1, {N_CLASSES}], got {classes}")
    if per_class < 1:
        raise RangeError(f"per_class must be >= 1, got {per_class}")
    n_train = max(1, int(round(0.70 * per_class)))
    n_val = max(1, int(0.15 * per_class)) if per_class >= 3 else 0
    # keep every split non-empty once there are three or more sequences
    while per_class >= 3 and n_train + n_val >= per_class:
        n_train -= 1
    sequences = []
    frame_id = 0
    sid = 0
    for c in range(classes):
        for k in range(per_class):
            rng = np.random.default_rng(sequence_seed(master_seed, sid))
            frames, length = gen_hand_sequence(c, rng, params)
            split = "train" if k < n_train else ("val" if k < n_train + n_val else "test")
            recs = []
            for left, right, obj in frames:
                recs.append(FrameRecord(frame_id, left, right, obj, split))
                frame_id += 1
            sequences.append(SequenceRecord(sid, recs, c, split))
            sid += 1
    return Dataset(intrinsics=params.intrinsics, space="3d", sequences=sequences)


def write_fixture_tree(
    out_dir,
    params: SynthParams,
    classes: int,
    per_class: int,
    master_seed: int,
    scene_frames: int = 4,
) -> None:
    """Emit the full fixture tree: the dataset files (``save_dataset``), the
    ``PARAMS_FILE`` and, for the first ``scene_frames`` frames, pseudo-depth /
    metric / ground-truth-mask .dmap files and schematic PPM frames under scenes/."""
    if scene_frames < 0:
        raise RangeError(f"scene_frames must be >= 0, got {scene_frames}")
    dataset = generate_dataset(params, classes, per_class, master_seed)
    scenes_dir = os.path.join(out_dir, "scenes")
    os.makedirs(scenes_dir, exist_ok=True)  # before any file, so a tree it cannot make gets none
    save_dataset(out_dir, dataset)
    meta = {
        "master_seed": master_seed,
        "classes": classes,
        "per_class": per_class,
        "params": asdict(params),
    }
    write_json(os.path.join(out_dir, PARAMS_FILE), meta)
    emitted = 0
    for seq in dataset.sequences:
        for fr in seq.frames:
            if emitted >= scene_frames:
                return
            # one rasterization gives both maps
            zbuf = arm_depth_buffer(fr.left, fr.right, params)
            pseudo, gt = _pseudo_depth(zbuf, params)
            metric, _ = _metric_depth(zbuf, params)
            stem = os.path.join(scenes_dir, f"{fr.frame_id:06d}")
            save_depth(stem + ".dmap", pseudo)
            save_depth(stem + ".mm.dmap", metric)
            save_mask(stem + ".gtmask.dmap", gt)
            save_ppm(stem + ".ppm", render_schematic_frame(gt))
            emitted += 1


def read_fixture_params(data_dir) -> tuple[int, SynthParams]:
    """(master seed, params) from the ``PARAMS_FILE`` of a fixture tree; a
    malformed file raises DatasetFormatError naming it and the bad field."""
    path = os.path.join(data_dir, PARAMS_FILE)
    with open(path) as f:
        try:
            meta = json.load(f)
            if not (isinstance(meta, dict) and type(meta.get("master_seed")) is int and meta["master_seed"] >= 0
                    and isinstance(meta.get("params"), dict)):
                raise DatasetFormatError("expected a non-negative integer 'master_seed' and a 'params' object")
            return meta["master_seed"], SynthParams.from_dict(meta["params"])
        except (ValueError, RecursionError, EgohandError) as e:  # RecursionError: nesting too deep
            raise DatasetFormatError(f"{path}: {e}") from e
