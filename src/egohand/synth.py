"""Synthetic egocentric scenes and actions with exact ground truth.

Replaces the heavy perception stack in experiments: class-templated hand
motion generates 3D poses with constant bone lengths; a capsule rasterizer
turns them into pseudo-depth maps whose arm and background values live in
disjoint bands, so a ground-truth segmentation mask exists by construction
and any threshold inside the band gap reproduces it exactly.

The simulated pose estimator degrades with mask quality: keypoint noise
sigma grows linearly with the unmasked-background fraction (clutter
confuses the estimator) and with the masked-away arm fraction (lost hand
pixels starve it). Everything is a pure function of (params, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _kernels
from .errors import DatasetFormatError, RangeError, StructuralError
from .geometry import (
    JOINT_COUNT,
    JOINT_PARENTS,
    CameraIntrinsics,
    HandPose3D,
    absent_pose3d,
    project_to_image,
)
from .rangeseg import CLOSER_IS_LARGER, CLOSER_IS_SMALLER, DepthMap, SegMask
from .sequence import N_CLASSES, ObjectObs

N_OBJECT_LABELS = 8

# bone lengths in mm (wrist->base, then three phalanges), per finger
DEFAULT_BONES = {
    "thumb": (45.0, 35.0, 30.0, 25.0),
    "index": (85.0, 40.0, 25.0, 20.0),
    "middle": (88.0, 45.0, 28.0, 22.0),
    "ring": (82.0, 40.0, 26.0, 20.0),
    "pinky": (75.0, 30.0, 20.0, 18.0),
}

# finger splay angles (rad) about the pointing direction, thumb..pinky
_FINGER_SPLAY = (-1.05, -0.30, 0.0, 0.28, 0.60)

# capsule half-thickness in mm by segment position within a finger chain
_SEG_RADII_MM = (15.0, 10.0, 8.0, 7.0)
_FOREARM_RADIUS_MM = 26.0
_FOREARM_LENGTH_FACTOR = 2.2
# the SynthParams fields that hold tuples; their JSON values are lists
_TUPLE_FIELDS = ("arm_band", "background_band", "background_mm_band", "frames_range")


def _json_like(value, default) -> bool:
    """Whether JSON ``value`` has the layout and number types of ``default``."""
    if isinstance(default, (list, dict)):
        if type(value) is not type(default) or len(value) != len(default):
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
            if any(l <= 0 for l in lengths):
                raise StructuralError(f"non-positive bone length in {finger}")
        if self.image_size <= 0:
            raise RangeError(f"image_size must be positive, got {self.image_size}")
        for key in ("fx", "fy"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value > 0):
                raise RangeError(f"{key} must be finite and positive, got {value}")
        for key in ("noise_sigma0", "noise_clutter_gain", "noise_loss_gain"):
            value = getattr(self, key)
            if not value >= 0:  # NaN fails too
                raise RangeError(f"{key} must be non-negative, got {value}")

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.fx, self.fy, self.cx, self.cy)

    @property
    def band_midpoint(self) -> float:
        return (self.background_band[1] + self.arm_band[0]) / 2.0

    def to_dict(self) -> dict:
        """The fields as JSON values: each tuple becomes a list."""
        d = asdict(self)
        for key in _TUPLE_FIELDS:
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SynthParams":
        """Inverse of ``to_dict``; an unknown, missing or malformed field raises DatasetFormatError."""
        defaults = cls().to_dict()
        for key in sorted(set(d) | set(defaults)):
            kind = "unknown" if key not in defaults else "missing" if key not in d else None
            if kind or not _json_like(d[key], defaults[key]):
                raise DatasetFormatError(f"{kind or 'malformed'} params field {key!r}")
        return cls(**{**d, **{key: tuple(d[key]) for key in _TUPLE_FIELDS}})


# --- hand skeleton ----------------------------------------------------------


def _hand_local(bones: dict, scale: float, curl: float, mirror: bool) -> np.ndarray:
    """21 joints of one hand in its local frame (wrist at origin, mm).

    Fingers point along -y; ``curl`` pitches successive phalanges toward +z.
    Built as a right hand, mirrored in x for the left. Each segment direction
    is unit length, so bone lengths are exact for any curl.
    """
    joints = np.zeros((JOINT_COUNT, 3))
    for f, finger in enumerate(("thumb", "index", "middle", "ring", "pinky")):
        lengths = bones[finger]
        dx, dy = np.sin(_FINGER_SPLAY[f]), -np.cos(_FINGER_SPLAY[f])
        pos = joints[0].copy()
        for k in range(4):
            pitch = curl * k * (0.35 if finger == "thumb" else 1.0)
            direction = np.array([dx * np.cos(pitch), dy * np.cos(pitch), np.sin(pitch)])
            pos = pos + direction * (lengths[k] * scale)
            joints[1 + 4 * f + k] = pos
    if mirror:
        joints[:, 0] *= -1.0
    return joints


def _place_hand(local: np.ndarray, yaw: float, center: np.ndarray) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    out = local.copy()
    out[:, 0] = c * local[:, 0] - s * local[:, 1]
    out[:, 1] = s * local[:, 0] + c * local[:, 1]
    return out + center


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


def _frame_at(tpl: MotionTemplate, jit: _SequenceJitter, tau: float, p: SynthParams):
    """Ground-truth (left, right, object) for normalized time tau in [0, 1]."""
    f = tpl.freqs
    ph = tpl.phases + jit.phase_offset
    osc = lambda i: np.sin(2.0 * np.pi * f[i] * tau + ph[i])
    offset = jit.amp_scale * np.array(
        [tpl.amp_xy * osc(0), tpl.amp_xy * osc(1), tpl.amp_z * osc(2)]
    )
    yaw = tpl.yaw0 + 0.30 * osc(3)
    curl = np.clip(tpl.curl0 + jit.curl_offset + 0.15 * osc(4), 0.05, 1.1)

    hands = []
    for present, base, mirror, sgn in (
        (tpl.left_present, tpl.base_left, True, 1.0),
        (tpl.right_present, tpl.base_right, False, -1.0),
    ):
        if not present:
            hands.append(absent_pose3d())
            continue
        center = base + jit.center_offset + offset * np.array([sgn, 1.0, sgn])
        local = _hand_local(p.bones, p.bone_scale, curl, mirror)
        hands.append(HandPose3D(_place_hand(local, sgn * yaw, center)))
    left, right = hands

    k = p.intrinsics
    wrists_uv = []
    for pose in (left, right):
        if pose.present:
            w = pose.joints[0]
            wrists_uv.append((k.fx * w[0] / w[2] + k.cx, k.fy * w[1] / w[2] + k.cy))
    if wrists_uv:
        bc = np.mean(np.asarray(wrists_uv), axis=0)
    else:
        bc = np.array([p.cx, p.cy])
    bc = bc + 18.0 * np.array([osc(3), osc(4)])
    bw, bh = tpl.box_size
    margin = 2.0
    bc[0] = np.clip(bc[0], bw / 2 + margin, p.image_size - bw / 2 - margin)
    bc[1] = np.clip(bc[1], bh / 2 + margin, p.image_size - bh / 2 - margin)
    corners = np.array(
        [
            [bc[0] - bw / 2, bc[1] - bh / 2],
            [bc[0] + bw / 2, bc[1] - bh / 2],
            [bc[0] + bw / 2, bc[1] + bh / 2],
            [bc[0] - bw / 2, bc[1] + bh / 2],
        ]
    )
    return left, right, ObjectObs(corners, tpl.object_label)


def gen_hand_sequence(class_id: int, rng, p: SynthParams):
    """Sampled ground-truth frames for one action instance.

    Returns (frames, length) where frames is a list of (left HandPose3D,
    right HandPose3D, ObjectObs). Bone lengths are constant across the
    sequence and all joints project inside the image.
    """
    tpl = class_template(class_id)
    jit = _draw_jitter(rng)
    length = int(rng.integers(p.frames_range[0], p.frames_range[1] + 1))
    tau0 = rng.uniform(0.0, 0.3)
    frames = [
        _frame_at(tpl, jit, tau0 + i / max(length - 1, 1), p) for i in range(length)
    ]
    return frames, length


def gen_frame(class_id: int, rng, p: SynthParams):
    """One ground-truth frame at a random phase (for per-frame experiments)."""
    tpl = class_template(class_id)
    jit = _draw_jitter(rng)
    return _frame_at(tpl, jit, rng.uniform(0.0, 1.0), p)


# --- scene depth rendering ----------------------------------------------------


def _hand_capsules(pose: HandPose3D, k: CameraIntrinsics) -> np.ndarray:
    """Projected capsules (x0, y0, z0, x1, y1, z1, r_px) for one hand + forearm."""
    uvz = project_to_image(pose, k).joints
    segs = []
    for j in range(1, JOINT_COUNT):
        parent = JOINT_PARENTS[j]
        r_mm = _SEG_RADII_MM[(j - 1) % 4]
        z_mid = 0.5 * (uvz[parent, 2] + uvz[j, 2])
        segs.append(
            (uvz[parent, 0], uvz[parent, 1], uvz[parent, 2],
             uvz[j, 0], uvz[j, 1], uvz[j, 2], r_mm * k.fx / z_mid)
        )
    # forearm stub: extend from the wrist away from the middle-finger base
    wrist = pose.joints[0]
    end = wrist + (wrist - pose.joints[9]) * _FOREARM_LENGTH_FACTOR
    eu = k.fx * end[0] / end[2] + k.cx
    ev = k.fy * end[1] / end[2] + k.cy
    z_mid = 0.5 * (uvz[0, 2] + end[2])
    segs.append(
        (uvz[0, 0], uvz[0, 1], uvz[0, 2], eu, ev, end[2], _FOREARM_RADIUS_MM * k.fx / z_mid)
    )
    return np.asarray(segs, dtype=np.float64)


def _background_pattern(h: int, w: int) -> np.ndarray:
    """Smooth deterministic field in [0, 1] used to fill background bands."""
    x = np.arange(w, dtype=np.float64)
    y = np.arange(h, dtype=np.float64)[:, None]
    return 0.5 + 0.5 * np.sin(2 * np.pi * 1.7 * x / w + 0.9) * np.cos(2 * np.pi * 1.3 * y / h + 0.4)


def arm_depth_buffer(left: HandPose3D, right: HandPose3D, p: SynthParams) -> np.ndarray:
    """Per-pixel arm depth in mm (+inf where no arm covers the pixel)."""
    k = p.intrinsics
    segs = [
        _hand_capsules(pose, k) for pose in (left, right) if pose.present
    ]
    if not segs:
        return np.full((p.image_size, p.image_size), np.inf)
    all_segs = np.ascontiguousarray(np.concatenate(segs, axis=0))
    return _kernels.capsule_zfield(p.image_size, p.image_size, all_segs)


def gen_scene_depth(left: HandPose3D, right: HandPose3D, p: SynthParams):
    """Pseudo-depth map (closer-is-larger, raw) + exact ground-truth mask.

    Arm pixels are mapped affinely from their depth into the arm band with
    the nearest pixel pinned to the band top, so max(map) equals the band
    top whenever a hand is present; background pixels fill the background
    band with a smooth pattern.
    """
    zbuf = arm_depth_buffer(left, right, p)
    arm = np.isfinite(zbuf)
    a_lo, a_hi = p.arm_band
    b_lo, b_hi = p.background_band
    values = b_lo + (b_hi - b_lo) * _background_pattern(*zbuf.shape)
    if arm.any():
        z = zbuf[arm]
        zmin, zmax = z.min(), z.max()
        if zmax - zmin < 1e-9:
            values[arm] = a_hi
        else:
            values[arm] = a_lo + (a_hi - a_lo) * (zmax - z) / (zmax - zmin)
    return (
        DepthMap(values, order=CLOSER_IS_LARGER, normalized=False),
        SegMask(arm.astype(np.float64), binary=True),
    )


def gen_scene_depth_metric(left: HandPose3D, right: HandPose3D, p: SynthParams):
    """Ground-truth-style metric map in mm (closer-is-smaller) + exact mask."""
    zbuf = arm_depth_buffer(left, right, p)
    arm = np.isfinite(zbuf)
    m_lo, m_hi = p.background_mm_band
    values = m_lo + (m_hi - m_lo) * _background_pattern(*zbuf.shape)
    values[arm] = zbuf[arm]
    return (
        DepthMap(values, order=CLOSER_IS_SMALLER, normalized=False),
        SegMask(arm.astype(np.float64), binary=True),
    )


def render_schematic_frame(gt_mask: SegMask) -> np.ndarray:
    """Flat-shaded RGB frame: arm region vs background."""
    h, w = gt_mask.values.shape
    frame = np.empty((h, w, 3), dtype=np.uint8)
    frame[...] = (38, 44, 54)
    frame[gt_mask.values == 1.0] = (201, 178, 153)
    return frame


# --- simulated estimator -------------------------------------------------------


def noisy_pose_oracle(
    gt: HandPose3D,
    unmasked_background_fraction: float,
    p: SynthParams,
    rng,
    arm_loss_fraction: float = 0.0,
) -> HandPose3D:
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
        return absent_pose3d()
    sigma = (
        p.noise_sigma0
        + p.noise_clutter_gain * unmasked_background_fraction
        + p.noise_loss_gain * arm_loss_fraction
    )
    noise = rng.standard_normal((JOINT_COUNT, 3))
    return HandPose3D(gt.joints + sigma * noise, present=True)


def mask_quality(mask: SegMask, gt: SegMask) -> tuple[float, float]:
    """(unmasked background fraction, masked-away arm fraction).

    Soft masks contribute their weights: a background pixel kept at 0.3
    counts 0.3 toward clutter; an arm pixel kept at 0.3 loses 0.7.
    """
    if mask.values.shape != gt.values.shape:
        raise StructuralError("mask and ground truth dimensions differ")
    bg = gt.values == 0.0
    arm = ~bg
    n_bg = int(bg.sum())
    n_arm = int(arm.sum())
    bg_kept = float(mask.values[bg].sum() / n_bg) if n_bg else 0.0
    arm_lost = float((1.0 - mask.values[arm]).sum() / n_arm) if n_arm else 0.0
    return bg_kept, arm_lost


# --- dataset emission -----------------------------------------------------------


def sequence_seed(master_seed: int, sequence_index: int) -> int:
    """Per-sequence seed derivation; stable under any parallel schedule."""
    return master_seed ^ sequence_index


def generate_dataset(params: SynthParams, classes: int, per_class: int, master_seed: int):
    """Labelled 3D-pose dataset with per-class 70/15/15 splits."""
    from .sequence import Dataset, FrameRecord, SequenceRecord

    if not (1 <= classes <= N_CLASSES):
        raise RangeError(f"classes must lie in [1, {N_CLASSES}], got {classes}")
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
    """Emit the full fixture tree: poses.ndjson + manifest.csv + params.json
    plus, for the first ``scene_frames`` frames, pseudo-depth / metric /
    ground-truth-mask .dmap files and schematic PPM frames under scenes/."""
    import os

    from .rangeseg import save_depth, save_mask, save_ppm
    from .sequence import save_dataset

    dataset = generate_dataset(params, classes, per_class, master_seed)
    save_dataset(out_dir, dataset)
    meta = {
        "master_seed": master_seed,
        "classes": classes,
        "per_class": per_class,
        "params": params.to_dict(),
    }
    with open(os.path.join(out_dir, "params.json"), "w") as f:
        f.write(json.dumps(meta, separators=(",", ":"), sort_keys=True) + "\n")

    scenes_dir = os.path.join(out_dir, "scenes")
    os.makedirs(scenes_dir, exist_ok=True)
    emitted = 0
    for seq in dataset.sequences:
        for fr in seq.frames:
            if emitted >= scene_frames:
                return
            pseudo, gt = gen_scene_depth(fr.left, fr.right, params)
            metric, _ = gen_scene_depth_metric(fr.left, fr.right, params)
            stem = os.path.join(scenes_dir, f"{fr.frame_id:06d}")
            save_depth(stem + ".dmap", pseudo)
            save_depth(stem + ".mm.dmap", metric)
            save_mask(stem + ".gtmask.dmap", gt)
            save_ppm(stem + ".ppm", render_schematic_frame(gt))
            emitted += 1
