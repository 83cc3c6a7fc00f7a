"""Camera model, hand pose containers, 2.5D->3D lifting, and MPJPE.

Units are millimetres for camera space and pixels for image space. All
arrays are float64. A hand pose always has exactly 21 joints in the
canonical order: wrist first, then four joints per finger (base to tip),
thumb, index, middle, ring, pinky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataConsistencyError,
    DegenerateDepthError,
    EmptyDatasetError,
    StructuralError,
)

JOINT_COUNT = 21

# parent joint index for each joint; -1 marks the wrist root
JOINT_PARENTS = (-1, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0, 17, 18, 19)


def _as_joints(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != (JOINT_COUNT, 3):
        raise StructuralError(f"expected {JOINT_COUNT}x3 joint array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StructuralError("joint coordinates must be finite")
    return arr


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise StructuralError(f"focal lengths must be finite and positive, got fx={self.fx}, fy={self.fy}")
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise StructuralError("principal point must be finite")


@dataclass
class HandPose:
    """21 joints: (u px, v px, z mm) before lifting, camera-space (X, Y, Z) mm after."""

    joints: np.ndarray
    present: bool = True

    def __post_init__(self):
        self.joints = _as_joints(self.joints)


def absent_pose() -> HandPose:
    return HandPose(np.zeros((JOINT_COUNT, 3)), present=False)


def _positive_depth(points: np.ndarray) -> np.ndarray:
    """The z column of ``points``; DegenerateDepthError names the first row with z <= 0."""
    z = points[:, 2]
    bad = np.nonzero(z <= 0)[0]
    if bad.size:
        raise DegenerateDepthError(int(bad[0]), float(z[bad[0]]))
    return z


def lift_to_camera(pose: HandPose, k: CameraIntrinsics) -> HandPose:
    """Lift (u, v, z) to camera space: X=(u-cx)z/fx, Y=(v-cy)z/fy, Z=z."""
    z = _positive_depth(pose.joints)
    out = np.empty_like(pose.joints)
    out[:, 0] = (pose.joints[:, 0] - k.cx) * z / k.fx
    out[:, 1] = (pose.joints[:, 1] - k.cy) * z / k.fy
    out[:, 2] = z
    return HandPose(out, present=pose.present)


def project_points(points: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Project (N, 3) camera-space points to (u, v, z): u = fx*X/Z + cx, v = fy*Y/Z + cy, z = Z."""
    z = _positive_depth(points)
    out = np.empty_like(points)
    out[:, 0] = k.fx * points[:, 0] / z + k.cx
    out[:, 1] = k.fy * points[:, 1] / z + k.cy
    out[:, 2] = z
    return out


def project_to_image(pose: HandPose, k: CameraIntrinsics) -> HandPose:
    """Inverse of lift_to_camera."""
    return HandPose(project_points(pose.joints, k), present=pose.present)


def mpjpe(pred: HandPose, gt: HandPose) -> float:
    """Mean Euclidean distance over the 21 joints, in millimetres."""
    if pred.joints.shape != gt.joints.shape:
        raise StructuralError("pose joint counts differ")
    return float(np.linalg.norm(pred.joints - gt.joints, axis=1).mean())


def mpjpe_report(preds, gts) -> tuple[float, float, float]:
    """Per-hand MPJPE means over present hands plus their hand-weighted mean.

    ``preds`` and ``gts`` are equal-length lists of (left, right) HandPose
    pairs; presence flags must agree pairwise. Returns (left mm, right mm,
    both mm) with both = (left + right) / 2.
    """
    if len(preds) != len(gts):
        raise StructuralError(f"got {len(preds)} predictions vs {len(gts)} ground truths")
    if not preds:
        raise EmptyDatasetError("cannot report MPJPE over an empty dataset")
    sums = [0.0, 0.0]
    counts = [0, 0]
    for i, (pred_pair, gt_pair) in enumerate(zip(preds, gts)):
        for side in (0, 1):
            p, g = pred_pair[side], gt_pair[side]
            if p.present != g.present:
                raise DataConsistencyError(
                    f"pair {i}: presence flag mismatch on {'left' if side == 0 else 'right'} hand"
                )
            if p.present:
                sums[side] += mpjpe(p, g)
                counts[side] += 1
    for side, name in ((0, "left"), (1, "right")):
        if counts[side] == 0:
            raise EmptyDatasetError(f"no present {name} hands in the dataset")
    left = sums[0] / counts[0]
    right = sums[1] / counts[1]
    return left, right, (left + right) / 2.0


def rotate_points_2d(points, angle, center=(0.0, 0.0)) -> np.ndarray:
    """Planar rotation of (..., 2) points about ``center``; ``angle`` (rad) broadcasts against their leading axes."""
    pts = np.asarray(points, dtype=np.float64)
    c, s = np.cos(angle), np.sin(angle)
    ctr = np.asarray(center, dtype=np.float64)
    d = pts - ctr
    out = np.empty_like(d)
    out[..., 0] = c * d[..., 0] - s * d[..., 1]
    out[..., 1] = s * d[..., 0] + c * d[..., 1]
    return out + ctr
