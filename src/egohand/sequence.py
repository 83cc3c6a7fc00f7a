"""Per-frame 135-dim vectors, fixed-length action sequences, and dataset I/O.

Frame vector layout: [left hand 63 | right hand 63 | box corners 8 | label 1].
Hands flatten as (X, Y, Z) per joint in canonical joint order; absent hands
contribute zeros. A prepared action sequence is exactly 20 such frames.

Dataset directory layout:

``poses.ndjson``: header line ``{"intrinsics": {...}, "space": "2d"|"2.5d"|"3d"}``
followed by one frame per line::

    {"frame_id": n, "left": {"present": bool, "joints": [[...]x21]},
     "right": {...}, "obj_box": [[x, y]x4], "obj_label": int, "split": str}

``manifest.csv``: ``sequence_id,frame_start,frame_end,action_label,split``
with half-open global frame ranges.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataConsistencyError,
    DatasetFormatError,
    EmptyActionError,
    StructuralError,
)
from .geometry import (
    JOINT_COUNT,
    CameraIntrinsics,
    HandPose2D,
    HandPose25D,
    HandPose3D,
    rotate_points_2d,
)

FRAME_DIM = 135
SEQ_LEN = 20
N_CLASSES = 36

LEFT_SLICE = slice(0, 63)
RIGHT_SLICE = slice(63, 126)
BOX_SLICE = slice(126, 134)
LABEL_INDEX = 134

SPLITS = ("train", "val", "test")
SPACES = ("2d", "2.5d", "3d")

MASK_GROUPS = ("left", "right", "box", "label")
GROUP_SLICES = {
    "left": LEFT_SLICE,
    "right": RIGHT_SLICE,
    "box": BOX_SLICE,
    "label": slice(LABEL_INDEX, LABEL_INDEX + 1),
}

# x column of every rotated (x, y) pair in layout order: the hands' joint X
# columns (every third), then the box corners' x columns (every second)
_PAIR_X = np.r_[LEFT_SLICE.start : RIGHT_SLICE.stop : 3, BOX_SLICE.start : BOX_SLICE.stop : 2]


@dataclass
class ObjectObs:
    """2D bounding-box corners (4 x (x, y) px) and an object class id."""

    box: np.ndarray
    label: int

    def __post_init__(self):
        self.box = np.ascontiguousarray(self.box, dtype=np.float64)
        if self.box.shape != (4, 2):
            raise StructuralError(f"object box must be 4x2 corners, got {self.box.shape}")
        if not np.all(np.isfinite(self.box)):
            raise StructuralError("object box corners must be finite")
        self.label = int(self.label)
        if self.label < 0:
            raise StructuralError(f"object label must be >= 0, got {self.label}")


@dataclass
class ActionSequence:
    """Exactly 20 prepared frame vectors plus the action class label."""

    frames: np.ndarray
    valid_count: int
    action_label: int

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if self.frames.shape != (SEQ_LEN, FRAME_DIM):
            raise StructuralError(f"prepared frames must be {SEQ_LEN}x{FRAME_DIM}, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise StructuralError("prepared frames must be finite")
        if not (0 <= self.valid_count <= SEQ_LEN):
            raise StructuralError(f"valid_count must lie in [0, {SEQ_LEN}], got {self.valid_count}")
        if not (0 <= self.action_label < N_CLASSES):
            raise StructuralError(f"action label must lie in [0, {N_CLASSES}), got {self.action_label}")


def assemble_frame_vector(
    left: HandPose3D, right: HandPose3D, obj: ObjectObs, presence: tuple[bool, bool]
) -> np.ndarray:
    """Pack one frame into the 135-vector; absent hands write zeros."""
    out = np.zeros(FRAME_DIM)
    if presence[0]:
        out[LEFT_SLICE] = left.joints.reshape(-1)
    if presence[1]:
        out[RIGHT_SLICE] = right.joints.reshape(-1)
    out[BOX_SLICE] = obj.box.reshape(-1)
    out[LABEL_INDEX] = float(obj.label)
    return out


def subsample_or_pad(frames, n: int = SEQ_LEN, rng=None):
    """Fit a raw frame list to exactly ``n`` frames.

    Shorter inputs are zero-padded at the tail; longer inputs are
    sub-sampled at strictly increasing source indices. Without ``rng`` the
    indices are floor(i*len/n); with it, a sorted sample of n distinct
    indices drawn from ``rng``. Returns (frames [n x 135], valid_count).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
        raise StructuralError(f"raw frames must be (k, {FRAME_DIM}), got {frames.shape}")
    if n < 1:
        raise ValueError(f"target length must be >= 1, got {n}")
    k = frames.shape[0]
    if k == 0:
        raise EmptyActionError("cannot prepare an action with zero frames")
    if k < n:
        out = np.zeros((n, FRAME_DIM))
        out[:k] = frames
        return out, k
    if rng is None:
        idx = (np.arange(n) * k) // n
    else:
        idx = np.sort(rng.choice(k, size=n, replace=False))
    return frames[idx].copy(), n


def augment_sequence(frames, rotation_range: float, mask_prob: float, rng, valid_count: int | None = None):
    """Training-time augmentation: one shared rotation, one optional group mask.

    A single angle drawn from [-rotation_range, rotation_range] rotates every
    valid frame's (x, y) coordinates (hand joints' X,Y and box corners) about
    the centroid of those coordinates over the sequence; z values and the
    label slot are untouched. Groups that are entirely zero in a frame
    (absent hands, zeroed boxes) stay zero. With probability ``mask_prob``
    one group from ``MASK_GROUPS`` is zeroed in every frame.
    """
    frames = np.asarray(frames, dtype=np.float64).copy()
    if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
        raise StructuralError(f"frames must be (k, {FRAME_DIM}), got {frames.shape}")
    if not (0.0 <= mask_prob <= 1.0):
        raise ValueError(f"mask probability must lie in [0, 1], got {mask_prob}")
    nv = frames.shape[0] if valid_count is None else valid_count
    if not (0 <= nv <= frames.shape[0]):
        raise StructuralError(f"valid_count must lie in [0, {frames.shape[0]}], got {nv}")

    angle = rng.uniform(-rotation_range, rotation_range)
    mask_draw = rng.uniform()

    if angle != 0.0:
        live = np.zeros((nv, FRAME_DIM), dtype=bool)  # the columns of non-zero groups
        for group in ("left", "right", "box"):
            sl = GROUP_SLICES[group]
            live[:, sl] = np.any(frames[:nv, sl], axis=1, keepdims=True)
        # frame-major, then pair order: the order the centroid sums in
        rows, pairs = np.nonzero(live[:, _PAIR_X])
        if rows.size:
            xc = _PAIR_X[pairs]
            xs, ys = frames[rows, xc], frames[rows, xc + 1]
            rot = rotate_points_2d(np.stack([xs, ys], axis=1), angle, (float(xs.mean()), float(ys.mean())))
            frames[rows, xc] = rot[:, 0]
            frames[rows, xc + 1] = rot[:, 1]

    if mask_draw < mask_prob:
        group = MASK_GROUPS[int(rng.integers(len(MASK_GROUPS)))]
        frames[:, GROUP_SLICES[group]] = 0.0
    return frames


# --- dataset records and NDJSON I/O ---------------------------------------


@dataclass
class FrameRecord:
    frame_id: int
    left: object  # HandPose2D | HandPose25D | HandPose3D, per the file's space tag
    right: object
    obj: ObjectObs
    split: str


@dataclass
class SequenceRecord:
    sequence_id: int
    frames: list
    action_label: int
    split: str


@dataclass
class Dataset:
    intrinsics: CameraIntrinsics
    space: str
    sequences: list = field(default_factory=list)


_POSE_TYPES = {"2d": HandPose2D, "2.5d": HandPose25D, "3d": HandPose3D}
_JOINT_COLS = {"2d": 2, "2.5d": 3, "3d": 3}
# what np.asarray and the record types raise on a JSON value of the wrong kind:
# a non-number, an integer beyond float range, a non-finite or mis-shaped array
_BAD_VALUE = (TypeError, ValueError, OverflowError, StructuralError)


def _numbers(rows) -> bool:
    """Whether every value in the list of lists ``rows`` is a JSON number:
    not a string, boolean or null, which np.asarray and float() would coerce."""
    return set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}


def _pose_to_json(pose, cols: int) -> dict:
    joints = [[float(x) for x in row] for row in pose.joints[:, :cols]]
    return {"present": bool(pose.present), "joints": joints}


def _pose_from_json(obj, space: str, line: int):
    if not isinstance(obj, dict) or "present" not in obj or "joints" not in obj:
        raise DatasetFormatError("hand must be an object with 'present' and 'joints'", line)
    joints = obj["joints"]
    cols = _JOINT_COLS[space]
    if not isinstance(joints, list) or len(joints) != JOINT_COUNT:
        raise DatasetFormatError(
            f"expected {JOINT_COUNT} joints, got {len(joints) if isinstance(joints, list) else type(joints).__name__}",
            line,
        )
    for row in joints:
        if not isinstance(row, list) or len(row) != cols:
            raise DatasetFormatError(f"each joint needs {cols} coordinates for space {space!r}", line)
    if not _numbers(joints):
        raise DatasetFormatError("joint coordinates must be numbers", line)
    if type(obj["present"]) is not bool:
        raise DatasetFormatError("present must be true or false", line)
    try:
        return _POSE_TYPES[space](np.asarray(joints, dtype=np.float64), present=obj["present"])
    except _BAD_VALUE as e:
        raise DatasetFormatError(f"bad joints: {e}", line) from e


def _canon(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _pose_text(k: CameraIntrinsics, space: str, frames) -> str:
    """poses.ndjson text: the header line, then one line per frame record."""
    cols = _JOINT_COLS[space]
    lines = [_canon({"intrinsics": {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy}, "space": space})]
    for fr in frames:
        rec = {
            "frame_id": fr.frame_id,
            "left": _pose_to_json(fr.left, cols),
            "right": _pose_to_json(fr.right, cols),
            "obj_box": [[float(x) for x in c] for c in fr.obj.box],
            "obj_label": fr.obj.label,
            "split": fr.split,
        }
        lines.append(_canon(rec))
    return "\n".join(lines) + "\n"


def save_dataset(path, dataset: Dataset) -> None:
    """Write poses.ndjson + manifest.csv under directory ``path``."""
    os.makedirs(path, exist_ok=True)
    manifest_lines = ["sequence_id,frame_start,frame_end,action_label,split"]
    for seq in dataset.sequences:
        start = seq.frames[0].frame_id
        end = seq.frames[-1].frame_id + 1
        manifest_lines.append(f"{seq.sequence_id},{start},{end},{seq.action_label},{seq.split}")
    frames = (fr for seq in dataset.sequences for fr in seq.frames)
    with open(os.path.join(path, "poses.ndjson"), "w") as f:
        f.write(_pose_text(dataset.intrinsics, dataset.space, frames))
    with open(os.path.join(path, "manifest.csv"), "w") as f:
        f.write("\n".join(manifest_lines) + "\n")


def save_pose_file(path, intrinsics: CameraIntrinsics, space: str, frames: list) -> None:
    """Write a standalone poses.ndjson-style file (header + frame lines)."""
    if space not in SPACES:
        raise ValueError(f"unknown space tag {space!r}")
    with open(path, "w") as f:
        f.write(_pose_text(intrinsics, space, frames))


def _parse_header(line: str):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"invalid JSON: {e.msg}", 1) from e
    if not isinstance(obj, dict) or "intrinsics" not in obj or "space" not in obj:
        raise DatasetFormatError("header must carry 'intrinsics' and 'space'", 1)
    if obj["space"] not in SPACES:
        raise DatasetFormatError(f"unknown space tag {obj['space']!r}", 1)
    ki = obj["intrinsics"]
    values = [ki.get(key) for key in ("fx", "fy", "cx", "cy")] if isinstance(ki, dict) else [None]
    if not _numbers([values]):
        raise DatasetFormatError("intrinsics must map fx, fy, cx and cy to numbers", 1)
    try:
        k = CameraIntrinsics(*(float(v) for v in values))
    except _BAD_VALUE as e:
        raise DatasetFormatError(f"bad intrinsics: {e}", 1) from e
    return k, obj["space"]


def _records(lines, start: int, fields: tuple, int_fields: tuple):
    """Yield (line number, record) for each non-blank NDJSON line, numbering
    from ``start``. A record is a JSON object holding every key in
    ``fields``, a known split tag and an integer under each of ``int_fields``."""
    for ln, raw in enumerate(lines, start=start):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"invalid JSON: {e.msg}", ln) from e
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"expected a JSON object, got {type(obj).__name__}", ln)
        for key in fields:
            if key not in obj:
                raise DatasetFormatError(f"missing field {key!r}", ln)
        if obj["split"] not in SPLITS:
            raise DatasetFormatError(f"unknown split tag {obj['split']!r}", ln)
        for key in int_fields:
            if type(obj[key]) is not int:
                raise DatasetFormatError(f"{key} must be an integer", ln)
        yield ln, obj


def load_pose_file(path):
    """Parse a poses.ndjson file -> (intrinsics, space, [FrameRecord])."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        return None, None, []
    k, space = _parse_header(lines[0])
    frames = []
    last_id = None
    fields = ("frame_id", "left", "right", "obj_box", "obj_label", "split")
    for ln, obj in _records(lines[1:], 2, fields, ("frame_id", "obj_label")):
        box = obj["obj_box"]
        if not isinstance(box, list) or len(box) != 4 or any(
            not isinstance(c, list) or len(c) != 2 for c in box
        ):
            raise DatasetFormatError("obj_box must be 4 corner [x, y] pairs", ln)
        if not _numbers(box):
            raise DatasetFormatError("obj_box corners must be numbers", ln)
        if obj["obj_label"] < 0:
            raise DatasetFormatError("obj_label must be a non-negative integer", ln)
        fid = obj["frame_id"]
        if last_id is not None and fid <= last_id:
            raise DatasetFormatError(f"frame_id {fid} not strictly increasing", ln)
        last_id = fid
        try:
            obs = ObjectObs(np.asarray(box, dtype=np.float64), obj["obj_label"])
        except _BAD_VALUE as e:
            raise DatasetFormatError(f"bad obj_box: {e}", ln) from e
        frames.append(
            FrameRecord(
                frame_id=fid,
                left=_pose_from_json(obj["left"], space, ln),
                right=_pose_from_json(obj["right"], space, ln),
                obj=obs,
                split=obj["split"],
            )
        )
    return k, space, frames


def _parse_manifest(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "sequence_id,frame_start,frame_end,action_label,split":
        raise DatasetFormatError("manifest header missing or malformed", 1)
    rows = []
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 5:
            raise DatasetFormatError(f"expected 5 manifest columns, got {len(parts)}", ln)
        try:
            sid, start, end, label = (int(x) for x in parts[:4])
        except ValueError as e:
            raise DatasetFormatError(f"non-integer manifest field: {e}", ln) from e
        split = parts[4]
        if split not in SPLITS:
            raise DatasetFormatError(f"unknown split tag {split!r}", ln)
        if not (0 <= label < N_CLASSES):
            raise DatasetFormatError(f"action label {label} outside [0, {N_CLASSES})", ln)
        if end <= start:
            raise DatasetFormatError(f"empty frame range [{start}, {end})", ln)
        rows.append((sid, start, end, label, split))
    return rows


def load_dataset(path) -> Dataset:
    """Read a dataset directory back into sequence records."""
    k, space, frames = load_pose_file(os.path.join(path, "poses.ndjson"))
    if k is None:
        return Dataset(intrinsics=None, space=None, sequences=[])
    by_id = {fr.frame_id: fr for fr in frames}
    sequences = []
    for sid, start, end, label, split in _parse_manifest(os.path.join(path, "manifest.csv")):
        seq_frames = []
        for fid in range(start, end):
            fr = by_id.get(fid)
            if fr is None:
                raise DataConsistencyError(f"sequence {sid}: frame {fid} missing from poses.ndjson")
            if fr.split != split:
                raise DataConsistencyError(
                    f"sequence {sid}: frame {fid} split {fr.split!r} != manifest split {split!r}"
                )
            seq_frames.append(fr)
        sequences.append(SequenceRecord(sid, seq_frames, label, split))
    return Dataset(intrinsics=k, space=space, sequences=sequences)


def encode_frames(seq: SequenceRecord) -> np.ndarray:
    """Assemble a sequence record's raw frames into a (k, 135) matrix."""
    rows = [
        assemble_frame_vector(fr.left, fr.right, fr.obj, (fr.left.present, fr.right.present))
        for fr in seq.frames
    ]
    return np.stack(rows)


# --- encoded-sequence NDJSON (prepared 20x135 matrices) --------------------


def save_encoded(path, sequences: list[ActionSequence], ids=None, splits=None) -> None:
    ids = ids if ids is not None else range(len(sequences))
    splits = splits if splits is not None else ["train"] * len(sequences)
    lines = []
    for sid, split, seq in zip(ids, splits, sequences):
        rec = {
            "sequence_id": int(sid),
            "action_label": int(seq.action_label),
            "split": split,
            "valid_count": int(seq.valid_count),
            "frames": [[float(x) for x in row] for row in seq.frames],
        }
        lines.append(_canon(rec))
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def load_encoded(path):
    """Read encoded sequences -> list of (sequence_id, split, ActionSequence)."""
    with open(path) as f:
        lines = f.read().splitlines()
    out = []
    fields = ("sequence_id", "action_label", "split", "valid_count", "frames")
    for ln, obj in _records(lines, 1, fields, ("sequence_id", "action_label", "valid_count")):
        frames = obj["frames"]
        if not isinstance(frames, list) or len(frames) != SEQ_LEN:
            raise DatasetFormatError(f"expected {SEQ_LEN} frames", ln)
        for row in frames:
            if not isinstance(row, list) or len(row) != FRAME_DIM:
                raise DatasetFormatError(
                    f"each frame needs exactly {FRAME_DIM} values, got {len(row) if isinstance(row, list) else '?'}",
                    ln,
                )
        if not _numbers(frames):
            raise DatasetFormatError("frame values must be numbers", ln)
        try:
            seq = ActionSequence(
                np.asarray(frames, dtype=np.float64), obj["valid_count"], obj["action_label"]
            )
        except _BAD_VALUE as e:
            raise DatasetFormatError(str(e), ln) from e
        out.append((obj["sequence_id"], obj["split"], seq))
    return out


def export_csv_matrices(dirpath, sequences: list[ActionSequence], ids=None) -> None:
    """One CSV per prepared sequence, 20 rows x 135 columns, for inspection."""
    os.makedirs(dirpath, exist_ok=True)
    ids = ids if ids is not None else range(len(sequences))
    for sid, seq in zip(ids, sequences):
        lines = [",".join(repr(float(x)) for x in row) for row in seq.frames]
        with open(os.path.join(dirpath, f"seq{int(sid):05d}.csv"), "w") as f:
            f.write("\n".join(lines) + "\n")
