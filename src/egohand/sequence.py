"""Per-frame 135-dim vectors, fixed-length action sequences, and dataset I/O.

Frame vector layout: [left hand 63 | right hand 63 | box corners 8 | label 1].
Hands flatten as (X, Y, Z) per joint in canonical joint order; absent hands
contribute zeros. A prepared action sequence is exactly 20 such frames.

Dataset directory layout:

``poses.ndjson``: header line ``{"intrinsics": {...}, "space": "2.5d"|"3d"}``
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
    names_file,
)
from .geometry import (
    CameraIntrinsics,
    HandPose,
    rotate_points_2d,
)
from .reports import csv_lines, write_csv

FRAME_DIM = 135
SEQ_LEN = 20
N_CLASSES = 36

LEFT_SLICE = slice(0, 63)
RIGHT_SLICE = slice(63, 126)
BOX_SLICE = slice(126, 134)
LABEL_INDEX = 134

SPLITS = ("train", "val", "test")
MANIFEST_HEADER = ("sequence_id", "frame_start", "frame_end", "action_label", "split")
POSES_FILE, MANIFEST_FILE = "poses.ndjson", "manifest.csv"  # a dataset directory's files
SPACES = ("2.5d", "3d")

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


def assemble_frame_vector(left: HandPose, right: HandPose, obj: ObjectObs) -> np.ndarray:
    """Pack one frame into the 135-vector; absent hands write zeros."""
    out = np.zeros(FRAME_DIM)
    if left.present:
        out[LEFT_SLICE] = left.joints.reshape(-1)
    if right.present:
        out[RIGHT_SLICE] = right.joints.reshape(-1)
    out[BOX_SLICE] = obj.box.reshape(-1)
    out[LABEL_INDEX] = float(obj.label)
    return out


def subsample_or_pad(frames, n: int = SEQ_LEN, rng=None):
    """Fit a raw frame list to exactly ``n`` frames.

    Shorter inputs are zero-padded at the tail; longer inputs are
    sub-sampled at strictly increasing source indices. Without ``rng`` the
    indices are floor(i*len/n); with it, a sorted sample of n distinct
    indices drawn from ``rng``. Returns the (n, 135) frames, a new array;
    the first min(len, n) rows are source frames, the rest zero padding.
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
        return out
    if rng is None:
        idx = (np.arange(n) * k) // n
    else:
        idx = np.sort(rng.choice(k, size=n, replace=False))
    return frames[idx]  # integer-array indexing already makes a new array


def augment_sequence(frames, rotation_range: float, mask_prob: float, rng):
    """Training-time augmentation: one shared rotation, one optional group mask.

    A single angle drawn from [-rotation_range, rotation_range] rotates every
    frame's (x, y) coordinates (hand joints' X,Y and box corners) about the
    centroid of those coordinates over the sequence; z values and the label
    slot are untouched. Groups that are entirely zero in a frame (absent
    hands, zeroed boxes, the padding rows of ``subsample_or_pad``) stay zero
    and stay out of the centroid. With probability ``mask_prob`` one group
    from ``MASK_GROUPS`` is zeroed in every frame.
    """
    frames = np.asarray(frames, dtype=np.float64).copy()
    if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
        raise StructuralError(f"frames must be (k, {FRAME_DIM}), got {frames.shape}")
    if not (0.0 <= mask_prob <= 1.0):
        raise ValueError(f"mask probability must lie in [0, 1], got {mask_prob}")

    angle = rng.uniform(-rotation_range, rotation_range)
    mask_draw = rng.uniform()

    if angle != 0.0:
        live = np.zeros(frames.shape, dtype=bool)  # the columns of non-zero groups
        for group in ("left", "right", "box"):
            sl = GROUP_SLICES[group]
            live[:, sl] = np.any(frames[:, sl], axis=1, keepdims=True)
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
    left: HandPose
    right: HandPose
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


# what np.asarray and the record types raise on a JSON value of the wrong kind:
# a non-number, an integer beyond float range, a non-finite or mis-shaped array
_BAD_VALUE = (TypeError, ValueError, OverflowError, StructuralError)


def _numbers(rows) -> bool:
    """Whether every value in the rows of ``rows`` is a JSON number, not a string, boolean
    or null, which np.asarray and float() would coerce; the record types check shapes."""
    try:
        return set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}
    except TypeError:  # ``rows`` or one of its rows is not iterable
        return False


def _pose_to_json(pose) -> dict:
    return {"present": bool(pose.present), "joints": pose.joints.tolist()}


def _pose_from_json(obj, line: int):
    if not isinstance(obj, dict) or "present" not in obj or "joints" not in obj:
        raise DatasetFormatError("hand must be an object with 'present' and 'joints'", line)
    if not _numbers(obj["joints"]):
        raise DatasetFormatError("joint coordinates must be numbers", line)
    if type(obj["present"]) is not bool:
        raise DatasetFormatError("present must be true or false", line)
    try:
        return HandPose(np.asarray(obj["joints"], dtype=np.float64), present=obj["present"])
    except _BAD_VALUE as e:
        raise DatasetFormatError(f"bad joints: {e}", line) from e


def _write_ndjson(path, docs) -> None:
    """One compact JSON line per document of ``docs``: the one NDJSON writer. A
    document JSON cannot hold (a NaN, say) raises before the file is opened."""
    text = "".join(json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n" for doc in docs)
    with open(path, "w") as f:
        f.write(text)


def _pose_docs(k: CameraIntrinsics, space: str, frames):
    """poses.ndjson documents: the header, then one per frame record."""
    yield {"intrinsics": {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy}, "space": space}
    for fr in frames:
        yield {
            "frame_id": fr.frame_id,
            "left": _pose_to_json(fr.left),
            "right": _pose_to_json(fr.right),
            "obj_box": fr.obj.box.tolist(),
            "obj_label": fr.obj.label,
            "split": fr.split,
        }


def save_dataset(path, dataset: Dataset) -> None:
    """Write poses.ndjson + manifest.csv under directory ``path``."""
    os.makedirs(path, exist_ok=True)
    rows = [
        (seq.sequence_id, seq.frames[0].frame_id, seq.frames[-1].frame_id + 1, seq.action_label, seq.split)
        for seq in dataset.sequences
    ]
    frames = (fr for seq in dataset.sequences for fr in seq.frames)
    _write_ndjson(os.path.join(path, POSES_FILE), _pose_docs(dataset.intrinsics, dataset.space, frames))
    write_csv(os.path.join(path, MANIFEST_FILE), [MANIFEST_HEADER, *rows])


def save_pose_file(path, intrinsics: CameraIntrinsics, space: str, frames: list) -> None:
    """Write a standalone poses.ndjson-style file (header + frame lines)."""
    if space not in SPACES:
        raise ValueError(f"unknown space tag {space!r}")
    _write_ndjson(path, _pose_docs(intrinsics, space, frames))


def _json_line(text: str, ln: int):
    """The JSON value on line ``ln``. Text the decoder rejects, an integer
    past Python's digit limit among it or nesting past its recursion limit,
    raises DatasetFormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # a JSONDecodeError (its msg has no position) or a limit's
        raise DatasetFormatError(f"invalid JSON: {getattr(e, 'msg', e)}", ln) from e


def _parse_header(line: str):
    obj = _json_line(line, 1)
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


@names_file
def load_pose_file(path):
    """Parse a poses.ndjson file -> (intrinsics, space, [FrameRecord]); the
    header line is required, so an empty file fails at line 1."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetFormatError("missing header line", 1)
    k, space = _parse_header(lines[0])
    frames = []
    last_id = None
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        obj = _json_line(raw, ln)
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"expected a JSON object, got {type(obj).__name__}", ln)
        for key in ("frame_id", "left", "right", "obj_box", "obj_label", "split"):
            if key not in obj:
                raise DatasetFormatError(f"missing field {key!r}", ln)
        if obj["split"] not in SPLITS:
            raise DatasetFormatError(f"unknown split tag {obj['split']!r}", ln)
        for key in ("frame_id", "obj_label"):
            if type(obj[key]) is not int:
                raise DatasetFormatError(f"{key} must be an integer", ln)
        if not _numbers(obj["obj_box"]):
            raise DatasetFormatError("obj_box corners must be numbers", ln)
        fid = obj["frame_id"]
        if last_id is not None and fid <= last_id:
            raise DatasetFormatError(f"frame_id {fid} not strictly increasing", ln)
        last_id = fid
        try:
            obs = ObjectObs(np.asarray(obj["obj_box"], dtype=np.float64), obj["obj_label"])
        except _BAD_VALUE as e:
            raise DatasetFormatError(f"bad object: {e}", ln) from e
        frames.append(
            FrameRecord(
                frame_id=fid,
                left=_pose_from_json(obj["left"], ln),
                right=_pose_from_json(obj["right"], ln),
                obj=obs,
                split=obj["split"],
            )
        )
    return k, space, frames


@names_file
def _parse_manifest(path):
    lines = csv_lines(path)
    if not lines or lines[0] != (1, list(MANIFEST_HEADER)):
        raise DatasetFormatError("manifest header missing or malformed", 1)
    rows, seen = [], set()
    for ln, parts in lines[1:]:
        if len(parts) != 5:
            raise DatasetFormatError(f"expected 5 manifest columns, got {len(parts)}", ln)
        try:
            sid, start, end, label = (int(x) for x in parts[:4])
        except ValueError as e:
            raise DatasetFormatError(f"non-integer manifest field: {e}", ln) from e
        if sid in seen:
            raise DatasetFormatError(f"repeated sequence_id {sid}", ln)
        seen.add(sid)
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
    k, space, frames = load_pose_file(os.path.join(path, POSES_FILE))
    by_id = {fr.frame_id: fr for fr in frames}
    sequences = []
    for sid, start, end, label, split in _parse_manifest(os.path.join(path, MANIFEST_FILE)):
        seq_frames = []
        for fid in range(start, end):
            fr = by_id.get(fid)
            if fr is None:
                raise DataConsistencyError(f"sequence {sid}: frame {fid} missing from {POSES_FILE}")
            if fr.split != split:
                raise DataConsistencyError(
                    f"sequence {sid}: frame {fid} split {fr.split!r} != manifest split {split!r}"
                )
            seq_frames.append(fr)
        sequences.append(SequenceRecord(sid, seq_frames, label, split))
    return Dataset(intrinsics=k, space=space, sequences=sequences)


def encode_frames(seq: SequenceRecord) -> np.ndarray:
    """Assemble a sequence record's raw frames into a (k, 135) matrix."""
    return np.stack([assemble_frame_vector(fr.left, fr.right, fr.obj) for fr in seq.frames])


# --- encoded-sequence NDJSON (prepared 20x135 matrices) --------------------


def save_encoded(path, records) -> None:
    """Write prepared sequences, one NDJSON line per ``(sequence_id, split,
    action_label, valid_count, frames)`` record."""
    _write_ndjson(path, (
        {"sequence_id": sid, "action_label": label, "split": split, "valid_count": valid,
         "frames": frames.tolist()}
        for sid, split, label, valid, frames in records
    ))


def export_csv_matrices(dirpath, records) -> None:
    """One CSV per ``save_encoded`` record, 20 rows x 135 columns, for inspection."""
    os.makedirs(dirpath, exist_ok=True)
    for sid, _, _, _, frames in records:
        write_csv(os.path.join(dirpath, f"seq{sid:05d}.csv"), frames.tolist())
