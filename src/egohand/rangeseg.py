"""Pseudo-depth range segmentation: normalize, threshold, mask, de-sharpen.

A depth map carries a value-order tag because monocular estimators emit
disparity-style maps (closer pixels have *larger* values) while metric
sensors emit millimetres (closer is *smaller*). Both conventions share one
mask semantics: keep the near side of the threshold.

File formats owned by this module:

``.dmap``: 16-byte header -- magic ``DMAP``, version u16 LE (=1), order tag
u8 (0 = closer-is-smaller, 1 = closer-is-larger, 255 = mask), flag u8
(normalized for depth maps, binary for masks), width u32 LE, height u32 LE
-- followed by width*height float32 LE row-major values.

``.ppm``: binary PPM (P6, maxval 255) for RGB frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FlatMapError, FormatError, RangeError, StructuralError

CLOSER_IS_LARGER = "closer-is-larger"
CLOSER_IS_SMALLER = "closer-is-smaller"

_ORDER_TAGS = {CLOSER_IS_SMALLER: 0, CLOSER_IS_LARGER: 1}
_TAG_ORDERS = {0: CLOSER_IS_SMALLER, 1: CLOSER_IS_LARGER}
_MASK_TAG = 255

_DMAP_MAGIC = b"DMAP"
_DMAP_VERSION = 1
_DMAP_HEADER = struct.Struct("<4sHBBII")

POSE_INPUT_SIZE = 512


def _as_map(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise StructuralError(f"expected a non-empty 2D map, got shape {arr.shape}")
    return arr


@dataclass
class DepthMap:
    """Row-major scalar grid with a value-order tag and normalization flag."""

    values: np.ndarray
    order: str = CLOSER_IS_LARGER
    normalized: bool = False

    def __post_init__(self):
        self.values = _as_map(self.values)
        if self.order not in _ORDER_TAGS:
            raise StructuralError(f"unknown value-order tag {self.order!r}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise StructuralError("depth values must be finite and >= 0")
        if self.normalized:
            mx = self.values.max()
            if mx > 1.0 or (mx > 0.0 and mx != 1.0):
                raise StructuralError("normalized map must have values in [0,1] with max exactly 1")


@dataclass
class SegMask:
    """Segmentation weights in [0, 1]; binary masks take only {0, 1}."""

    values: np.ndarray
    binary: bool = True

    def __post_init__(self):
        self.values = _as_map(self.values)
        if np.any(self.values < 0) or np.any(self.values > 1) or not np.all(np.isfinite(self.values)):
            raise StructuralError("mask values must lie in [0, 1]")
        if self.binary and not np.all((self.values == 0) | (self.values == 1)):
            raise StructuralError("binary mask contains non-{0,1} values")


def normalize_depth(raw: DepthMap) -> DepthMap:
    """Divide every value by the map maximum; preserves the order tag."""
    if raw.normalized:
        raise ValueError("map is already normalized")
    mx = raw.values.max()
    if mx == 0.0:
        raise FlatMapError("all-zero depth map cannot be max-normalized")
    return DepthMap(raw.values / mx, order=raw.order, normalized=True)


def range_mask(norm: DepthMap, t: float) -> SegMask:
    """Binary mask keeping the near side of threshold ``t`` on a normalized map.

    Near side under closer-is-larger means value >= t; under
    closer-is-smaller it means value <= t. The boundary value t is kept.
    """
    if not norm.normalized:
        raise ValueError("range_mask requires a normalized map")
    if not (0.0 < t < 1.0):
        raise RangeError(f"threshold must lie in (0, 1), got {t}")
    if norm.order == CLOSER_IS_LARGER:
        keep = norm.values >= t
    else:
        keep = norm.values <= t
    return SegMask(keep.astype(np.float64), binary=True)


def range_mask_metric(raw: DepthMap, t_mm: float) -> SegMask:
    """Binary mask on a raw millimetre map: keep 0 < value <= t_mm.

    Zero millimetres is the sensor-invalid code and is always removed.
    """
    if raw.normalized:
        raise ValueError("range_mask_metric expects a raw (unnormalized) map")
    if raw.order != CLOSER_IS_SMALLER:
        raise ValueError("metric maps are closer-is-smaller")
    if t_mm <= 0:
        raise RangeError(f"metric threshold must be positive, got {t_mm}")
    keep = (raw.values <= t_mm) & (raw.values > 0)
    return SegMask(keep.astype(np.float64), binary=True)


def apply_mask(frame: np.ndarray, mask: SegMask, fill=(0, 0, 0)) -> np.ndarray:
    """Mask an (H, W, 3) uint8 frame.

    Binary masks select kept pixels exactly; soft masks blend each channel
    toward ``fill`` by the mask weight.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise StructuralError(f"frame must be (H, W, 3) uint8, got {frame.shape} {frame.dtype}")
    if frame.shape[:2] != mask.values.shape:
        raise StructuralError(
            f"frame {frame.shape[:2]} and mask {mask.values.shape} dimensions differ"
        )
    fill_arr = np.asarray(fill, dtype=np.float64).reshape(1, 1, 3)
    if mask.binary:
        keep = mask.values[:, :, None] == 1.0
        return np.where(keep, frame, fill_arr.astype(np.uint8))
    m = mask.values[:, :, None]
    blended = frame.astype(np.float64) * m + fill_arr * (1.0 - m)
    return np.clip(np.rint(blended), 0, 255).astype(np.uint8)


def desharpen_mask(mask: SegMask, radius: int) -> SegMask:
    """Box-blur a mask with a (2r+1)-wide window, renormalized at borders.

    The output is soft; every pixel equals the mean of the input over the
    intersection of its window with the image, so a constant mask blurs to
    itself.
    """
    if radius < 1:
        raise RangeError(f"blur radius must be >= 1, got {radius}")
    if radius >= min(mask.values.shape):
        raise RangeError(
            f"blur radius {radius} must be smaller than min(width, height) = {min(mask.values.shape)}"
        )
    blurred = _kernels.box_blur(mask.values, radius)
    # guard float round-off at the [0,1] boundary
    return SegMask(np.clip(blurred, 0.0, 1.0), binary=False)


def mask_stats(mask: SegMask) -> tuple[float, float]:
    """(kept_fraction, kept_pixels): mean mask weight and total mask mass."""
    return float(mask.values.mean()), float(mask.values.sum())


# --- .dmap format ---------------------------------------------------------


def _pack_dmap(values: np.ndarray, tag: int, flag: int) -> bytes:
    h, w = values.shape
    header = _DMAP_HEADER.pack(_DMAP_MAGIC, _DMAP_VERSION, tag, flag, w, h)
    return header + values.astype("<f4").tobytes()


def _unpack_dmap(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int, int, int]:
    """Returns (values float64, order tag, flag, next offset)."""
    if len(buf) - offset < _DMAP_HEADER.size:
        raise FormatError("truncated .dmap header")
    magic, version, tag, flag, w, h = _DMAP_HEADER.unpack_from(buf, offset)
    if magic != _DMAP_MAGIC:
        raise FormatError(f"bad .dmap magic {magic!r}")
    if version != _DMAP_VERSION:
        raise FormatError(f"unsupported .dmap version {version}")
    if tag not in (0, 1, _MASK_TAG):
        raise FormatError(f"unknown order tag {tag}")
    if flag not in (0, 1):
        raise FormatError(f"flag byte must be 0 or 1, got {flag}")
    if w == 0 or h == 0:
        raise FormatError("zero-sized .dmap")
    start = offset + _DMAP_HEADER.size
    end = start + 4 * w * h
    if len(buf) < end:
        raise FormatError(f"payload truncated: expected {4 * w * h} value bytes")
    with np.errstate(invalid="ignore"):  # a signalling NaN; DepthMap and SegMask reject it
        values = np.frombuffer(buf[start:end], dtype="<f4").astype(np.float64).reshape(h, w)
    return values, tag, flag, end


def _read_dmap(path) -> tuple[np.ndarray, int, int]:
    """(values, order tag, flag) of a file holding exactly one .dmap."""
    with open(path, "rb") as f:
        buf = f.read()
    values, tag, flag, end = _unpack_dmap(buf)
    if end != len(buf):
        raise FormatError(f"{len(buf) - end} trailing bytes after .dmap payload")
    return values, tag, flag


def save_depth(path, dm: DepthMap) -> None:
    with open(path, "wb") as f:
        f.write(_pack_dmap(dm.values, _ORDER_TAGS[dm.order], int(dm.normalized)))


def load_depth(path) -> DepthMap:
    values, tag, flag = _read_dmap(path)
    if tag == _MASK_TAG:
        raise FormatError("file holds a mask, not a depth map")
    return DepthMap(values, order=_TAG_ORDERS[tag], normalized=bool(flag))


def save_mask(path, mask: SegMask) -> None:
    with open(path, "wb") as f:
        f.write(_pack_dmap(mask.values, _MASK_TAG, int(mask.binary)))


def load_mask(path) -> SegMask:
    values, tag, flag = _read_dmap(path)
    if tag != _MASK_TAG:
        raise FormatError("file holds a depth map, not a mask")
    return SegMask(values, binary=bool(flag))


# --- PPM frames -----------------------------------------------------------


def save_ppm(path, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise StructuralError("PPM frames must be (H, W, 3) uint8")
    h, w = frame.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(frame.tobytes())


def load_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(b"P6"):
        raise FormatError("not a binary PPM (P6) file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PPM header")
        fields.append(buf[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(x) for x in fields)
    except ValueError as e:
        raise FormatError(f"bad PPM header field: {e}") from e
    if maxval != 255 or w < 1 or h < 1:
        raise FormatError(f"need a positive PPM size and maxval 255, got {w}x{h}, maxval {maxval}")
    need = w * h * 3
    data = buf[pos : pos + need]
    if len(data) != need:
        raise FormatError(f"PPM payload truncated: expected {need} bytes, got {len(data)}")
    if len(buf) - pos != need:
        raise FormatError(f"{len(buf) - pos - need} trailing bytes after PPM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()


def resample_to_pose_input(frame: np.ndarray, size: int = POSE_INPUT_SIZE) -> np.ndarray:
    """Nearest-neighbour resample to the square pose-pipeline input size."""
    h, w = frame.shape[:2]
    if h == size and w == size:
        return frame
    rows = (np.arange(size) * h // size).astype(np.intp)
    cols = (np.arange(size) * w // size).astype(np.intp)
    return frame[rows][:, cols]
