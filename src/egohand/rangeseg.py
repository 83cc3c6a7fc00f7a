"""Pseudo-depth range segmentation: normalize, threshold, mask, de-sharpen.

A depth map carries a value-order tag because monocular estimators emit
disparity-style maps (closer pixels have *larger* values) while metric
sensors emit millimetres (closer is *smaller*). Both conventions share one
mask semantics: keep the near side of the threshold.

A binary ``SegMask`` holds its values as a bool map; a soft (de-sharpened)
one holds float64 weights in [0, 1].

File formats owned by this module:

``.dmap``: 16-byte header -- magic ``DMAP``, version u16 LE (=1), order tag
u8 (0 = closer-is-smaller, 1 = closer-is-larger, 255 = mask), flag u8
(normalized for depth maps, binary for masks), width u32 LE, height u32 LE
-- followed by width*height float32 LE row-major values.

``.ppm``: binary PPM for RGB frames: ``P6``, then width, height and maxval
(255), each after ASCII whitespace and ``#`` comment lines and ending at one
whitespace byte, then width*height RGB byte triples, row-major.

Each format's payload must end the file.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FlatMapError, FormatError, RangeError, StructuralError, names_file

CLOSER_IS_LARGER = "closer-is-larger"
CLOSER_IS_SMALLER = "closer-is-smaller"

_ORDER_TAGS = {CLOSER_IS_SMALLER: 0, CLOSER_IS_LARGER: 1}
_TAG_ORDERS = {0: CLOSER_IS_SMALLER, 1: CLOSER_IS_LARGER}
_MASK_TAG = 255

_DMAP_MAGIC = b"DMAP"
_DMAP_VERSION = 1
_DMAP_HEADER = struct.Struct("<4sHBBII")
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)*(\S+)\s" * 3)


def _as_map(values, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
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
    """Segmentation weights in [0, 1]; the dtype is the kind.

    A binary mask stores its values as a bool map, a soft one as float64.
    """

    values: np.ndarray

    def __post_init__(self):
        if np.asarray(self.values).dtype == bool:
            self.values = _as_map(self.values, dtype=bool)
            return
        values = _as_map(self.values)
        if np.any(values < 0) or np.any(values > 1) or not np.all(np.isfinite(values)):
            raise StructuralError("mask values must lie in [0, 1]")
        self.values = values

    @property
    def binary(self) -> bool:
        return self.values.dtype == bool


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
    return SegMask(keep)


def range_mask_metric(raw: DepthMap, t_mm: float) -> SegMask:
    """Binary mask on a raw millimetre map: keep 0 < value <= t_mm.

    Zero millimetres is the sensor-invalid code and is always removed.
    """
    if raw.normalized:
        raise ValueError("range_mask_metric expects a raw (unnormalized) map")
    if raw.order != CLOSER_IS_SMALLER:
        raise ValueError("metric maps are closer-is-smaller")
    if not (np.isfinite(t_mm) and t_mm > 0):
        raise RangeError(f"metric threshold must be a positive finite number, got {t_mm}")
    keep = (raw.values <= t_mm) & (raw.values > 0)
    return SegMask(keep)


def apply_mask(frame: np.ndarray, mask: SegMask, fill=(0, 0, 0)) -> np.ndarray:
    """Mask an (H, W, 3) uint8 frame.

    Binary masks select kept pixels exactly; soft masks blend each channel
    toward ``fill`` by the mask weight. ``fill`` is three integers in 0..255.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise StructuralError(f"frame must be (H, W, 3) uint8, got {frame.shape} {frame.dtype}")
    if frame.shape[:2] != mask.values.shape:
        raise StructuralError(
            f"frame {frame.shape[:2]} and mask {mask.values.shape} dimensions differ"
        )
    try:
        rgb = [operator.index(v) for v in fill]
    except TypeError:
        rgb = []
    if len(rgb) != 3 or not all(0 <= v <= 255 for v in rgb):
        raise StructuralError(f"fill must be three integers in 0..255, got {fill!r}")
    fill_arr = np.array(rgb, dtype=np.float64)
    h, w = mask.values.shape
    out = np.empty((h, w, 3), np.uint8)
    if mask.binary:
        # row layout: each (3W,) row of the frame against its mask repeated per channel
        rows = out.reshape(h, 3 * w)
        rows[...] = np.tile(fill_arr.astype(np.uint8), w)
        np.copyto(rows, frame.reshape(h, 3 * w), where=np.repeat(mask.values, 3, axis=1))
        return out
    # one contiguous plane per channel: frame * m + fill * (1 - m), rounded and clipped
    m = mask.values
    fill_weight = 1.0 - m
    plane, fill_term = np.empty((h, w)), np.empty((h, w))
    for ch in range(3):
        np.multiply(frame[:, :, ch], m, out=plane)
        np.multiply(fill_arr[ch], fill_weight, out=fill_term)
        plane += fill_term
        np.rint(plane, out=plane)
        np.clip(plane, 0, 255, out=plane)
        out[:, :, ch] = plane
    return out


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
    return SegMask(np.clip(blurred, 0.0, 1.0, out=blurred))


def mask_stats(mask: SegMask) -> tuple[float, float]:
    """(kept_fraction, kept_pixels): mean mask weight and total mask mass."""
    return float(mask.values.mean()), float(mask.values.sum())


def _payload(buf: bytes, start: int, size: int) -> memoryview:
    """The ``size`` bytes of ``buf`` from ``start``, which must end the file."""
    if len(buf) - start != size:
        raise FormatError(f"payload of {len(buf) - start} bytes where the header gives {size}: "
                          "the file is truncated or has trailing bytes")
    return memoryview(buf)[start:]


# --- .dmap format ---------------------------------------------------------


def _write_dmap(path, values: np.ndarray, tag: int, flag: int) -> None:
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(_DMAP_HEADER.pack(_DMAP_MAGIC, _DMAP_VERSION, tag, flag, w, h))
        f.write(values.astype("<f4"))


def _read_dmap(path) -> tuple[np.ndarray, int, int]:
    """(values float64, order tag, flag) of a file holding exactly one .dmap."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < _DMAP_HEADER.size:
        raise FormatError("truncated .dmap header")
    magic, version, tag, flag, w, h = _DMAP_HEADER.unpack_from(buf)
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
    payload = _payload(buf, _DMAP_HEADER.size, 4 * w * h)
    with np.errstate(invalid="ignore"):  # a signalling NaN; DepthMap and SegMask reject it
        values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w)
    return values, tag, flag


def save_depth(path, dm: DepthMap) -> None:
    _write_dmap(path, dm.values, _ORDER_TAGS[dm.order], int(dm.normalized))


@names_file
def load_depth(path) -> DepthMap:
    values, tag, flag = _read_dmap(path)
    if tag == _MASK_TAG:
        raise FormatError("file holds a mask, not a depth map")
    return DepthMap(values, order=_TAG_ORDERS[tag], normalized=bool(flag))


def save_mask(path, mask: SegMask) -> None:
    _write_dmap(path, mask.values, _MASK_TAG, int(mask.binary))


@names_file
def load_mask(path) -> SegMask:
    values, tag, flag = _read_dmap(path)
    if tag != _MASK_TAG:
        raise FormatError("file holds a depth map, not a mask")
    if flag:
        if not np.all((values == 0) | (values == 1)):
            raise FormatError("binary mask contains non-{0,1} values")
        values = values == 1.0
    return SegMask(values)


# --- PPM frames -----------------------------------------------------------


def save_ppm(path, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise StructuralError("PPM frames must be (H, W, 3) uint8")
    h, w = frame.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(frame))


@names_file
def load_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    header = _PPM_HEADER.match(buf)
    if header is None:
        raise FormatError("bad PPM header: expected P6, width, height and maxval")
    try:
        w, h, maxval = map(int, header.groups())
    except ValueError as e:
        raise FormatError(f"bad PPM header field: {e}") from e
    if maxval != 255 or w < 1 or h < 1:
        raise FormatError(f"need a positive PPM size and maxval 255, got {w}x{h}, maxval {maxval}")
    return np.frombuffer(_payload(buf, header.end(), 3 * w * h), np.uint8).reshape(h, w, 3).copy()
