"""Corrupt binary files: each reader raises only its documented errors.

The property tests splice a random byte run into a valid checkpoint,
``.dmap`` or PPM file at a random cut point, replacing a short or long
stretch of it, and check which exception escapes the reader.
"""

import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egohand import nnkit
from egohand.errors import CheckpointMismatchError, FormatError, StructuralError
from egohand.rangeseg import (
    DepthMap,
    SegMask,
    load_depth,
    load_mask,
    load_ppm,
    save_depth,
    save_mask,
    save_ppm,
)

_SPLICE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=400)
_SPLICES = {
    "at": st.floats(0.0, 1.0),
    "drop": st.integers(0, 16) | st.integers(0, 4096),
    "junk": st.binary(max_size=16),
}


def _spliced(valid: bytes, at: float, drop: int, junk: bytes) -> bytes:
    """``valid`` with ``drop`` bytes from the fraction ``at`` of its length on
    replaced by ``junk``."""
    i = int(at * len(valid))
    return valid[:i] + junk + valid[i + drop :]


def _raises_only(load, path, allowed):
    try:
        load(path)
    except allowed:
        pass


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a valid checkpoint, depth map, mask and PPM, and a scratch path."""
    d = tmp_path_factory.mktemp("binary")
    rng = np.random.default_rng(50)
    ps = nnkit.ParamSet()
    ps.add("alpha", rng.normal(size=(3, 4)))
    ps.add("beta", rng.normal(size=(1, 7)))
    ps.grads["alpha"][...] = 1.0
    nnkit.adamw_step(ps, 0.01)
    nnkit.save_checkpoint(d / "c.bin", ps)
    save_depth(d / "d.dmap", DepthMap(rng.uniform(0.0, 3.0, (5, 4))))
    save_mask(d / "m.dmap", SegMask(rng.uniform(size=(5, 4)) < 0.5))
    save_ppm(d / "f.ppm", rng.integers(0, 256, (2, 3, 3), dtype=np.uint8))
    files = {name: (d / name).read_bytes() for name in ("c.bin", "d.dmap", "m.dmap", "f.ppm")}
    return files, d / "scratch"


@_SPLICE_SETTINGS
@given(**_SPLICES)
def test_checkpoint_raises_only_format_or_mismatch(valid_files, at, drop, junk):
    files, path = valid_files
    path.write_bytes(_spliced(files["c.bin"], at, drop, junk))
    _raises_only(nnkit.load_checkpoint, path, (FormatError, CheckpointMismatchError))


@_SPLICE_SETTINGS
@given(**_SPLICES)
def test_depth_map_raises_only_format_or_value_error(valid_files, at, drop, junk):
    files, path = valid_files
    path.write_bytes(_spliced(files["d.dmap"], at, drop, junk))
    _raises_only(load_depth, path, (FormatError, StructuralError))


@_SPLICE_SETTINGS
@given(**_SPLICES)
def test_mask_raises_only_format_or_value_error(valid_files, at, drop, junk):
    files, path = valid_files
    path.write_bytes(_spliced(files["m.dmap"], at, drop, junk))
    _raises_only(load_mask, path, (FormatError, StructuralError))


@_SPLICE_SETTINGS
@given(**_SPLICES)
def test_ppm_raises_only_format_error(valid_files, at, drop, junk):
    files, path = valid_files
    path.write_bytes(_spliced(files["f.ppm"], at, drop, junk))
    _raises_only(load_ppm, path, FormatError)


_READERS = {"c.bin": nnkit.load_checkpoint, "d.dmap": load_depth, "m.dmap": load_mask, "f.ppm": load_ppm}


@pytest.mark.parametrize("name", sorted(_READERS))
@_SPLICE_SETTINGS
@given(junk=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_are_format_error(valid_files, name, junk):
    files, path = valid_files
    path.write_bytes(files[name] + junk)
    with pytest.raises(FormatError, match="trailing bytes"):
        _READERS[name](path)


def _checkpoint(*entries: bytes, opt: tuple[bytes, ...] = ()) -> bytes:
    """A checkpoint holding the packed parameter ``entries`` and optimizer entries ``opt``."""
    return (b"SHRP" + struct.pack("<HI", 1, len(entries)) + b"".join(entries)
            + struct.pack("<I", len(opt)) + b"".join(opt) + struct.pack("<Q", 4))


def test_checkpoint_name_not_utf8_is_format_error(tmp_path):
    entry = nnkit._pack_entry("w", np.ones((1, 1)))
    path = tmp_path / "c.bin"
    path.write_bytes(_checkpoint(entry.replace(b"w", b"\xff", 1)))
    with pytest.raises(FormatError):
        nnkit.load_checkpoint(path)


def test_checkpoint_duplicate_name_is_format_error(tmp_path):
    entry = nnkit._pack_entry("w", np.ones((1, 1)))
    path = tmp_path / "c.bin"
    path.write_bytes(_checkpoint(entry, entry))
    with pytest.raises(FormatError):
        nnkit.load_checkpoint(path)


@pytest.mark.parametrize("names, message", [
    (("m:a", "m:b"), "optimizer table has no entry 'v:a'"),
    (("m:a", "m:b", "v:a"), "optimizer table has no entry 'v:b'"),
    (("m:a", "m:b", "v:a", "v:a"), "duplicate optimizer entry 'v:a'"),
    (("m:a", "m:a", "m:b", "v:a", "v:b"), "duplicate optimizer entry 'm:a'"),
], ids=["only-m", "one-v-missing", "v-repeated", "m-repeated"])
def test_checkpoint_optimizer_table_needs_one_m_and_one_v_per_parameter(tmp_path, names, message):
    shapes = {"a": (2, 2), "b": (1, 3)}
    pack = lambda name: nnkit._pack_entry(name, np.ones(shapes[name[-1]]))
    path = tmp_path / "c.bin"
    path.write_bytes(_checkpoint(pack("a"), pack("b"), opt=tuple(map(pack, names))))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}$"):
        nnkit.load_checkpoint(path)


def _load_ppm_tokenizer(buf: bytes) -> np.ndarray:
    """Reference PPM reader: the header read by a byte-by-byte tokenizer."""
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
    got = max(len(buf) - pos, 0)
    if got < need:
        raise FormatError(f"PPM payload truncated: expected {need} bytes, got {got}")
    if got != need:
        raise FormatError(f"{got - need} trailing bytes after PPM payload")
    return np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3).copy()


_HEADER_ALPHABET = [b"P6", *(bytes([c]) for c in b"0123456789# \t\n\r\x0b\x0c-+\x00\xff")]


def _mutated_ppm(rng: random.Random) -> bytes:
    """A small PPM whose header took one to three random edits, each putting
    an ``_HEADER_ALPHABET`` item in place of zero to two bytes; the payload
    fits the header before the edits, or is one byte off."""
    w, h = rng.randint(1, 3), rng.randint(1, 3)
    header = bytearray(b"P6\n%d %d\n255\n" % (w, h))
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(header) + 1)
        header[at : at + rng.randrange(3)] = rng.choice(_HEADER_ALPHABET)
    return bytes(header) + bytes(range(max(3 * w * h + rng.choice((-1, 0, 0, 0, 1)), 0)))


def _outcome(load, arg):
    try:
        frame = load(arg)
    except FormatError:
        return FormatError
    return frame.shape, frame.tobytes()


def test_ppm_header_pattern_matches_the_tokenizer(tmp_path):
    """20,000 mutated headers: load_ppm gives the reference reader's frame or error class."""
    rng = random.Random(23)
    path = tmp_path / "f.ppm"
    loaded = 0
    for _ in range(20_000):
        buf = _mutated_ppm(rng)
        path.write_bytes(buf)
        want = _outcome(_load_ppm_tokenizer, buf)
        assert _outcome(load_ppm, path) == want, buf
        loaded += want is not FormatError
    assert loaded > 500  # the corpus reaches the accepting path too


@pytest.mark.parametrize("size", [b"-1 -1", b"0 2", b"-2 3"])
def test_ppm_size_not_positive_is_format_error(tmp_path, size):
    path = tmp_path / "f.ppm"
    path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(18))
    with pytest.raises(FormatError):
        load_ppm(path)


def test_dmap_signalling_nan_is_value_error(tmp_path):
    path = tmp_path / "m.dmap"
    save_mask(path, SegMask(np.zeros((1, 2))))
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", 0x7FA00000))
    with pytest.raises(StructuralError):
        load_mask(path)


def test_failing_property_test_does_not_end_the_run(tmp_path):
    """Under the project's warning filters a failing Hypothesis test is reported
    as a failure and the tests after it still run."""
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "def test_after():\n"
        "    pass\n"
    )
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ini),
         "--rootdir", str(tmp_path), str(tmp_path / "test_prop.py")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
