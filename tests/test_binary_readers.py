"""Corrupt binary files: each reader raises only its documented errors.

The property tests splice a random byte run into a valid checkpoint,
``.dmap`` or PPM file at a random cut point, replacing a short or long
stretch of it, and check which exception escapes the reader.
"""

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
    save_mask(d / "m.dmap", SegMask((rng.uniform(size=(5, 4)) < 0.5).astype(np.float64)))
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


def _checkpoint(*entries: bytes) -> bytes:
    """A checkpoint holding the packed parameter ``entries``, no optimizer state."""
    return (b"SHRP" + struct.pack("<HI", 1, len(entries)) + b"".join(entries)
            + struct.pack("<I", 0) + struct.pack("<Q", 0))


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
