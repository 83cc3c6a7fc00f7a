import math
import re

import numpy as np
import pytest

from egohand import _kernels
from egohand.errors import FlatMapError, FormatError, RangeError, StructuralError
from egohand.rangeseg import (
    CLOSER_IS_LARGER,
    CLOSER_IS_SMALLER,
    DepthMap,
    SegMask,
    apply_mask,
    desharpen_mask,
    load_depth,
    load_mask,
    load_ppm,
    mask_stats,
    normalize_depth,
    range_mask,
    range_mask_metric,
    save_depth,
    save_mask,
    save_ppm,
)
from egohand.synth import SynthParams, gen_frame, gen_scene_depth, gen_scene_depth_metric


def _dm(values, order=CLOSER_IS_LARGER, normalized=False):
    return DepthMap(np.asarray(values, dtype=float), order=order, normalized=normalized)


class TestNormalizeDepth:
    def test_constant_map_becomes_ones(self):
        out = normalize_depth(_dm(np.full((4, 5), 7.0)))
        assert np.all(out.values == 1.0)
        assert out.normalized

    def test_forced_arithmetic(self):
        out = normalize_depth(_dm([[0.0, 2.0, 4.0]]))
        assert np.allclose(out.values, [[0.0, 0.5, 1.0]])

    def test_against_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(0, 100, (6, 7))
            v.flat[rng.integers(v.size)] = 100.0  # ensure a strict max
            out = normalize_depth(_dm(v))
            mx = 0.0
            for x in v.flat:
                mx = max(mx, x)
            expect = np.array([[x / mx for x in row] for row in v])
            assert np.max(np.abs(out.values - expect)) < 1e-12
            assert out.values.max() == 1.0
            assert abs(out.values.min() - v.min() / mx) < 1e-12

    def test_order_preserved_and_monotone(self):
        v = np.random.default_rng(1).uniform(0, 9, (5, 5))
        out = normalize_depth(_dm(v, order=CLOSER_IS_SMALLER))
        assert out.order == CLOSER_IS_SMALLER
        assert np.array_equal(np.argsort(v, axis=None), np.argsort(out.values, axis=None))

    def test_flat_map_rejected(self):
        with pytest.raises(FlatMapError):
            normalize_depth(_dm(np.zeros((3, 3))))

    def test_already_normalized_rejected(self):
        with pytest.raises(ValueError):
            normalize_depth(_dm([[0.5, 1.0]], normalized=True))


class TestRangeMask:
    def test_threshold_boundary_inclusive(self):
        # value exactly at t = 0.47 is kept (normalized maps must peak at 1)
        norm = DepthMap(np.array([[0.3, 0.47, 1.0]]), order=CLOSER_IS_LARGER, normalized=True)
        out = range_mask(norm, 0.47)
        assert np.array_equal(out.values, [[0.0, 1.0, 1.0]])
        assert out.binary

    def test_extremes(self):
        norm = normalize_depth(_dm([[0.2, 0.5, 0.8]]))
        assert np.all(range_mask(norm, 0.999999).values == [[0.0, 0.0, 1.0]])
        assert np.all(range_mask(norm, 1e-9).values == 1.0)

    def test_closer_is_smaller_keeps_low(self):
        norm = normalize_depth(_dm([[0.2, 0.5, 1.0]], order=CLOSER_IS_SMALLER))
        assert np.array_equal(range_mask(norm, 0.5).values, [[1.0, 1.0, 0.0]])

    def test_monotone_nesting_pixel_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            norm = normalize_depth(_dm(rng.uniform(0.01, 5, (6, 6))))
            t1, t2 = sorted(rng.uniform(0.05, 0.95, 2))
            m1 = range_mask(norm, t1).values
            m2 = range_mask(norm, t2).values
            for i in range(6):
                for j in range(6):
                    if m2[i, j] == 1.0:
                        assert m1[i, j] == 1.0

    def test_requires_normalized_and_valid_t(self):
        with pytest.raises(ValueError):
            range_mask(_dm([[1.0, 2.0]]), 0.5)
        norm = normalize_depth(_dm([[1.0, 2.0]]))
        for t in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(RangeError):
                range_mask(norm, t)


class TestRangeMaskMetric:
    def test_700mm_example(self):
        raw = _dm([[400.0, 700.0, 900.0]], order=CLOSER_IS_SMALLER)
        assert np.array_equal(range_mask_metric(raw, 700.0).values, [[1.0, 1.0, 0.0]])

    def test_zero_mm_removed(self):
        raw = _dm([[0.0, 500.0]], order=CLOSER_IS_SMALLER)
        assert np.array_equal(range_mask_metric(raw, 700.0).values, [[0.0, 1.0]])

    def test_agrees_with_normalized_path_on_zero_free_maps(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(100, 2000, (8, 8))
            raw = _dm(v, order=CLOSER_IS_SMALLER)
            t_mm = float(rng.uniform(200, 1800))
            metric = range_mask_metric(raw, t_mm)
            norm = normalize_depth(_dm(v, order=CLOSER_IS_SMALLER))
            via_norm = range_mask(norm, t_mm / v.max())
            assert np.array_equal(metric.values, via_norm.values)

    def test_rejects_bad_inputs(self):
        with pytest.raises(RangeError):
            range_mask_metric(_dm([[1.0]], order=CLOSER_IS_SMALLER), 0.0)
        with pytest.raises(ValueError):
            range_mask_metric(_dm([[1.0]], order=CLOSER_IS_LARGER), 500.0)


class TestApplyMask:
    def _frame(self, rng, h=6, w=7):
        return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)

    def test_all_ones_is_identity(self):
        f = self._frame(np.random.default_rng(0))
        out = apply_mask(f, SegMask(np.ones(f.shape[:2], bool)))
        assert np.array_equal(out, f)

    def test_all_zeros_black_fill(self):
        f = self._frame(np.random.default_rng(1))
        out = apply_mask(f, SegMask(np.zeros(f.shape[:2], bool)))
        assert np.all(out == 0)

    def test_binary_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = self._frame(rng)
            m = SegMask(rng.uniform(size=f.shape[:2]) > 0.5)
            once = apply_mask(f, m)
            assert np.array_equal(apply_mask(once, m), once)

    def test_commutes_with_mask_intersection(self):
        rng = np.random.default_rng(3)
        f = self._frame(rng)
        m1 = rng.uniform(size=f.shape[:2]) > 0.4
        m2 = rng.uniform(size=f.shape[:2]) > 0.4
        lhs = apply_mask(apply_mask(f, SegMask(m1)), SegMask(m2))
        rhs = apply_mask(f, SegMask(m1 & m2))
        assert np.array_equal(lhs, rhs)

    def test_soft_blend_toward_fill(self):
        f = np.full((2, 2, 3), 200, dtype=np.uint8)
        m = SegMask(np.full((2, 2), 0.25))
        out = apply_mask(f, m, fill=(0, 0, 0))
        assert np.all(out == 50)

    @pytest.mark.parametrize("fill", [(300, 0, 0), (20.7, 0, 0), (-1, 0, 0), (0, 0, 256), (1, 2), (1, 2, 3, 4),
                                      "abc", 7, (np.float64(1.0), 0, 0)])
    @pytest.mark.parametrize("kind", ["binary", "soft"])
    def test_fill_outside_three_bytes_rejected(self, fill, kind):
        """Both mask kinds refuse a fill that is not three integers in 0..255."""
        f = np.zeros((3, 4, 3), np.uint8)
        m = SegMask(np.ones((3, 4), bool) if kind == "binary" else np.ones((3, 4)))
        with pytest.raises(StructuralError, match="fill must be three integers in 0..255"):
            apply_mask(f, m, fill)

    def test_dimension_mismatch(self):
        f = self._frame(np.random.default_rng(4))
        with pytest.raises(StructuralError):
            apply_mask(f, SegMask(np.ones((3, 3), bool)))


def _naive_box_average(values, radius):
    h, w = values.shape
    out = np.empty(values.shape)
    for i in range(h):
        for j in range(w):
            ilo, ihi = max(0, i - radius), min(h, i + radius + 1)
            jlo, jhi = max(0, j - radius), min(w, j + radius + 1)
            s, n = 0.0, 0
            for a in range(ilo, ihi):
                for b in range(jlo, jhi):
                    s += values[a, b]
                    n += 1
            out[i, j] = s / n
    return out


class TestDesharpen:
    def test_constant_mask_unchanged(self):
        m = SegMask(np.ones((8, 8), bool))
        out = desharpen_mask(m, 2)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12
        assert not out.binary

    def test_single_pixel_center_one_ninth(self):
        v = np.zeros((7, 7), bool)
        v[3, 3] = True
        out = desharpen_mask(SegMask(v), 1)
        assert abs(out.values[3, 3] - 1.0 / 9.0) < 1e-12

    def test_against_naive_convolution_oracle(self):
        rng = np.random.default_rng(5)
        for radius in (1, 2, 3):
            v = rng.uniform(size=(11, 9)) > 0.5
            out = desharpen_mask(SegMask(v), radius)
            assert np.max(np.abs(out.values - _naive_box_average(v, radius))) < 1e-9

    def test_output_within_unit_interval(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(size=(10, 10)) > 0.3
        out = desharpen_mask(SegMask(v), 3)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_radius_bounds(self):
        m = SegMask(np.ones((5, 5), bool))
        with pytest.raises(RangeError):
            desharpen_mask(m, 0)
        with pytest.raises(RangeError):
            desharpen_mask(m, 5)


class TestDesharpenFresh:
    def test_result_shares_no_memory_with_the_input(self):
        rng = np.random.default_rng(33)
        for v in (rng.uniform(size=(6, 8)) < 0.5, rng.uniform(size=(6, 8)), np.ones((6, 8), bool)):
            mask = SegMask(v)
            before = mask.values.copy()
            out = desharpen_mask(mask, 2).values
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert not np.shares_memory(out, mask.values)
            assert np.array_equal(mask.values, before)


class TestMaskStats:
    def test_all_ones(self):
        frac, pixels = mask_stats(SegMask(np.ones((4, 8), bool)))
        assert frac == 1.0 and pixels == 32.0

    def test_half_ones(self):
        v = np.zeros((4, 8), bool)
        v[:2] = True
        frac, pixels = mask_stats(SegMask(v))
        assert frac == 0.5 and pixels == 16.0

    def test_against_pixel_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(size=(5, 6))
            frac, pixels = mask_stats(SegMask(v))
            s = 0.0
            for x in v.flat:
                s += x
            assert abs(pixels - s) < 1e-12
            assert abs(frac - s / v.size) < 1e-12


class TestDmapFormat:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        dm = _dm(rng.uniform(0, 5, (9, 13)).astype(np.float32).astype(np.float64))
        p1, p2 = tmp_path / "a.dmap", tmp_path / "b.dmap"
        save_depth(p1, dm)
        loaded = load_depth(p1)
        assert loaded.order == dm.order and loaded.normalized == dm.normalized
        save_depth(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mask_round_trip(self, tmp_path):
        m = SegMask(np.random.default_rng(9).uniform(size=(6, 4)) > 0.5)
        p = tmp_path / "m.dmap"
        save_mask(p, m)
        loaded = load_mask(p)
        assert loaded.binary and np.array_equal(loaded.values, m.values)

    def test_header_is_16_bytes(self, tmp_path):
        p = tmp_path / "h.dmap"
        save_depth(p, _dm(np.ones((2, 3))))
        raw = p.read_bytes()
        assert len(raw) == 16 + 2 * 3 * 4
        assert raw[:4] == b"DMAP"

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.dmap"
        p.write_bytes(b"XMAP" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_depth(p)
        good = tmp_path / "good.dmap"
        save_depth(good, _dm(np.ones((4, 4))))
        truncated = good.read_bytes()[:-5]
        p.write_bytes(truncated)
        with pytest.raises(FormatError):
            load_depth(p)

    def test_mask_vs_depth_kind_enforced(self, tmp_path):
        p = tmp_path / "x.dmap"
        save_mask(p, SegMask(np.ones((2, 2), bool)))
        with pytest.raises(FormatError):
            load_depth(p)
        save_depth(p, _dm(np.ones((2, 2))))
        with pytest.raises(FormatError):
            load_mask(p)


# a file of each format whose payload is 24 bytes
_WRITERS = {
    load_depth: lambda path: save_depth(path, _dm(np.ones((3, 2)))),
    load_mask: lambda path: save_mask(path, SegMask(np.ones((3, 2), bool))),
    load_ppm: lambda path: save_ppm(path, np.ones((2, 4, 3), np.uint8)),
}


@pytest.mark.parametrize("load", list(_WRITERS), ids=lambda load: load.__name__)
@pytest.mark.parametrize("edit, got", [(lambda raw: raw[:-5], 19), (lambda raw: raw + b"\0", 25)],
                         ids=["truncated", "trailing"])
def test_payload_must_end_the_file(tmp_path, load, edit, got):
    path = tmp_path / "f.bin"
    _WRITERS[load](path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError) as ei:
        load(path)
    assert str(ei.value) == (f"{path}: payload of {got} bytes where the header gives 24: "
                             "the file is truncated or has trailing bytes")


def test_reader_errors_name_the_file(tmp_path):
    path = tmp_path / "f.dmap"
    save_depth(path, _dm(np.ones((1, 2))))
    path.write_bytes(path.read_bytes()[:-4] + np.float32(-1.0).tobytes())
    with pytest.raises(StructuralError, match=f"^{re.escape(str(path))}: depth values must be finite and >= 0$"):
        load_depth(path)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: file holds a depth map, not a mask$"):
        load_mask(path)
    path.write_bytes(b"P5\n1 1\n255\n\0")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: bad PPM header"):
        load_ppm(path)


class TestPpm:
    def test_round_trip(self, tmp_path):
        f = np.random.default_rng(10).integers(0, 256, (5, 7, 3), dtype=np.uint8)
        p = tmp_path / "f.ppm"
        save_ppm(p, f)
        assert np.array_equal(load_ppm(p), f)

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError):
            load_ppm(p)
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(FormatError):
            load_ppm(p)


def _box_blur_loops(values, radius):
    """Reference box blur: per-pixel window sums, clipped at the borders."""
    h, w = values.shape
    tmp = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            lo, hi = max(j - radius, 0), min(j + radius + 1, w)
            tmp[i, j] = sum(values[i, k] for k in range(lo, hi)) / (hi - lo)
    out = np.empty((h, w))
    for j in range(w):
        for i in range(h):
            lo, hi = max(i - radius, 0), min(i + radius + 1, h)
            out[i, j] = sum(tmp[k, j] for k in range(lo, hi)) / (hi - lo)
    return out


def _box_blur_gathers(values, radius):
    """Box blur through column gathers of the cumulative sum; the byte-identity reference."""
    out = values.astype(np.float64, copy=True)
    for axis in (1, 0):
        v = out if axis == 1 else out.T
        n = v.shape[1]
        c = np.cumsum(v, axis=1)
        hi = np.minimum(np.arange(n) + radius, n - 1)
        lo = np.arange(n) - radius - 1
        sums = c[:, hi] - np.where(lo >= 0, c[:, np.maximum(lo, 0)], 0.0)
        counts = hi - np.maximum(lo + 1, 0) + 1
        v = sums / counts
        out = v if axis == 1 else v.T
    return out


def _capsule_zfield_loops(height, width, segs):
    """Reference capsule rasterizer: nearest-point test pixel by pixel."""
    zbuf = np.full((height, width), np.inf)
    for x0, y0, z0, x1, y1, z1, r in segs:
        jlo, jhi = max(math.floor(min(x0, x1) - r), 0), min(math.ceil(max(x0, x1) + r) + 1, width)
        ilo, ihi = max(math.floor(min(y0, y1) - r), 0), min(math.ceil(max(y0, y1) + r) + 1, height)
        dx, dy = x1 - x0, y1 - y0
        den = dx * dx + dy * dy
        for i in range(ilo, ihi):
            for j in range(jlo, jhi):
                t = min(max(((j - x0) * dx + (i - y0) * dy) / den, 0.0), 1.0) if den > 0.0 else 0.0
                ex, ey = j - (x0 + t * dx), i - (y0 + t * dy)
                if ex * ex + ey * ey <= r * r:
                    zbuf[i, j] = min(zbuf[i, j], z0 + t * (z1 - z0))
    return zbuf


class TestKernelBackends:
    """The numpy kernels against the plain-loop references above."""

    def test_box_blur_paths_agree(self):
        rng = np.random.default_rng(12)
        # (9, 6) radius 7 spans the whole map, so every window is clipped;
        # the small maps take every radius below min(shape), down to n <= 2r + 1
        cases = [((20, 17), 2), ((9, 6), 7)]
        cases += [(shape, r) for shape in ((6, 9), (2, 3)) for r in range(min(shape))]
        for shape, radius in cases:
            v = rng.uniform(size=shape)
            fast = _kernels.box_blur(v, radius)
            slow = _box_blur_loops(v, radius)
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_box_blur_bytes_match_gather_formula(self):
        """The slice-based kernel gives the column-gather formula's bytes."""
        rng = np.random.default_rng(14)
        for shape in ((6, 9), (2, 3), (9, 6), (20, 17), (1, 1), (1, 4), (5, 1)):
            for radius in range(max(shape) + 2):
                for v in (rng.uniform(size=shape), rng.uniform(size=shape) < 0.5,
                          rng.normal(0.0, 1e3, size=shape)):
                    assert _kernels.box_blur(v, radius).tobytes() == _box_blur_gathers(v, radius).tobytes()

    def test_capsule_paths_agree(self):
        segs = np.array(
            [
                [3.0, 4.0, 500.0, 15.0, 9.0, 540.0, 4.0],
                [10.0, 2.0, 450.0, 10.0, 18.0, 430.0, 3.0],
            ]
        )
        fast = _kernels.capsule_zfield(24, 20, segs)
        slow = _capsule_zfield_loops(24, 20, segs)
        assert np.array_equal(np.isfinite(fast), np.isfinite(slow))
        both = np.isfinite(fast)
        assert np.max(np.abs(fast[both] - slow[both])) < 1e-9


def _apply_mask_where(frame, mask, fill):
    """``apply_mask``'s binary formula as a broadcast ``np.where``."""
    return np.where(mask[:, :, None], frame, np.asarray(fill, np.float64).reshape(1, 1, 3).astype(np.uint8))


def _apply_mask_blend(frame, weights, fill):
    """``apply_mask``'s soft formula on whole (H, W, 3) float64 temporaries."""
    m = weights[:, :, None]
    blended = frame.astype(np.float64) * m + np.asarray(fill, np.float64).reshape(1, 1, 3) * (1.0 - m)
    return np.clip(np.rint(blended), 0, 255).astype(np.uint8)


def _coherent_mask(shape, rng):
    """A filled ellipse with a rectangle cut out: large same-valued runs, like scene masks."""
    h, w = shape
    y, x = np.mgrid[0:h, 0:w]
    cy, cx = rng.uniform(0, h), rng.uniform(0, w)
    keep = ((y - cy) / max(h / 3, 1)) ** 2 + ((x - cx) / max(w / 3, 1)) ** 2 <= 1.0
    keep[h // 3 : h // 2 + 1, w // 4 : w // 2 + 1] = False
    return keep


class TestMaskPathBytes:
    """``apply_mask`` and ``desharpen_mask`` give the bytes of the plain
    formulas, write to no input, and return owned C-contiguous maps."""

    SHAPES = ((24, 37), (37, 24), (1, 9), (9, 1), (1, 1), (5, 7))
    FILLS = ((0, 0, 0), (255, 255, 255), (20, 200, 90))

    def _masks(self, shape, rng):
        return {"coherent": _coherent_mask(shape, rng), "random": rng.uniform(size=shape) < 0.5}

    @staticmethod
    def _check_owned(out, shape, dtype):
        assert out.shape == shape and out.dtype == dtype
        assert out.flags.owndata and out.flags.c_contiguous

    def test_binary_matches_where(self):
        rng = np.random.default_rng(21)
        for shape in self.SHAPES:
            frame = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
            for name, keep in self._masks(shape, rng).items():
                mask = SegMask(keep)
                before = frame.copy(), mask.values.copy()
                for fill in self.FILLS:
                    out = apply_mask(frame, mask, fill)
                    assert out.tobytes() == _apply_mask_where(frame, keep, fill).tobytes(), (shape, name, fill)
                    self._check_owned(out, frame.shape, np.uint8)
                assert np.array_equal(frame, before[0]) and np.array_equal(mask.values, before[1])

    def test_binary_strided_frame(self):
        rng = np.random.default_rng(22)
        big = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)
        frame = big[::2, ::3]  # a view: not contiguous
        keep = _coherent_mask(frame.shape[:2], rng)
        out = apply_mask(frame, SegMask(keep), (20, 200, 90))
        assert out.tobytes() == _apply_mask_where(frame, keep, (20, 200, 90)).tobytes()
        self._check_owned(out, frame.shape, np.uint8)

    def test_soft_matches_blend(self):
        rng = np.random.default_rng(23)
        for shape in self.SHAPES:
            frame = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
            weights = {"uniform": rng.uniform(size=shape),
                       # exact halves put frame/fill midpoints on rint's ties
                       "halves": rng.integers(0, 3, shape) / 2.0}
            for radius in (1, 2, 3):
                if radius < min(shape):
                    for name, keep in self._masks(shape, rng).items():
                        weights[f"{name} r{radius}"] = desharpen_mask(SegMask(keep), radius).values
            for name, w in weights.items():
                mask = SegMask(w)
                before = frame.copy(), mask.values.copy()
                for fill in self.FILLS:
                    out = apply_mask(frame, mask, fill)
                    assert out.tobytes() == _apply_mask_blend(frame, w, fill).tobytes(), (shape, name, fill)
                    self._check_owned(out, frame.shape, np.uint8)
                assert np.array_equal(frame, before[0]) and np.array_equal(mask.values, before[1])

    def test_desharpen_matches_clipped_gather_formula(self):
        rng = np.random.default_rng(24)
        for shape in ((24, 37), (37, 24), (5, 7), (4, 4)):
            for radius in (1, 2, 3):
                if radius >= min(shape):
                    continue
                for name, keep in self._masks(shape, rng).items():
                    mask = SegMask(keep)
                    before = mask.values.copy()
                    out = desharpen_mask(mask, radius).values
                    want = np.clip(_box_blur_gathers(keep, radius), 0.0, 1.0)
                    assert out.tobytes() == want.tobytes(), (shape, radius, name)
                    self._check_owned(out, shape, np.float64)
                    assert np.array_equal(mask.values, before)

    def test_box_blur_leaves_float_input_alone(self):
        v = np.random.default_rng(25).uniform(size=(6, 8))
        before = v.copy()
        out = _kernels.box_blur(v, 2)
        assert np.array_equal(v, before) and not np.shares_memory(out, v)
        self._check_owned(out, v.shape, np.float64)


def test_composition_determinism():
    # identical (frame, depth, t) triples produce bit-identical outputs
    rng = np.random.default_rng(13)
    frame = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    depth = _dm(rng.uniform(0, 3, (32, 32)))

    def run():
        mask = range_mask(normalize_depth(depth), 0.47)
        return apply_mask(frame, mask).tobytes(), mask.values.tobytes()

    assert run() == run()


class TestMaskRepresentation:
    """Binary masks hold bool maps, soft masks float64."""

    def test_every_construction_path_is_bool(self, tmp_path):
        norm = normalize_depth(_dm(np.random.default_rng(15).uniform(0, 3, (7, 5))))
        p = SynthParams(image_size=64)
        left, right, _ = gen_frame(0, np.random.default_rng(16), p)
        metric, metric_gt = gen_scene_depth_metric(left, right, p)
        masks = [
            range_mask(norm, 0.4),
            range_mask_metric(metric, 700.0),
            gen_scene_depth(left, right, p)[1],
            metric_gt,
        ]
        save_mask(tmp_path / "m.dmap", masks[0])
        masks.append(load_mask(tmp_path / "m.dmap"))
        for m in masks:
            assert m.binary and m.values.dtype == bool and m.values.flags.c_contiguous
        assert desharpen_mask(masks[0], 1).values.dtype == np.float64
        assert not SegMask(np.array([[1.0, 0.0]])).binary  # a float map is soft, whatever its values
        with pytest.raises(AttributeError):
            masks[0].binary = False

    @pytest.mark.parametrize("value, message", [
        (2.0, "mask values must lie in [0, 1]"),
        (-1.0, "mask values must lie in [0, 1]"),
        (np.nan, "mask values must lie in [0, 1]"),
    ])
    def test_bad_binary_values_rejected(self, value, message):
        with pytest.raises(StructuralError, match=re.escape(message)):
            SegMask(np.array([[1.0, 0.0], [0.0, value]]))

    def test_binary_flagged_payload_outside_0_1_is_format_error(self, tmp_path):
        p = tmp_path / "h.dmap"
        save_mask(p, SegMask(np.array([[1.0, 0.5]])))
        raw = bytearray(p.read_bytes())
        raw[7] = 1  # the header's binary flag
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape("binary mask contains non-{0,1} values")):
            load_mask(p)

    def test_bool_map_shape_checked(self):
        for bad in (np.zeros((0, 3), bool), np.ones(4, bool)):
            with pytest.raises(StructuralError, match="non-empty 2D map"):
                SegMask(bad)

    def test_saved_bytes_pinned(self, tmp_path):
        # a 3x2 binary mask as float32 1.0/0.0 after the 16-byte header, the
        # same bytes a float64 mask of these values wrote before masks were bool
        pinned = bytes.fromhex(
            "444d41500100ff0103000000020000000000803f000000000000803f"
            "00000000000000000000803f"
        )
        keep = np.array([[True, False, True], [False, False, True]])
        save_mask(tmp_path / "b.dmap", SegMask(keep))
        assert (tmp_path / "b.dmap").read_bytes() == pinned
