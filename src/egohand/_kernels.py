"""Hot per-pixel kernels, vectorized with numpy.

``tests/test_rangeseg.py`` checks each kernel against a plain-loop reference.
"""

from __future__ import annotations

import numpy as np


def _window_means(c: np.ndarray, radius: int, out: np.ndarray) -> None:
    """Write into ``out`` the window means along the last axis of ``c``'s
    cumulative sums.

    The window of j is [max(j - r, 0), min(j + r, n - 1)]; its sum is
    c[min(j + r, n - 1)] minus c[j - r - 1] where j > r, formed from shifted
    slices of c.
    """
    n = c.shape[-1]
    k = max(n - radius, 0)  # windows of j < k end inside the map
    out[:, :k] = c[:, radius:radius + k]
    out[:, k:] = c[:, n - 1:]
    if radius + 1 < n:
        out[:, radius + 1:] -= c[:, :n - radius - 1]
    j = np.arange(n)
    out /= np.minimum(j + radius, n - 1) - np.maximum(j - radius, 0) + 1


def box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Border-renormalized separable box average (cumulative-sum path).

    Rows first, then columns; each pass takes its sequential float64
    cumulative sum along the axis and differences it. Returns a fresh
    C-contiguous float64 map.
    """
    out = np.array(values, dtype=np.float64, order="C")
    work = np.cumsum(out, axis=1)
    _window_means(work, radius, out)
    # the column sums row by row: contiguous adds, the same sequence as cumsum(axis=0)
    work[0] = out[0]
    for i in range(1, len(out)):
        np.add(work[i - 1], out[i], out=work[i])
    _window_means(work.T, radius, out.T)
    return out


def capsule_zfield(height: int, width: int, segs: np.ndarray) -> np.ndarray:
    """Depth buffer of capsules (x0,y0,z0,x1,y1,z1,r); +inf where uncovered."""
    zbuf = np.full((height, width), np.inf, np.float64)
    for x0, y0, z0, x1, y1, z1, r in segs:
        jlo = max(int(np.floor(min(x0, x1) - r)), 0)
        jhi = min(int(np.ceil(max(x0, x1) + r)) + 1, width)
        ilo = max(int(np.floor(min(y0, y1) - r)), 0)
        ihi = min(int(np.ceil(max(y0, y1) + r)) + 1, height)
        if jlo >= jhi or ilo >= ihi:
            continue
        xs = np.arange(jlo, jhi, dtype=np.float64)
        ys = np.arange(ilo, ihi, dtype=np.float64)[:, None]
        dx, dy = x1 - x0, y1 - y0
        den = dx * dx + dy * dy
        if den > 0.0:
            t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / den, 0.0, 1.0)
        else:
            t = np.zeros((ihi - ilo, jhi - jlo), np.float64)
        ex = xs - (x0 + t * dx)
        ey = ys - (y0 + t * dy)
        inside = ex * ex + ey * ey <= r * r
        z = z0 + t * (z1 - z0)
        win = zbuf[ilo:ihi, jlo:jhi]
        np.minimum(win, np.where(inside, z, np.inf), out=win)
    return zbuf

