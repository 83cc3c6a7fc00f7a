"""Hot per-pixel kernels, vectorized with numpy.

``tests/test_rangeseg.py`` checks each against a plain-loop reference.
"""

from __future__ import annotations

import numpy as np


def box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Border-renormalized separable box average (cumulative-sum path).

    Along each axis the window of j is [max(j - r, 0), min(j + r, n - 1)]; its
    sum is c[min(j + r, n - 1)] minus c[j - r - 1] where j > r, with c the
    cumulative sum, formed from shifted slices of c.
    """
    out = values
    for axis in (1, 0):
        v = out if axis == 1 else out.T
        n = v.shape[1]
        c = np.cumsum(v, axis=1, dtype=np.float64)
        k = max(n - radius, 0)  # windows of j < k end inside the map
        sums = np.empty_like(c)
        sums[:, :k] = c[:, radius:radius + k]
        sums[:, k:] = c[:, n - 1:]
        if radius + 1 < n:
            sums[:, radius + 1:] -= c[:, :n - radius - 1]
        j = np.arange(n)
        sums /= np.minimum(j + radius, n - 1) - np.maximum(j - radius, 0) + 1
        out = sums if axis == 1 else sums.T
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

