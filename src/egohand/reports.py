"""Deterministic CSV and SVG emission for experiment reports.

Floats serialize via ``repr`` (shortest exact round trip) so identical
values always produce identical bytes; the SVG writer uses fixed geometry
and formatting with no timestamps or generated ids.
"""

from __future__ import annotations

from .errors import FormatError


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path):
    """(header, rows of float values). Raises FormatError on ragged/bad data."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise FormatError(f"{path}: line {i} has {len(parts)} fields, header has {len(header)}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError as e:
            raise FormatError(f"{path}: line {i}: {e}") from e
    return header, rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 24, 42, 52


def _ticks(lo: float, hi: float, n: int = 5):
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def svg_line_chart(path, x_values, series: dict, x_label: str, y_label: str, title: str) -> None:
    """Fixed-size line chart; byte-identical output for identical input."""
    if not series or any(len(ys) == 0 for ys in series.values()) or len(x_values) == 0:
        raise FormatError("cannot plot an empty series")
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise FormatError(f"series {name!r} length {len(ys)} != x length {len(x_values)}")
    xs = [float(x) for x in x_values]
    all_y = [float(y) for ys in series.values() for y in ys]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(all_y), max(all_y)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + pw * (x - xlo) / (xhi - xlo)

    def py(y):
        return _MT + ph * (1.0 - (y - ylo) / (yhi - ylo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.2f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for tx in _ticks(xlo, xhi):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{_MT + ph:.2f}" x2="{px(tx):.2f}" '
            f'y2="{_MT + ph + 5:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{_MT + ph + 20:.2f}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{tx:.4g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        out.append(
            f'<line x1="{_ML - 5:.2f}" y1="{py(ty):.2f}" x2="{_ML:.2f}" '
            f'y2="{py(ty):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_ML - 9:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{ty:.4g}</text>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{py(ty):.2f}" x2="{_ML + pw}" y2="{py(ty):.2f}" '
            f'stroke="#dddddd"/>'
        )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" stroke="black"/>')
    out.append(
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" stroke="black"/>'
    )
    out.append(
        f'<text x="{_ML + pw / 2:.2f}" y="{_H - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + ph / 2:.2f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_MT + ph / 2:.2f})">{y_label}</text>'
    )
    for si, (name, ys) in enumerate(series.items()):
        color = _PALETTE[si % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(float(y)):.2f}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{_ML + pw - 6}" y="{_MT + 14 + 14 * si}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")

