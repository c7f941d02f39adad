"""Deterministic SVG log-log plots for sweep tables.

The renderer is intentionally dumb: fixed 640x480 viewport, fixed margins,
no timestamps, all coordinates printed with one format. Identical tables
produce identical bytes, so plots can be golden-file tested. A plot is drawn
from the table's columns in memory and annotated with the power-law fit that
the sweep already made of them; nothing is read back from disk or refit.
"""
import math

from .errors import ConfigError
from .measures import replace_file

WIDTH, HEIGHT = 640, 480
ML, MR, MT, MB = 70, 24, 24, 56


def _axis(vals):
    coords = [math.log10(v) for v in vals]
    lo, hi = min(coords), max(coords)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return coords, lo, hi


def _fmt(x):
    return f"{x:.6g}"


def render_plot(table, out_path, x, y, fit):
    """Render column y against column x of table on log-log axes into an SVG file.

    table maps each column name to its values, the rows the caller holds in
    memory; fit is the caller's FitResult of y against x, whose slope and r2
    annotate the plot. A plot is drawn only when every plotted value is finite
    and > 0; otherwise ConfigError names the first column that breaks the rule
    and no file is written.
    """
    cols = {}
    for name in (x, y):
        vals = [float(v) for v in table[name]]
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"column {name!r} has a non-finite value")
        if min(vals) <= 0:
            raise ConfigError(f"column {name!r} has a value <= 0 for its log axis")
        cols[name] = vals

    xc, xlo, xhi = _axis(cols[x])
    yc, ylo, yhi = _axis(cols[y])
    pw = WIDTH - ML - MR
    ph = HEIGHT - MT - MB

    def px(v):
        return ML + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return HEIGHT - MB - (v - ylo) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<path d="M {ML} {MT} L {ML} {HEIGHT - MB} L {WIDTH - MR} '
        f'{HEIGHT - MB}" fill="none" stroke="#000000" stroke-width="1"/>',
    ]

    for k in range(5):
        fx = xlo + (xhi - xlo) * k / 4.0
        fy = ylo + (yhi - ylo) * k / 4.0
        gx = px(fx)
        gy = py(fy)
        lx = 10.0 ** fx
        ly = 10.0 ** fy
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{HEIGHT - MB}" x2="{_fmt(gx)}" '
            f'y2="{HEIGHT - MB + 5}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(gx)}" y="{HEIGHT - MB + 18}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{_fmt(lx)}</text>'
        )
        parts.append(
            f'<line x1="{ML - 5}" y1="{_fmt(gy)}" x2="{ML}" y2="{_fmt(gy)}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ML - 8}" y="{_fmt(gy + 4)}" font-size="11" '
            f'font-family="monospace" text-anchor="end">{_fmt(ly)}</text>'
        )

    parts.append(
        f'<text x="{_fmt(ML + pw / 2)}" y="{HEIGHT - 12}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">{x}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(MT + ph / 2)}" font-size="12" '
        f'font-family="monospace" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(MT + ph / 2)})">{y}</text>'
    )

    pairs = sorted(zip(xc, yc))
    points = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in pairs)
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" '
        f'stroke-width="1.5"/>'
    )
    for a, b in pairs:
        parts.append(
            f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="3" '
            f'fill="#1f4e9c"/>'
        )

    parts.append(
        f'<text x="{ML + 10}" y="{MT + 16}" font-size="12" '
        f'font-family="monospace">slope {fit.slope:.12g} '
        f'(r2 {fit.r_squared:.6g})</text>'
    )

    parts.append("</svg>")
    replace_file(out_path, "\n".join(parts) + "\n")
    return out_path
