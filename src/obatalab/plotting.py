"""Deterministic SVG line plots for sweep tables.

The renderer is intentionally dumb: fixed 640x480 viewport, fixed margins,
no timestamps, all coordinates printed with one format. Identical tables
produce identical bytes, so plots can be golden-file tested.
"""
import math

from .errors import ConfigError
from .measures import read_csv
from .obata1d import loglog_fit

WIDTH, HEIGHT = 640, 480
ML, MR, MT, MB = 70, 24, 24, 56


def _axis(vals, log):
    if log:
        if min(vals) <= 0:
            raise ConfigError("log axis requires positive values")
        coords = [math.log10(v) for v in vals]
    else:
        coords = list(vals)
    lo, hi = min(coords), max(coords)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return coords, lo, hi


def _fmt(x):
    return f"{x:.6g}"


def render_plot(table, out_path, x, y, loglog=False, annotate=False):
    """Render column y against column x of a CSV table into an SVG file.

    With annotate=True a log-log power-law fit of the same two columns is
    written into the plot; the slope is computed by the same routine the
    sweep drivers use, so the annotation always matches their FitResult.
    """
    cols = read_csv(table)
    for name in (x, y):
        if name not in cols:
            raise ConfigError(f"table has no column {name!r}")
    xs, ys = cols[x].tolist(), cols[y].tolist()

    xc, xlo, xhi = _axis(xs, loglog)
    yc, ylo, yhi = _axis(ys, loglog)
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
        lx = 10.0 ** fx if loglog else fx
        ly = 10.0 ** fy if loglog else fy
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

    if annotate:
        fit = loglog_fit(xs, ys)
        parts.append(
            f'<text x="{ML + 10}" y="{MT + 16}" font-size="12" '
            f'font-family="monospace">slope {fit.slope:.12g} '
            f'(r2 {fit.r_squared:.6g})</text>'
        )

    parts.append("</svg>")
    payload = "\n".join(parts) + "\n"
    with open(out_path, "w", newline="\n") as fh:
        fh.write(payload)
    return out_path
