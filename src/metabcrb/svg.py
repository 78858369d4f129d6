"""Tiny dependency-free SVG line charts for the CLI's --svg flag."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _transform(values, lo, hi, log):
    if log:
        values = [math.log10(v) for v in values]
        lo, hi = math.log10(lo), math.log10(hi)
    span = hi - lo or 1.0
    return [(v - lo) / span for v in values], lo, hi


def _ticks(lo, hi, log, n=5):
    if log:
        lo_e, hi_e = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // n)
        return [10.0**e for e in range(lo_e, hi_e + 1, step)]
    step = (hi - lo) / n or 1.0
    return [lo + i * step for i in range(n + 1)]


def write_line_chart(path, series, title="", xlabel="", ylabel="",
                     xlog=False, ylog=False):
    """series: list of (label, xs, ys). Writes a standalone SVG file."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    if xlog and min(xs_all) <= 0 or ylog and min(ys_all) <= 0:
        raise ValueError("log axes need positive data")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    # a lone value gets a decade each way on a log axis, where -1 would leave the domain
    if x_lo == x_hi:
        x_lo, x_hi = (x_lo / 10.0, x_hi * 10.0) if xlog else (x_lo - 1.0, x_hi + 1.0)
    if y_lo == y_hi:
        y_lo, y_hi = (y_lo / 10.0, y_hi * 10.0) if ylog else (y_lo - 1.0, y_hi + 1.0)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(frac):
        return MARGIN_L + frac * plot_w

    def py(frac):
        return HEIGHT - MARGIN_B - frac * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               'fill="none" stroke="#444"/>')

    for tick in _ticks(x_lo, x_hi, xlog):
        frac, _, _ = _transform([tick], x_lo, x_hi, xlog)
        x = px(frac[0])
        out.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.1f}" '
                   f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#444"/>')
        out.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">'
                   f'{tick:.4g}</text>')
    for tick in _ticks(y_lo, y_hi, ylog):
        frac, _, _ = _transform([tick], y_lo, y_hi, ylog)
        y = py(frac[0])
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="#444"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:.4g}</text>')

    out.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xf, _, _ = _transform(list(xs), x_lo, x_hi, xlog)
        yf, _, _ = _transform(list(ys), y_lo, y_hi, ylog)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xf, yf))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 14 * i
        out.append(f'<line x1="{WIDTH - MARGIN_R - 120}" y1="{ly - 4}" '
                   f'x2="{WIDTH - MARGIN_R - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{WIDTH - MARGIN_R - 95}" y="{ly}">{label}</text>')

    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
