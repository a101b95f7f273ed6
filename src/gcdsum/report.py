"""CSV and SVG emitters for error-scan records.

Both outputs are byte-deterministic for identical inputs: numbers are
rendered with locale-free formats, and the SVG is assembled by hand so no
plotting library can inject noise.  The trailing wall-clock column of
the CSV is its one nondeterministic field.
"""

import math
from pathlib import Path

CSV_COLUMNS = ("N", "S", "A", "E", "E_over_sqrtN", "alg", "seconds")


def _sig15(x) -> str:
    """15 significant digits, '.' decimal separator, no locale involvement."""
    return f"{float(x):.15g}"


def write_csv(records, path) -> None:
    """Write one row per record under the header N,S,A,E,E_over_sqrtN,alg,seconds.

    A, E and E/sqrt(N) carry 15 significant digits.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        fields = [
            str(r.n),
            str(r.s_exact),
            _sig15(r.a_main),
            _sig15(r.error),
            _sig15(r.normalized),
            r.algorithm.value,
            f"{r.elapsed:.6f}",
        ]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 30, 40, 55


def write_svg(records, path) -> None:
    """Scatter of E(N)/sqrt(N) against log10(N) as a standalone SVG."""
    records = list(records)
    if not records:
        raise ValueError("no records to plot")
    if len({r.n for r in records}) < 2:
        raise ValueError("scatter needs at least 2 distinct N values")

    xs = [math.log10(r.n) for r in records]
    ys = [float(r.normalized) for r in records]

    x_lo, x_hi = min(xs), max(xs)
    x_pad = 0.04 * (x_hi - x_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = min(0.0, min(ys)), max(0.0, max(ys))
    y_pad = 0.08 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(x: float) -> float:
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="15">normalized error E(N) / sqrt(N)</text>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]

    # x ticks at integer decades when the span offers them, endpoints otherwise
    decades = [d for d in range(math.ceil(x_lo), math.floor(x_hi) + 1)]
    x_ticks = decades if len(decades) >= 2 else [min(xs), max(xs)]
    for t in x_ticks:
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_TOP + plot_h}" x2="{x:.2f}" '
                     f'y2="{_TOP + plot_h + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_TOP + plot_h + 22}" text-anchor="middle" '
                     f'font-family="monospace" font-size="12">{t:.4g}</text>')
    parts.append(f'<text x="{_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="monospace" font-size="13">log10(N)</text>')

    for i in range(5):
        t = y_lo + (y_hi - y_lo) * i / 4
        y = py(t)
        parts.append(f'<line x1="{_LEFT - 6}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_LEFT - 10}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="12">{t:.4g}</text>')

    if y_lo < 0.0 < y_hi:
        zero = py(0.0)
        parts.append(f'<line x1="{_LEFT}" y1="{zero:.2f}" x2="{_LEFT + plot_w}" '
                     f'y2="{zero:.2f}" stroke="gray" stroke-dasharray="4 3"/>')

    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" '
                     f'fill="steelblue" stroke="black" stroke-width="0.5"/>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")
