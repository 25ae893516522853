"""Static SVG charts emitted by direct geometry, no plotting stack."""

from __future__ import annotations

import numpy as np

_W, _H = 960, 360
_MARGIN = 55
_POINTS_PER_FORMAT = 1024


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float,
           out_hi: float) -> np.ndarray:
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (np.asarray(values, float) - lo) / (hi - lo) * (out_hi - out_lo)


def _polyline(xs, ys) -> str:
    # one %-format per block of points, each block's x0, y0, x1, y1, ...
    xy = np.column_stack((xs, ys))
    blocks = []
    for lo in range(0, len(xy), _POINTS_PER_FORMAT):
        block = xy[lo:lo + _POINTS_PER_FORMAT]
        blocks.append(" ".join(["%.2f,%.2f"] * len(block))
                      % tuple(block.ravel().tolist()))
    pts = " ".join(blocks)
    return f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.0" points="{pts}"/>'


def _frame(title: str, parts: list[str], height: int = _H) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{height}" viewBox="0 0 {_W} {height}">'
            f'<rect width="{_W}" height="{height}" fill="white"/>'
            f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>')
    return head + "".join(parts) + "</svg>"


def _panel(values, y_hi: float, capacity_kw: float, top: float, bottom: float,
           grid: bool) -> tuple[list[str], float]:
    """One load panel from 0 kW at ``bottom`` to ``y_hi`` at ``top``: the axis
    labels (with grid lines if ``grid``), the load polyline and the dashed
    capacity line; and the capacity line's height."""
    parts = []
    for frac in (0.0, 0.5, 1.0):
        y = bottom - frac * (bottom - top)
        val = frac * y_hi + 0.0                 # + 0.0: a y_hi of -0.0 labels 0, not -0
        parts.append(f'<text x="{_MARGIN - 6}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{val:.0f}</text>')
        if grid:
            parts.append(f'<line x1="{_MARGIN}" y1="{y:.1f}" x2="{_W - 20}" y2="{y:.1f}" '
                         f'stroke="#ddd" stroke-width="0.5"/>')
    xs = _scale(np.arange(len(values)), 0, max(1, len(values) - 1), _MARGIN, _W - 20)
    parts.append(_polyline(xs, _scale(values, 0.0, y_hi, bottom, top)))
    cap_y = float(_scale(capacity_kw, 0.0, y_hi, bottom, top))
    parts.append(f'<line x1="{_MARGIN}" y1="{cap_y:.1f}" x2="{_W - 20}" '
                 f'y2="{cap_y:.1f}" stroke="#c0392b" stroke-width="1.5" '
                 f'stroke-dasharray="6,4"/>')
    return parts, cap_y


def load_profile_svg(values: np.ndarray, capacity_kw: float, title: str) -> str:
    """Single-panel load series with the transformer capacity line."""
    values = np.asarray(values, float)
    y_hi = max(float(values.max(initial=0.0)), capacity_kw) * 1.05
    parts, cap_y = _panel(values, y_hi, capacity_kw, 35.0, _H - 30.0, grid=True)
    parts.append(f'<text x="{_W - 22}" y="{cap_y - 5:.1f}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11" fill="#c0392b">'
                 f'capacity {capacity_kw:g} kW</text>')
    return _frame(title, parts)


def day_zoom_svg(top_values: np.ndarray, bottom_values: np.ndarray,
                 capacity_kw: float, top_label: str, bottom_label: str,
                 title: str) -> str:
    """Two stacked panels with shared axes for a day-level comparison."""
    y_hi = max(float(np.max(top_values, initial=0.0)),
               float(np.max(bottom_values, initial=0.0)), capacity_kw) * 1.05
    parts: list[str] = []
    for off, values, label in ((0, top_values, top_label),
                               (_H, bottom_values, bottom_label)):
        top = off + 35.0
        parts += _panel(values, y_hi, capacity_kw, top, off + _H - 30.0, grid=False)[0]
        parts.append(f'<text x="{_MARGIN + 5}" y="{top + 2:.1f}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    return _frame(title, parts, height=2 * _H)


def bar_chart_svg(counts: list[int], title: str) -> str:
    """Bar chart of events per anonymized user: bar i, labelled i + 1, is
    ``counts[i]``."""
    n = len(counts)
    top, bottom = 35.0, _H - 45.0
    parts: list[str] = []
    if n == 0:
        parts.append(f'<text x="{_W / 2:.0f}" y="{_H / 2:.0f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">no events</text>')
        return _frame(title, parts)
    y_hi = max(max(counts), 1) * 1.1
    slot = (_W - 20 - _MARGIN) / n
    bar_w = max(1.0, slot * 0.7)
    for i, c in enumerate(counts):
        x = _MARGIN + i * slot + (slot - bar_w) / 2
        h = c / y_hi * (bottom - top)
        parts.append(f'<rect x="{x:.1f}" y="{bottom - h:.1f}" width="{bar_w:.1f}" '
                     f'height="{h:.1f}" fill="#2e8b57"/>')
        if n <= 40:
            parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{bottom + 14:.1f}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="9">{i + 1}</text>')
    parts.append(f'<text x="16" y="{(top + bottom) / 2:.0f}" font-family="sans-serif" '
                 f'font-size="11" transform="rotate(-90 16 {(top + bottom) / 2:.0f})" '
                 f'text-anchor="middle">events</text>')
    return _frame(title, parts)
