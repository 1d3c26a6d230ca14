"""Minimal standalone SVG 1.1 line plots, no plotting dependency.

Just enough for sweep output: several named curves over a shared x-axis,
linear or log-10 x, nice-number ticks, and a legend. Points with NaN break
the polyline so unavailable cells leave visible gaps.
"""

from __future__ import annotations

import html
import math

import numpy as np

from .errors import ValidationError

__all__ = ["render_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 18, 34, 52


def _escape(text: str) -> str:
    """&, < and > as entities: all a text node needs."""
    return html.escape(text, quote=False)


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_plot(
    series,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
) -> str:
    """SVG document for [(label, x, y), ...]; NaN y-values break the line."""
    if not series:
        raise ValidationError("nothing to plot")
    xs, ys = [], []
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValidationError(f"series {label!r} needs matching 1-D x and y")
        cleaned.append((str(label), x, y))
        keep = np.isfinite(y)
        if log_x:
            if np.any(x <= 0):
                raise ValidationError("log x-axis needs positive x values")
            xs.append(np.log10(x))
        else:
            xs.append(x)
        ys.append(y[keep])
    x_lo = min(float(np.min(x)) for x in xs)
    x_hi = max(float(np.max(x)) for x in xs)
    finite = np.concatenate([y for y in ys if y.size]) if any(y.size for y in ys) else np.array([0.0])
    y_lo, y_hi = float(np.min(finite)), float(np.max(finite))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    if log_x:
        ticks = range(math.ceil(x_lo - 1e-9), math.floor(x_hi + 1e-9) + 1)
        x_ticks = [(float(t), _fmt(10.0**t)) for t in ticks]
    else:
        x_ticks = [(t, _fmt(t)) for t in _nice_ticks(x_lo, x_hi)]
    for v, label in x_ticks:
        x = px(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" '
            f'y2="{_MT + ph + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )
    for v in _nice_ticks(y_lo, y_hi):
        y = py(v)
        out.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_escape(_fmt(v))}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_ML + pw / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{_escape(y_label)}</text>'
        )

    for i, (label, x, y) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        xv = np.log10(x) if log_x else x
        runs, cur = [], []
        for xi, yi in zip(xv, y):
            if np.isfinite(yi):
                cur.append(f"{px(float(xi)):.2f},{py(float(yi)):.2f}")
            elif cur:
                runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
        for run in runs:
            if len(run) == 1:
                cx, cy = run[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(run)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
        ly = _MT + 14 + 16 * i
        out.append(
            f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 122}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>'
        )
        out.append(
            f'<text x="{_ML + pw - 116}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
