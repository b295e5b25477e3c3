"""CSV and SVG emitters for a scenario's column table.

The table is the sample times plus an ordered dict of 1-d real columns,
one value per time. CSV: header 't,<observables>', 17 significant
digits, LF endings, '.' decimal point regardless of locale. SVG:
self-contained static line plot assembled from text primitives so that
two runs of the same scenario produce byte-identical files.

Both emitters format whole columns rather than one numpy scalar per
value: the CSV is written a block of at most _ROW_BLOCK rows at a time
from plain Python floats, and the SVG maps each series to pixels as one
array operation. The bytes are those a per-value loop writes, because a
float64 formats exactly as the Python float it converts to and array
arithmetic rounds each element as scalar arithmetic does. A plot refuses
a series with a non-finite value; the CSV writes it as nan or inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ValidityError

_ROW_BLOCK = 1024  # CSV rows emit_csv holds as Python floats and text at once


def _series_columns(times: np.ndarray, columns: dict, observables=None) -> dict:
    """The requested columns, or all in table order, each checked to be a
    real series with one value per sample time."""
    names = list(columns) if observables is None else list(observables)
    if not names:
        raise ValidityError("trajectory has no scalar observable series")
    out = {}
    for name in names:
        if name not in columns:
            raise DomainError(f"unknown observable {name!r}; available: {sorted(columns)}")
        a = np.asarray(columns[name])
        if a.shape != times.shape or a.dtype.kind not in "fiu":
            raise DimensionError(f"column {name!r} is {a.dtype} of shape {a.shape}; "
                                 f"expected real numbers of shape {times.shape}")
        out[name] = a.astype(float, copy=False)
    return out


def emit_csv(times, columns: dict, path, observables=None) -> None:
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValidityError("refusing to write an empty trajectory")
    cols = _series_columns(times, columns, observables)
    row = ",".join(["%.17g"] * (len(cols) + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for lo in range(0, len(times), _ROW_BLOCK):
            block = [a[lo:lo + _ROW_BLOCK].tolist() for a in (times, *cols.values())]
            fh.write("".join(map(row.__mod__, zip(*block))))


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")

_W, _H = 760, 460
_ML, _MR, _MT, _MB = 72, 18, 42, 52


@dataclass(frozen=True)
class PlotSpec:
    title: str = ""
    observables: tuple = ()
    x_label: str = "t"
    log_x: bool = False


def _ticks(lo: float, hi: float):
    """Six evenly spaced ticks; emit_svg has already widened lo < hi."""
    return list(np.linspace(lo, hi, 6))


def _escape(text: str) -> str:
    """Text content for SVG: the XML metacharacters &, < and > as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    s = f"{v:.4g}"
    return "0" if s == "-0" else s


def emit_svg(times, columns: dict, plot: PlotSpec, path) -> int:
    """Write the plot; returns how many samples with t <= 0 a log axis dropped."""
    t = np.asarray(times, dtype=float)
    if len(t) == 0:
        raise ValidityError("refusing to plot an empty trajectory")
    cols = _series_columns(t, columns, plot.observables or None)
    mask = t > 0.0 if plot.log_x else np.ones(t.shape[0], dtype=bool)
    if not mask.any():
        raise ValidityError("no samples remain after removing t <= 0 for the log axis")
    x = np.log10(t[mask]) if plot.log_x else t[mask]
    series = {name: arr[mask] for name, arr in cols.items()}
    for name, ys in series.items():
        bad = np.flatnonzero(~np.isfinite(ys))
        if bad.size:
            i = bad[0]
            raise ValidityError(f"column {name!r} has the non-finite value {ys[i]} "
                                f"at t={t[mask][i]:.17g}; a plot cannot place it")

    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_all = np.concatenate(list(series.values()))
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if plot.title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(plot.title)}</text>'
        )
    # frame
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(
            f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>'
        )
        label = f"1e{xv:.2g}" if plot.log_x else _fmt(xv)
        out.append(
            f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
    x_title = f"log10({plot.x_label})" if plot.log_x else plot.x_label
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_title}</text>'
    )
    px = sx(x).tolist()
    for k, (name, ys) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px, sy(ys).tolist())))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>'
        )
        ly = _MT + 16 + 15 * k
        out.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 90}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
    return int((~mask).sum())
