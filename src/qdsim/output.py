"""CSV and SVG emitters for a scenario's column table.

The table is the sample times plus an ordered dict of 1-d real columns,
one value per time. CSV: header 't,<observables>', 17 significant
digits, LF endings, '.' decimal point regardless of locale. SVG:
self-contained static line plot assembled from text primitives so that
two runs of the same scenario produce byte-identical files.

Both emitters format whole arrays of numbers at once, with the
characters Python's per-value '%' gives, through two numpy kernels. A
value becomes a fixed-width cell of ASCII bytes (uint64 words read as
bytes), NUL where the cell has no character, and bytes.translate drops
the NULs of a whole block at once.

- CSV ('%.17g'), for 1e-6 <= |x| < 1e16: |x|·10^s, with 10^s an exact
  double (s <= 22), is taken exactly as hi + lo by Dekker's TwoProduct
  on a Veltkamp split (Dekker, Numer. Math. 18 (1971) 224). Scaled into
  [1e16, 1e17), hi is an even integer, so hi + rint(lo) is the 17-digit
  significand rounded half to even. Where log10 misjudges the exponent,
  so that the exact hi + lo lies below 1e16 or the rounded one reaches
  1e17, the value is scaled once more, by 10^(s +- 1); one that would
  need 10^23, such as the double 1e-6 just below 10^-6, keeps '%'. The
  digits are laid out as %g lays them out: fixed point for exponents -4
  to 16, scientific below, trailing zeros stripped; +-0 is '0' and '-0'.
- SVG ('%.2f'), for pixel coordinates in [0, 1e4): the hundredths are
  rint(hi) for hi + lo = 100·x, and lo decides only an exact half in hi.
  The x pixels are formatted once per plot.

Each value outside its kernel's domain keeps the per-value '%': nan,
inf, subnormals and the rest of |x| < 1e-6 or |x| >= 1e16 in the CSV,
and pixels outside [0, 1e4) in the SVG. The CSV is written a block of
at most _ROW_BLOCK rows at a time. A plot refuses a series with a
non-finite value, or an axis whose span is not a positive finite
number; the CSV writes nan and inf as '%' does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ValidityError

_ROW_BLOCK = 1024  # CSV rows emit_csv formats and holds as text at once


def _words(texts) -> np.ndarray:
    """Each ASCII text as the little-endian uint64 of its bytes."""
    return np.array([int.from_bytes(t.encode(), "little") for t in texts], dtype="<u8")


def _split(a):
    """Veltkamp's split of doubles into halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, b_hi, b_lo):
    """a·b exactly, as the rounded product and its error (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digit_tables():
    """Tables by four-digit group 0000-9999: its digits as (digit, NUL)
    byte pairs, whose NULs leave room for a decimal point; the place of its
    last nonzero digit (1-4, and -99 for 0000); 0-9999 right-aligned in
    bytes 0-3. And by 00-99: '.' and the two digits in bytes 4-6."""
    # the digits a, b, c, d of abcd on four broadcast axes
    a, b, c, d = (np.arange(10).reshape((10,) + (1,) * (3 - k)) for k in range(4))
    ca, cb, cc, cd = ((x + 48).astype("<u8") for x in (a, b, c, d))
    pairs = ca | cb << np.uint64(16) | cc << np.uint64(32) | cd << np.uint64(48)
    last = np.maximum(np.maximum((a > 0) * 1, (b > 0) * 2), np.maximum((c > 0) * 3, (d > 0) * 4))
    last = last.ravel()
    last[0] = -99
    shown_b = (a > 0) | (b > 0)
    units = (ca * (a > 0) | (cb * shown_b) << np.uint64(8)
             | (cc * (shown_b | (c > 0))) << np.uint64(16) | cd << np.uint64(24))
    cents = np.uint64(46) << np.uint64(32) | cc << np.uint64(40) | cd << np.uint64(48)
    return pairs.ravel(), last, units.ravel(), cents.ravel()


_PAIRS, _LAST, _UNITS, _CENTS = _digit_tables()
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_POW10_PARTS = np.stack((_POW10, *_split(_POW10)))
# a 17-digit significand is a lead digit and four groups of four
_GROUP_START = np.array([[1], [5], [9], [13]])  # digits before each group
# the mask of the digits a group keeps when a number keeps its first
# `kept` digits, by kept + 18 * group
_KEEP = np.array([(1 << 16 * min(max(kept - start, 0), 4)) - 1
                  for start in _GROUP_START.flat for kept in range(18)], dtype="<u8")
_KEEP_ROW = np.array([[0], [18], [36], [54]])
# sign, then '0.' and zeros below 1, then the lead digit; by
# 50·sign + 10·(-exponent below 1) + lead
_HEAD = _words(s + z + str(lead) for s in ("", "-")
               for z in ("", "0.", "0.0", "0.00", "0.000")
               for lead in range(10))
_EXPONENT = _words(("", "e-05", "e-06"))
_POINT_SEPARATORS = _words(("\0" * 7 + ",", "\0" * 7 + " "))
_FALLBACK = 1  # the byte a cell holds for a value its kernel does not format


def _significands(a, s):
    """|x|·10^s rounded half to even to an integer, and -1, 0 or +1 where
    s must fall, hold or rise for the 17 digits to lie in [1e16, 1e17)."""
    hi, lo = _two_product(a, *_POW10_PARTS.take(s, axis=1))
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # hi - 1e16 is exact wherever hi + lo is near 1e16, so the sum has the
    # sign of the exact hi + lo - 1e16
    move = ((hi - 1e16) + lo < 0.0).astype(np.intp)
    move -= d >= 10 ** 17
    return d, move


def _g17_cells(v):
    """'%.17g' of each value as a 48-byte cell of six uint64 words: the sign
    and any '0.000' in bytes 0-5, the lead digit in byte 6, and the other 16
    digits from byte 8; each digit is followed by a slot for the point.
    Word 5 holds any exponent and leaves byte 44 for a separator. The cells
    of values outside the domain hold _FALLBACK and NULs; returns the cells
    and that mask."""
    a = np.abs(v)
    fast = (a >= 1e-6) & (a < 1e16)
    a[~fast] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    s = (16 - e).astype(np.intp)
    np.minimum(s, 22, out=s)
    d, move = _significands(a, s)
    redo = np.flatnonzero(move)
    if redo.size:
        s[redo] = np.minimum(s[redo] + move[redo], 22)
        d[redo], move = _significands(a[redo], s[redo])
        fast[redo[move != 0]] = False
    d[~fast] = 0  # +-0 is its lead digit 0; other values leave the kernel
    exp = 16 - s
    exp[~fast] = 0
    high = d // 10 ** 8  # scalar divisors: numpy divides by an array far slower
    low = d - high * 10 ** 8
    top = high // 10 ** 4
    lead = top // 10 ** 4
    groups = np.empty((4, v.shape[0]), dtype=np.intp)
    np.subtract(top, lead * 10 ** 4, out=groups[0])
    np.subtract(high, top * 10 ** 4, out=groups[1])
    np.floor_divide(low, 10 ** 4, out=groups[2])
    np.subtract(low, groups[2] * 10 ** 4, out=groups[3])
    below_one = (exp >= -4) & (exp < 0)
    point = np.maximum(exp, 0)  # the point follows this digit, or none below one
    ends = _LAST.take(groups)
    ends += _GROUP_START
    kept = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    np.maximum(kept, point + 1, out=kept)
    cells = np.empty((v.shape[0], 6), dtype="<u8")
    cells[:, 0] = _HEAD.take(np.signbit(v) * 50 - below_one * exp * 10 + lead)
    words = _PAIRS.take(groups)
    np.add(kept, _KEEP_ROW, out=ends)
    words &= _KEEP.take(ends)
    cells[:, 1:5] = words.T
    cells[:, 5] = _EXPONENT.take(np.maximum(-4 - exp, 0))
    dotted = np.flatnonzero((kept > point + 1) & ~below_one)
    at = 7 + 2 * point[dotted]  # the byte after the digit
    cells.ravel()[6 * dotted + (at >> 3)] |= np.uint64(46) << (at & 7).astype("<u8") * np.uint64(8)
    slow = ~fast & (v != 0.0)
    cells[slow] = 0
    cells[slow, 0] = _FALLBACK
    return cells, slow


def _f2_words(v):
    """'%.2f' of each value as the bytes 0-6 of a uint64 word; the words of
    values outside [0, 1e4) hold _FALLBACK. Returns the words and that mask,
    both of v's shape."""
    shape = v.shape
    v = v.ravel()  # the tie fix-up indexes flat positions
    fast = (v >= 0.0) & (v < 1e4) & ~np.signbit(v)
    a = np.where(fast, v, 0.0)
    hi = a * 100.0
    cents = np.rint(hi)
    # only where hi is a half does the product's error lo decide
    ties = np.flatnonzero(np.abs(hi - cents) == 0.5)
    if ties.size:
        hi, lo = _two_product(a[ties], 100.0, 100.0, 0.0)
        half = hi - cents[ties]
        cents[ties] += 2.0 * half * (lo * half > 0.0)
    cents = cents.astype(np.intp)
    fast &= cents < 10 ** 6
    cents *= fast
    units = cents // 100
    words = _UNITS.take(units) | _CENTS.take(cents - 100 * units)
    words[~fast] = _FALLBACK
    return words.reshape(shape), ~fast.reshape(shape)


def _text(cells, values, slow, fmt) -> bytes:
    """The cells' bytes less their NULs, with fmt % value in place of each
    _FALLBACK byte, in the order of values[slow]."""
    text = cells.tobytes().translate(None, b"\0")
    if not slow.any():
        return text
    parts = text.split(bytes([_FALLBACK]))
    out = [b""] * (2 * len(parts) - 1)
    out[::2] = parts
    out[1::2] = [(fmt % x).encode() for x in values[slow].tolist()]
    return b"".join(out)


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
    table = (times, *cols.values())
    with open(path, "wb") as fh:
        fh.write(("t," + ",".join(cols) + "\n").encode())
        for lo in range(0, len(times), _ROW_BLOCK):
            block = np.stack([a[lo:lo + _ROW_BLOCK] for a in table], axis=1).ravel()
            cells, slow = _g17_cells(block)
            rows = cells.view(np.uint8).reshape(-1, len(table), 48)
            rows[:, :, 44] = ord(",")
            rows[:, -1, 44] = ord("\n")
            fh.write(_text(cells, block, slow, "%.17g"))


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
    names = list(cols)
    ys = np.array([arr[mask] for arr in cols.values()])  # one row per series
    finite = np.isfinite(ys)
    if not finite.all():
        k, i = np.argwhere(~finite)[0]
        raise ValidityError(f"column {names[k]!r} has the non-finite value {ys[k, i]} "
                            f"at t={t[mask][i]:.17g}; a plot cannot place it")

    x_min, x_max = float(x.min()), float(x.max())
    x_lo, x_hi = (x_min, x_max) if x_max > x_min else (x_min - 0.5, x_max + 0.5)
    y_min, y_max = float(ys.min()), float(ys.max())
    y_lo, y_hi = (y_min, y_max) if y_max > y_min else (y_min - 1.0, y_max + 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    # Python float arithmetic: an overflowing span is inf, and one lost
    # to rounding is 0, without a warning
    for axis, lo, hi, span in (("x", x_min, x_max, x_hi - x_lo), ("y", y_min, y_max, y_hi - y_lo)):
        if not 0.0 < span < math.inf:
            raise ValidityError(f"plotted {axis} values from {lo:.17g} to {hi:.17g} give an "
                                f"axis span of {span:.17g}; a plot needs a positive finite span")

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
    # a point is two words, 'x,' and 'y ', and a series' text drops its
    # last space; the x pixels are formatted once for every series
    pixels = np.empty(ys.shape + (2,))
    pixels[..., 0] = sx(x)
    pixels[..., 1] = sy(ys)
    words = np.empty(pixels.shape, dtype="<u8")
    slow = np.empty(pixels.shape, dtype=bool)
    words[..., 0], slow[..., 0] = _f2_words(pixels[0, :, 0])
    words[..., 1], slow[..., 1] = _f2_words(pixels[..., 1])
    words |= _POINT_SEPARATORS
    for k, name in enumerate(names):
        color = PALETTE[k % len(PALETTE)]
        pts = _text(words[k], pixels[k], slow[k], "%.2f")[:-1].decode()
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
