"""Every byte of a --out file: CSV tables (write_csv) and SVG heat maps
(write_heatmap_svg).

A CSV float reads as "%.17g" prints it, but is formatted on numpy arrays a
block of rows at a time.  A heat map lays its cells out in the (angle,
radius) parameter rectangle, colored on a linear scale over [0, max value]
shown in a legend, with no external assets and inline styles only.  Its
cells are built once a map from one template with the fill of a non-finite
value, #cccccc, in every cell; each finite cell's six hex digits are then
written over it on a byte array, at offsets summed from the lengths of the
cells' x and y, and the cells go to the file in one write.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grids import blocks


# write_csv prints every float as "%.17g" does, a block of rows at a time on
# numpy arrays.  A float's text is a field of 12 uint32 words, 48 bytes in
# output order; zero bytes are padding and are dropped before the write:
#   w0      separator before the field (newline for a row's first), sign,
#           "0." when the decimal exponent E is negative
#   w1      the zeros of "0.000" for E <= -2, then the leading digit d0
#   w2-w5   digits d1..d16 before the decimal point (all of them after "0.")
#   w6      the decimal point after the leading digits, in its last byte
#   w7-w10  digits d1..d16 after that point, up to the last one written
#   w11     "e+XX" in exponent notation
# The digits written are the leading ones up to the last nonzero digit, and
# all digits before the point in fixed notation.
# Tables indexed by a word's bytes are built through _words, so they do not
# depend on the machine's byte order.

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_Q0 = -16  # 10**q is tabulated for q in [_Q0, 48], enough for 1e-30 <= |x| <= 1e30
_E0 = -32  # tables over the decimal exponent cover E in [_E0, 31]


def _split(a):
    """a = hi + lo exactly, with hi holding the top 26 bits of the significand."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """10**q = hi + lo (+ at most 2**-106 * 10**q) for q in [_Q0, 48]: hi is the
    double nearest 10**q and lo the double nearest the remainder, both from
    Python ints (int / int is correctly rounded).  Returns hi, hi's two
    halves and lo."""
    hi, lo = [], []
    for q in range(_Q0, 49):
        if q >= 0:
            h = float(10 ** q)
            rest = float(10 ** q - int(h))
        else:
            d = 10 ** -q
            h = 1 / d
            num, den = h.as_integer_ratio()
            rest = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _words(rows) -> np.ndarray:
    """uint32 words whose bytes, in memory order, are the rows of a (k, 4) byte table."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint32).ravel()


_P10_HI, _P10_HH, _P10_HL, _P10_LO = _pow10_table()
_d4 = np.indices((10,) * 4).reshape(4, -1)  # [:, g]: the digits of "%04d" % g
_DIGITS4 = _words(48 + _d4.T)
_TRAILING0 = np.cumprod(_d4[::-1] == 0, axis=0).sum(0)  # [g]: its trailing zeros
_keep = _words(255 * (np.arange(4) < np.arange(-16, 21)[:, None]))  # [m + 16]: first m bytes
_LEAD = _words(np.outer(48 + np.arange(10), [0, 0, 0, 1]))
_POINT, _SIGN, _COMMA, _NEWLINE = _words([[0, 0, 0, 46], [0, 45, 0, 0], [44, 0, 0, 0], [10, 0, 0, 0]])
_e = np.arange(_E0, 32)
_fixed = (-4 <= _e) & (_e < 17)
_small = _fixed & (_e < 0)
# The digits' layout, by the row (E - _E0) * 17 + zeros of a float whose 17
# digits end in `zeros` zeros: it writes `written` digits (at least its
# integer digits, zeros or not), `head` of them before the point.  The m-th
# group holds digits 4m+1 .. 4m+4: _BEFORE[m] keeps the first
# (head - 4m - 1) bytes of its word, which precede the point, and _AFTER[m]
# the bytes from there up to the (written - 4m - 1)-th, which follow it.
_written = np.maximum(17 - np.arange(17), np.where(_fixed & ~_small, _e + 1, 1)[:, None])
_head = np.minimum(np.where(_small, 17, np.where(_fixed, _e + 1, 1))[:, None], _written)
_BEFORE = [_keep[_head + 15 - 4 * m].ravel() for m in range(4)]
_AFTER = [(_keep[_written + 15 - 4 * m] ^ _keep[_head + 15 - 4 * m]).ravel() for m in range(4)]
_POINT_AT = (_POINT * (_written > _head)).ravel()
_PREFIX0 = _words(np.stack([0 * _e, 0 * _e, 48 * _small, 46 * _small], 1))
_PREFIX1 = _words(np.stack([48 * (_small & (_e <= -2)), 48 * (_small & (_e <= -3)),
                            48 * (_small & (_e <= -4)), 0 * _e], 1))
_EXPONENT = _words(np.stack([101 * ~_fixed, np.where(_e < 0, 45, 43) * ~_fixed,
                             (48 + abs(_e) // 10) * ~_fixed, (48 + abs(_e) % 10) * ~_fixed], 1))
del _d4, _keep, _e, _fixed, _small, _written, _head


def _scaled(a, q):
    """(F, frac) with F + frac = a * 10**q, F an int64 array and frac in
    [0, 1): to within 1e-14 where a * 10**q < 10**17, 1e-13 below 10**18."""
    i = q - _Q0
    hi, hh, hl, lo = _P10_HI.take(i), _P10_HH.take(i), _P10_HL.take(i), _P10_LO.take(i)
    p = a * hi
    ah, al = _split(a)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # Dekker: a * hi = p + e exactly
    fp = np.floor(p)
    t = (p - fp) + (e + a * lo)
    ft = np.floor(t)
    return fp.astype(np.int64) + ft.astype(np.int64), t - ft


def _format_block(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The "%.17g" texts of the floats x, each preceded by its separator word
    in seps, as one uint8 array of their bytes.

    Method: for 1e-30 <= |x| <= 1e30, E = floor(log10|x|) and the 17
    significant digits are N = round(|x| * 10**(16 - E)).  The product is a
    double-double: 10**q = hi + lo from the table, a * hi = p + e exactly by
    Dekker's split product (no fused multiply-add needed), and the small
    terms e + a * lo are added in double.  Every term below p is at most
    2**-52 of the product, so for a product under 10**17 the error is under
    1e-14, and N is exact unless the fraction lies within 1e-14 of one half.
    Values within 1e-6 of a rounding tie, exact ties included, are left to
    "%.17g" itself.  log10 may put E one off next to a power of ten; a
    product outside [10**16, 10**17) moves E by one and is computed again.
    Where the product lies within the error bound of 10**16 or 10**17, N
    rounds to 10**16 or 10**17 either way, and both give the digit 1 at the
    right exponent (10**17 carries into E + 1, as "%.17g" does).  Any N
    still out of range is left to "%.17g" too, as are nan, +-inf and
    |x| outside [1e-30, 1e30] other than 0.  A zero takes N = 0 at E = 0,
    the one digit 0.  The digits are then laid out as "%.17g" lays them
    out: fixed notation for -4 <= E < 17, exponent notation otherwise,
    trailing zeros of the fraction and a bare point dropped, the sign taken
    from the sign bit, so -0.0 reads "-0".
    """
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    ok = (a >= 1e-30) & (a <= 1e30)  # false on 0, nan and inf
    a[~ok] = 1.0  # whose digits are N = 10**16 at E = 0
    E = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, 16 - E)
    off = (F < 10 ** 16).astype(np.int64) - (F >= 10 ** 17)
    redo = np.flatnonzero(off)
    if len(redo):
        E[redo] -= off[redo]
        F[redo], frac[redo] = _scaled(a[redo], 16 - E[redo])
    N = F + (frac >= 0.5)
    carry = np.flatnonzero(N == 10 ** 17)
    if len(carry):
        N[carry] = 10 ** 16
        E[carry] += 1
    ok &= (np.abs(frac - 0.5) > 1e-6) & (N >= 10 ** 16) & (N < 10 ** 17)
    ok |= zero

    # N = d0 g1 g2 g3 g4 in groups of four digits; a zero's N = 10**16
    # becomes d0 = 0 and no other digit, so it reads "0" or "-0"
    d0 = N // 10 ** 16
    low = N - d0 * 10 ** 16
    d0 -= zero
    g12 = low // 10 ** 8
    g34 = low - g12 * 10 ** 8
    g1 = g12 // 10 ** 4
    g3 = g34 // 10 ** 4
    groups = (g1, g12 - g1 * 10 ** 4, g3, g34 - g3 * 10 ** 4)
    t1, t2, t3, t4 = (_TRAILING0.take(g) for g in groups)
    zeros = t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1))
    e = E - _E0
    layout = e * 17 + zeros

    out = np.empty((n, 12), np.uint32)
    out[:, 0] = seps | np.signbit(x) * _SIGN | _PREFIX0.take(e)
    out[:, 1] = _PREFIX1.take(e) | _LEAD.take(d0)
    for m, g in enumerate(groups):
        w = _DIGITS4.take(g)
        out[:, 2 + m] = w & _BEFORE[m].take(layout)
        out[:, 7 + m] = w & _AFTER[m].take(layout)
    out[:, 6] = _POINT_AT.take(layout)
    out[:, 11] = _EXPONENT.take(e)

    bad = np.flatnonzero(~ok)
    if len(bad):
        text = np.array([b"%.17g" % v for v in x[bad].tolist()], "S24")
        fields = out.view(np.uint8)
        fields[bad, 1:] = 0
        fields[bad, 1:25] = text.view(np.uint8).reshape(len(bad), 24)
    flat = out.view(np.uint8).ravel()
    return flat[flat != 0]


def write_csv(path: str, header: list[str], rows) -> None:
    """A table of floats (a 2-D array, or rows that make one) with a header
    row, comma separators and LF line endings.  Every float reads as
    "%.17g" % x would print it, byte for byte, but is formatted on numpy
    arrays a block of rows at a time, one write per block.  A block holds at
    most BLOCK // 2 floats: the formatter's temporaries take some 300 bytes
    a float, and at BLOCK floats they outgrow what the heap keeps between
    blocks, so every block faulted its pages in afresh."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    parts = blocks(rows, 2 * len(header))  # half of BLOCK floats a block
    seps = np.full((len(parts[0]) if parts else 0, len(header)), _COMMA)
    seps[:, 0] = _NEWLINE
    seps = seps.ravel()
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii"))
        for block in parts:
            x = block.ravel()
            fh.write(_format_block(x, seps[:len(x)]))
        fh.write(b"\n")


# the heat map's dark blue -> teal -> yellow anchors, interpolated linearly
_ANCHORS = ((0.15, 0.10, 0.45), (0.10, 0.60, 0.60), (0.95, 0.90, 0.25))
# the hex digits' character codes, a unicode string's code points
_DIGITS = np.frombuffer(b"0123456789abcdef", np.uint8)


def _colors(x: np.ndarray) -> np.ndarray:
    """The fill of every value of x in [0, 1] (clipped), as #rrggbb."""
    x = np.clip(x, 0.0, 1.0)
    low = x <= 0.5
    t = np.where(low, 2 * x, 2 * x - 1)
    text = np.empty((x.size, 7), np.uint32)  # one row of code points a fill
    text[:, 0] = ord("#")
    for i, (c0, c1, c2) in enumerate(zip(*_ANCHORS)):  # one channel at a time
        a = np.where(low, c0, c1)
        b = np.where(low, c1, c2)
        # rint rounds half to even, as round() does
        c = np.rint(255 * (a + (b - a) * t)).astype(int)
        text[:, 1 + 2 * i] = _DIGITS[c >> 4]
        text[:, 2 + 2 * i] = _DIGITS[c & 15]
    return text.view("U7").ravel()


def write_heatmap_svg(path: str, radii: Sequence[float], angles: Sequence[float],
                      values: np.ndarray, title: str = "heat map") -> None:
    """Write a heat map of values[i_radius, i_angle] as a standalone SVG,
    its legend labelled |mu|."""
    values = np.asarray(values, dtype=float).reshape(len(radii), len(angles))
    finite = np.isfinite(values)
    vmax = float(values[finite].max()) if finite.any() else 0.0
    scale = vmax if vmax > 0 else 1.0

    cell_w, cell_h, x0, y0 = 6, 4, 10, 40  # a cell's size; the cell area's top-left corner
    width = len(angles) * cell_w + 140
    height = max(len(radii) * cell_h + 60, 220)
    lx = x0 + len(angles) * cell_w + 20
    bar_h, steps = 120, 24  # the legend's bar height and color steps
    legend = _colors(np.array([1 - s / (steps - 1) for s in range(steps)]))

    # the cells row after row, larger radii on top; a finite cell's hex
    # digits end 4 bytes ('"/>\n') before the cell does
    xs = [str(x0 + j * cell_w) for j in range(len(angles))]
    ys = [str(y0 + (len(radii) - 1 - i) * cell_h) for i in range(len(radii))]
    cell = f'<rect x="{{x}}" y="{{y}}" width="{cell_w}" height="{cell_h}" fill="#cccccc"/>\n'
    row_t = "".join(cell.replace("{x}", x) for x in xs).split("{y}")  # a row around its y's
    cells = bytearray("".join([y.join(row_t) for y in ys]), "ascii")
    # a cell's length: the template's less "{x}" and "{y}", plus its x and y
    size = (len(cell) - 6 + np.array([len(y) for y in ys])[:, None]
            + np.array([len(x) for x in xs]))
    at = np.cumsum(size).reshape(size.shape)[finite] - 10  # where the digits start
    codes = _colors(values[finite] / scale).view(np.uint32).reshape(-1, 7)  # "#rrggbb"
    np.frombuffer(cells, np.uint8)[at[:, None] + np.arange(6)] = codes[:, 1:]

    with open(path, "wb") as fh:
        fh.write((
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="10" y="20" font-family="monospace" font-size="13">{title}</text>\n'
        ).encode("ascii"))
        fh.write(cells)
        # legend: vertical gradient bar with min/max labels
        fh.write("".join(
            f'<rect x="{lx}" y="{y0 + s * bar_h // steps}" width="16" '
            f'height="{bar_h // steps + 1}" fill="{fill}"/>\n'
            for s, fill in enumerate(legend)
        ).encode("ascii"))
        fh.write((
            f'<text x="{lx + 22}" y="{y0 + 10}" font-family="monospace" '
            f'font-size="11">{vmax:.6g}</text>\n'
            f'<text x="{lx + 22}" y="{y0 + bar_h}" font-family="monospace" '
            f'font-size="11">0</text>\n'
            f'<text x="{lx}" y="{y0 + bar_h + 20}" font-family="monospace" '
            'font-size="11">|mu|</text>\n'
            f'<text x="10" y="{y0 + len(radii) * cell_h + 16}" font-family="monospace" '
            f'font-size="11">x: angle 0..2pi, y: radius {radii[0]:.6g}..{radii[-1]:.6g}</text>\n'
            "</svg>\n"
        ).encode("ascii"))
