"""Self-contained SVG heat maps of grid estimates.

Cells are laid out in the (angle, radius) parameter rectangle, colored on a
linear scale over [0, max value] with the scale printed in a legend.  No
external assets, inline styles only, deterministic formatting.

The cells' text is built once a map from one template with the fill of a
non-finite value, #cccccc, in every cell; each finite cell's six hex digits
are then written over it on a byte array, at offsets summed from the
lengths of the cells' x and y, and the cells go to the file in one write.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# dark blue -> teal -> yellow anchors, interpolated linearly
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
                      values: np.ndarray, title: str = "heat map",
                      label: str = "|mu|") -> None:
    """Write a heat map of values[i_radius, i_angle] as a standalone SVG."""
    values = np.asarray(values, dtype=float).reshape(len(radii), len(angles))
    finite = np.isfinite(values)
    vmax = float(values[finite].max()) if finite.any() else 0.0
    scale = vmax if vmax > 0 else 1.0

    cell_w, cell_h = 6, 4
    width = len(angles) * cell_w + 140
    height = max(len(radii) * cell_h + 60, 220)
    x0, y0 = 10, 40
    lx = x0 + len(angles) * cell_w + 20
    bar_h = 120
    steps = 24
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
            f'font-size="11">{label}</text>\n'
            f'<text x="10" y="{y0 + len(radii) * cell_h + 16}" font-family="monospace" '
            f'font-size="11">x: angle 0..2pi, y: radius {radii[0]:.6g}..{radii[-1]:.6g}</text>\n'
            "</svg>\n"
        ).encode("ascii"))
