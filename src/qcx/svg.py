"""Self-contained SVG heat maps of grid estimates.

Cells are laid out in the (angle, radius) parameter rectangle, colored on a
linear scale over [0, max value] with the scale printed in a legend.  No
external assets, inline styles only, deterministic formatting.
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
    fills = np.full(values.shape, "#cccccc")
    fills[finite] = _colors(values[finite] / scale)

    cell_w, cell_h = 6, 4
    width = len(angles) * cell_w + 140
    height = max(len(radii) * cell_h + 60, 220)
    x0, y0 = 10, 40
    lx = x0 + len(angles) * cell_w + 20
    bar_h = 120
    steps = 24
    legend = _colors(np.array([1 - s / (steps - 1) for s in range(steps)]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="10" y="20" font-family="monospace" font-size="13">{title}</text>\n'
        )
        # one template for every row: the cells' x are fixed, y is filled in
        # per row and the fills per cell
        row_t = "".join(
            f'<rect x="{x0 + j * cell_w}" y="{{y}}" width="{cell_w}" height="{cell_h}" '
            'fill="%s"/>\n'
            for j in range(len(angles))
        )
        for i, row in enumerate(fills.tolist()):
            y = y0 + (len(radii) - 1 - i) * cell_h  # larger radii on top
            fh.write(row_t.replace("{y}", str(y)) % tuple(row))
        # legend: vertical gradient bar with min/max labels
        fh.write("".join(
            f'<rect x="{lx}" y="{y0 + s * bar_h // steps}" width="16" '
            f'height="{bar_h // steps + 1}" fill="{fill}"/>\n'
            for s, fill in enumerate(legend)
        ))
        fh.write(
            f'<text x="{lx + 22}" y="{y0 + 10}" font-family="monospace" '
            f'font-size="11">{vmax:.6g}</text>\n'
            f'<text x="{lx + 22}" y="{y0 + bar_h}" font-family="monospace" '
            f'font-size="11">0</text>\n'
            f'<text x="{lx}" y="{y0 + bar_h + 20}" font-family="monospace" '
            f'font-size="11">{label}</text>\n'
            f'<text x="10" y="{y0 + len(radii) * cell_h + 16}" font-family="monospace" '
            f'font-size="11">x: angle 0..2pi, y: radius {radii[0]:.6g}..{radii[-1]:.6g}</text>\n'
            "</svg>\n"
        )
