"""The output writers against their per-value definitions: every float that
write_csv prints is "%.17g" % x byte for byte, and write_heatmap_svg writes
what a per-cell f-string writer with "#%06x" fills writes."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcx import output
from qcx.output import _ANCHORS, _colors, write_csv, write_heatmap_svg


def _table(rows) -> np.ndarray:
    rows = np.asarray(rows, float)
    return rows[:, None] if rows.ndim == 1 else rows


def _written(path, rows) -> bytes:
    rows = _table(rows)
    header = [f"c{j}" for j in range(rows.shape[1])]
    write_csv(str(path), header, rows)
    return path.read_bytes()


def _percent(rows) -> bytes:
    rows = _table(rows)
    lines = [",".join(f"c{j}" for j in range(rows.shape[1]))]
    lines += [",".join("%.17g" % v for v in row) for row in rows.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


def _neighbours(v):
    return [float(np.nextafter(v, -math.inf)), v, float(np.nextafter(v, math.inf))]


def _edge_values() -> list[float]:
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 1.0, 123.0,
              0.1, 1 / 3, 2 / 3]
    # the ends of fixed notation, and of the range formatted on arrays
    for v in (1e-5, 1e-4, 1e16, 1e17, 1e-30, 1e30):
        values += _neighbours(v) + [-x for x in _neighbours(v)]
    # powers of ten and their neighbours: some round up to the next power
    for k in range(-40, 41):
        values += _neighbours(float(f"1e{k}"))
    # exact ties at the 17th digit: n + 1/4 and n + 3/4 for 2**50 <= n < 2**51
    # have 18 significant digits, the last a 5
    for n in (2 ** 50, 1125899906842625, 1234567890123456, 2 ** 51 - 1):
        values += [n + 0.25, n + 0.75, -(n + 0.25)]
    return values


def _rounds_up_to_a_power_of_ten(v) -> bool:
    text = "%.17g" % v
    digits = text.split("e")[0].replace("0", "").replace(".", "")
    return digits == "1" and Decimal(v) < Decimal(text)


def _is_tie(v) -> bool:
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_edge_values_cover_carries_and_ties():
    finite = [v for v in _edge_values() if math.isfinite(v) and v != 0]
    carries = [v for v in finite if _rounds_up_to_a_power_of_ten(abs(v))]
    assert any(1e-30 <= abs(v) <= 1e30 for v in carries)  # 1e-14, for one
    assert sum(map(_is_tie, finite)) >= 8


def test_csv_edge_values_match_percent_17g(tmp_path):
    values = _edge_values()
    assert _written(tmp_path / "edge.csv", values) == _percent(values)
    rows = np.array(values[:len(values) // 4 * 4]).reshape(-1, 4)
    assert _written(tmp_path / "edge4.csv", rows) == _percent(rows)


def test_csv_random_bit_patterns_match_percent_17g(tmp_path):
    # every kind of double: normal, subnormal, nan payloads, inf; more than
    # one block of rows
    bits = np.random.default_rng(20240611).integers(0, 2 ** 64, 200_000,
                                                    dtype=np.uint64, endpoint=False)
    rows = bits.view(np.float64).reshape(-1, 4)
    assert _written(tmp_path / "bits.csv", rows) == _percent(rows)
    # and values of the magnitudes the commands write, in every layout
    rng = np.random.default_rng(7)
    scaled = rng.standard_normal(200_000) * 10.0 ** rng.integers(-34, 34, 200_000)
    assert _written(tmp_path / "scaled.csv", scaled.reshape(-1, 5)) == \
        _percent(scaled.reshape(-1, 5))


def test_csv_without_rows_is_the_header(tmp_path):
    assert _written(tmp_path / "empty.csv", np.empty((0, 3))) == b"c0,c1,c2\n"


@pytest.mark.parametrize("width", [4, 5])
def test_csv_zeros_in_blocks_match_percent_17g(tmp_path, monkeypatch, width):
    # 0 and -0 are formatted on the arrays: at either end of a block, as a
    # whole block, and among the values "%.17g" itself still formats
    sizes = []  # the float counts of the blocks write_csv formats
    format_block = output._format_block
    monkeypatch.setattr(output, "_format_block",
                        lambda x, seps: sizes.append(x.size) or format_block(x, seps))
    write_csv(str(tmp_path / "probe.csv"), ["c"] * width, np.ones((10_000, width)))
    n = sizes[0]  # floats in a full block
    assert n % width == 0
    rng = np.random.default_rng(width)
    ends = rng.standard_normal(n)
    ends[[0, -1]] = 0.0, -0.0
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    pool = [0.0, -0.0] * 40 + [math.nan, math.inf, -math.inf, 5e-324, -5e-324] + _edge_values()
    mixed = rng.choice(pool, n)
    mixed[[0, -1]] = -0.0, 0.0
    tail = rng.standard_normal(n // width // 2 * width)
    tail[[0, -1]] = -0.0, 0.0
    table = np.concatenate([ends, zeros, mixed, tail]).reshape(-1, width)
    assert np.signbit(table).any() and (table == 0).sum() > n
    sizes.clear()
    assert _written(tmp_path / "zeros.csv", table) == _percent(table)
    assert sizes == [n, n, n, len(tail)]


def test_csv_working_set_stays_under_a_megabyte(tmp_path):
    # an extend table's shape: at blocks of 4096 floats the formatter's
    # temporaries peaked at 1,297 KB, which the heap gave back and faulted
    # in again block after block; half-size blocks peak near 600 KB
    rows = np.random.default_rng(11).standard_normal((3072, 4))
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "table.csv"), ["a", "b", "c", "d"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hypothesis") / "h.csv"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True), min_size=1, max_size=24),
       columns=st.integers(1, 3))
def test_csv_floats_match_percent_17g(scratch, values, columns):
    rows = np.array(values * columns).reshape(columns, -1).T
    assert _written(scratch, rows) == _percent(rows)


# -- SVG ---------------------------------------------------------------------------------


def _per_cell_colors(x):
    """The fills as they were, "#%06x" of each cell's packed channels."""
    x = np.clip(x, 0.0, 1.0)
    low = x <= 0.5
    t = np.where(low, 2 * x, 2 * x - 1)
    code = np.zeros(x.shape, int)
    for c0, c1, c2 in zip(*_ANCHORS):
        a = np.where(low, c0, c1)
        b = np.where(low, c1, c2)
        code = code * 256 + np.rint(255 * (a + (b - a) * t)).astype(int)
    return ["#%06x" % c for c in code.tolist()]


def test_colors_match_the_per_cell_fills():
    rng = np.random.default_rng(5)
    # both sides of the middle anchor, the clipped ends, and a sweep of
    # [0, 1] dense enough to cross every rounding step of every channel
    x = np.concatenate([rng.random(20_000) * 1.4 - 0.2, np.linspace(0, 1, 20_001),
                        [0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1), -0.0]])
    got = _colors(x)
    assert got.shape == x.shape
    assert got.tolist() == _per_cell_colors(x)
    assert _colors(np.array([])).tolist() == []


def _per_cell_svg(path, radii, angles, values, title="heat map", label="|mu|"):
    """The writer as it was, one f-string per cell: the oracle."""
    values = np.asarray(values, dtype=float).reshape(len(radii), len(angles))
    finite = np.isfinite(values)
    vmax = float(values[finite].max()) if finite.any() else 0.0
    scale = vmax if vmax > 0 else 1.0
    fills = np.full(values.shape, "#cccccc", dtype=object)
    fills[finite] = _per_cell_colors(values[finite] / scale)
    cell_w, cell_h = 6, 4
    width = len(angles) * cell_w + 140
    height = max(len(radii) * cell_h + 60, 220)
    x0, y0 = 10, 40
    lx = x0 + len(angles) * cell_w + 20
    bar_h = 120
    steps = 24
    legend = _per_cell_colors(np.array([1 - s / (steps - 1) for s in range(steps)]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="10" y="20" font-family="monospace" font-size="13">{title}</text>\n'
        )
        for i, row in enumerate(fills.tolist()):
            y = y0 + (len(radii) - 1 - i) * cell_h
            fh.write("".join(
                f'<rect x="{x0 + j * cell_w}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="{fill}"/>\n'
                for j, fill in enumerate(row)
            ))
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


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (9, 20), (32, 64)])
def test_svg_matches_the_per_cell_writer(tmp_path, shape):
    n_r, n_a = shape
    rng = np.random.default_rng(n_r * 100 + n_a)
    radii = np.geomspace(1.001, 3.0, n_r)
    angles = 2 * np.pi * np.arange(n_a) / n_a
    grids = [rng.random(shape), np.zeros(shape), np.full(shape, np.nan)]
    holes = rng.random(shape)
    holes[rng.random(shape) < 0.2] = np.nan
    holes.flat[::7] = np.inf
    holes.flat[3::11] = -np.inf
    grids.append(holes)
    for k, values in enumerate(grids):
        new, old = tmp_path / f"new{k}.svg", tmp_path / f"old{k}.svg"
        write_heatmap_svg(str(new), radii, angles, values, title=f"case {k}")
        _per_cell_svg(str(old), radii, angles, values, title=f"case {k}", label="|mu|")
        assert new.read_bytes() == old.read_bytes()
