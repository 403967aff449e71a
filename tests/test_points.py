"""One evaluation path: every formula takes 1-D arrays, and a point is a
one-element array.

The contract: a point call returns Python numbers (a complex, or a Jet2 or
ChainPartials of them; a float or a bool where the value is real) equal,
bit for bit, to element 0 of the same call on np.array([z]).  The guard: no
code of the package outside the edge helper `jets.accepts_point` tells a
point from an array."""

import ast
import cmath
import math
import random
from pathlib import Path

import numpy as np
import pytest

from qcx import (
    CayleyMap,
    CompanionMap,
    ConstMap,
    CriterionParams,
    ExtensionMap,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    ScaledMap,
    SectorDomain,
    SectorExtension,
    SpiralMap,
    build_chain,
    companion_from_sector,
    fit_sector,
    gen_becker_value,
    nw_value,
    p_extension,
    p_extension_inverse,
    phi_like_value,
    u_disk_margin,
    u_disk_ratio,
    wirtinger,
)
from qcx.branches import BranchLattice, ratio_branch
from qcx.criteria import CRITERIA
from qcx.jets import Jet2
from qcx.loewner import ChainPartials

SRC = Path(__file__).resolve().parents[1] / "src" / "qcx"

SECTOR = SectorDomain(-2, 11 / 6, 1 / 3)  # opening pi/3 around the real axis
MOEBIUS = MoebiusMap(1, 0, 0.2, 1)  # Q(0) = 0, a pole at w = -5
MOEBIUS_Q = CompanionMap.from_moebius(MOEBIUS)
F = PolynomialMap([1, 0.2])
SECTOR_Q = companion_from_sector(fit_sector(F, -4.0)[0])  # holds the image of F
POLY = PolynomialMap([1, 0.25, -0.03j])
TREE = ((KoebeMap() + 2 * IdentityMap()) / (3 - F) * ScaledMap(CayleyMap(), 3.0)
        + SpiralMap(0.3).after(0.5 * IdentityMap()))


def _disk(n=40, radius=0.95, seed=5):
    """The origin and n points drawn uniformly from |z| < radius."""
    rng = random.Random(seed)
    points = [0j]
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        points.append(cmath.rect(r, 2 * math.pi * rng.random()))
    return points


def _plane(n=40, seed=6):
    """Points of 0.2 < |w| < 3, off the unit circle."""
    rng = random.Random(seed)
    return [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]


DISK = _disk()
PLANE = [w for w in _plane() if 0.2 < abs(w) and abs(abs(w) - 1) > 1e-3]
IMAGE = [0.3 * z for z in DISK]  # inside the sector's domain: Re w > -2 + |Im w| sqrt(3)
TIMES = [0.0, 0.3, 0.7, 1.0, 1.9, 2.0]


def _chains():
    params = CriterionParams(s=1.2 + 0.4j, c=0.3, k=0.5, k_prime=0.34)
    chains = [build_chain(c, POLY, MOEBIUS_Q, params)
              for c in ("gen_becker", "nw", "phi_like", "bazilevic")]
    return chains + [build_chain("nw", F, SECTOR_Q, params)]


CHAINS = _chains()


def _cases():
    """(name, call, points): call(x) evaluates one public entry point at x."""
    cases = []
    maps = {"identity": IdentityMap(), "const": ConstMap(0.5 - 2j), "koebe": KoebeMap(),
            "cayley": CayleyMap(), "spiral": SpiralMap(0.6), "polynomial": POLY,
            "scaled": ScaledMap(SpiralMap(-0.4), 2.0), "tree": TREE}
    for name, m in maps.items():
        cases.append((f"{name}.jet", m.jet, DISK))
        cases.append((f"{name}()", m, DISK))
    cases += [("moebius.jet", MOEBIUS.jet, PLANE), ("moebius()", MOEBIUS, PLANE),
              ("moebius.inverse", MOEBIUS.inverse, PLANE)]
    for qname, q in (("moebius", MOEBIUS_Q), ("sector", SECTOR_Q)):
        points = PLANE if qname == "moebius" else IMAGE
        for view in ("jet", "__call__"):
            cases.append((f"companion_{qname}.{view}", getattr(q, view), points))
        cases.append((f"companion_{qname}.after(F).jet", q.after(F).jet, DISK))
    cases += [
        ("phi_like_value", lambda z: phi_like_value(F, MOEBIUS_Q, z), DISK),
        ("gen_becker_value", lambda z: gen_becker_value(F, MOEBIUS_Q, 0.1, z), DISK),
        ("nw_value", lambda z: nw_value(F, SECTOR_Q, z), DISK),
        ("moebius_becker_row", CRITERIA["moebius_becker"].build(
            F, None, CriterionParams(c=0.1, c2=-3.0)), DISK),
        ("moebius_nw_row", CRITERIA["moebius_nw"].build(
            F, None, CriterionParams(gamma=0.2, delta=1.0)), DISK),
        ("sector_becker_row", CRITERIA["sector_becker"].build(
            F, None, CriterionParams(c=0.1, w0=SECTOR.w0, lambda0=SECTOR.lambda0,
                                     a=SECTOR.a)), DISK),
    ]
    for chain in CHAINS:
        name = f"{chain.construction}_{chain.q.label}"
        for t in (0.0, 0.7, 1.9):
            cases += [
                (f"{name}.partials(t={t})", lambda z, c=chain, t=t: c.partials(z, t), DISK),
                (f"{name}.transition_ratio(t={t})",
                 lambda z, c=chain, t=t: c.transition_ratio(z, t), DISK),
            ]
        cases.append((f"{name}.a1", chain.a1, TIMES))
        cases.append((f"extension_{name}", ExtensionMap(chain), DISK + PLANE))
    cases.append(("bazilevic.branch_data", CHAINS[3].branch_data, DISK))
    for normalized in (False, True):
        ext = SectorExtension(SECTOR, normalized=normalized)
        cases += [(f"sector_extension_{normalized}", ext, PLANE),
                  (f"sector_extension_{normalized}.inverse", ext.inverse, PLANE),
                  (f"sector_extension_{normalized}.image_seam", ext.image_seam, PLANE)]
    cases += [("sector.contains", SECTOR.contains, PLANE),
              ("sector.local_angle", SECTOR.local_angle, PLANE)]
    for a in (1 / 3, 1.25):
        cases += [(f"p_extension({a:.3g})", lambda z, a=a: p_extension(a, z), PLANE),
                  (f"p_extension_inverse({a:.3g})",
                   lambda v, a=a: p_extension_inverse(a, v), PLANE)]
    cases += [
        ("u_disk_margin", lambda w: u_disk_margin(w, 0.5), PLANE),
        ("u_disk_ratio", u_disk_ratio, PLANE),
        ("wirtinger", lambda z: wirtinger(SectorExtension(SECTOR), z), PLANE),
        ("factored_ratio.log", ratio_branch(POLY).log, DISK),
        ("lattice.log", BranchLattice.ratio(POLY).log, DISK),
    ]
    return [pytest.param(call, points, id=name) for name, call, points in cases]


def _parts(result):
    """The numbers or arrays a result holds, in order."""
    if isinstance(result, (Jet2, ChainPartials)):
        return [getattr(result, name) for name in vars(result)]
    if isinstance(result, tuple):
        return list(result)
    return [result]


@pytest.mark.parametrize("call, points", _cases())
def test_a_point_is_element_0_of_a_one_element_array_to_the_bit(call, points):
    for x in points:
        point, block = call(x), call(np.array([x]))
        assert type(point) is type(block) or type(block) is np.ndarray
        for got, want in zip(_parts(point), _parts(block), strict=True):
            assert type(got) in (complex, float, bool), (x, type(got))
            want = np.asarray(want)
            assert want.shape == (1,)
            # the same dtype and the same bytes: bit for bit, NaN and -0 included
            assert np.array([got], want.dtype).tobytes() == want.tobytes(), (x, got, want[0])


def test_a_sequence_that_is_not_an_array_is_rejected():
    for call in (KoebeMap().jet, lambda z: nw_value(F, MOEBIUS_Q, z), u_disk_ratio):
        with pytest.raises(TypeError, match="must be a number or a numpy array"):
            call([0.1, 0.2j])


# -- the guard: one place tells a point from an array --------------------------------

_EDGE = {("jets.py", "accepts_point"), ("jets.py", "_element0")}


def _dispatch_sites(path: Path) -> list[str]:
    """Lines of a source file, outside the edge helper, that test whether a
    value is an array or a point: type(x) is np.ndarray, isinstance(x,
    np.ndarray), np.ndim(x) / x.ndim, np.isscalar, np.atleast_1d, or a
    TypeError / ValueError handler that swallows the error instead of
    raising."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    edge = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in _EDGE:
            edge.update(range(node.lineno, node.end_lineno + 1))
    sites = []

    def site(node, what):
        if node.lineno not in edge:
            sites.append(f"{path.name}:{node.lineno}: {what}")

    def is_ndarray(node):
        return (isinstance(node, ast.Attribute) and node.attr == "ndarray"
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(is_ndarray(c) for c in node.comparators):
            site(node, "type test against np.ndarray")
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "isinstance" \
                    and any(is_ndarray(a) for a in ast.walk(node.args[1])):
                site(node, "isinstance(..., np.ndarray)")
            if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                    and fn.value.id == "np" and fn.attr in ("ndim", "isscalar", "atleast_1d"):
                site(node, f"np.{fn.attr}")
        elif isinstance(node, ast.Attribute) and node.attr == "ndim" \
                and not (isinstance(node.value, ast.Name) and node.value.id == "np"):
            site(node, ".ndim")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            if names & {"TypeError", "ValueError"} \
                    and not any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                site(node, "a TypeError/ValueError handler that does not raise")
    return sites


def test_only_the_edge_helper_tells_a_point_from_an_array():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _dispatch_sites(path)]
    assert sites == []


def test_the_guard_sees_each_kind_of_dispatch(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import numpy as np\n"
        "def f(x, y):\n"
        "    if type(x) is np.ndarray:\n"
        "        pass\n"
        "    if isinstance(y, (float, np.ndarray)) or np.ndim(y) == 0 or x.ndim:\n"
        "        pass\n"
        "    y = np.atleast_1d(y)\n"
        "    try:\n"
        "        return complex(x)\n"
        "    except TypeError:\n"
        "        return x\n"
        "def g(x):\n"
        "    try:\n"
        "        return complex(x)\n"
        "    except ValueError as exc:\n"
        "        raise RuntimeError(x) from exc\n")
    lines = [int(s.split(":")[1]) for s in _dispatch_sites(source)]
    assert sorted(set(lines)) == [3, 5, 7, 10]


# -- the guard: one complex logarithm ------------------------------------------------

# np.log calls whose argument is real though no abs() shows it: the
# extension's radius r = abs(w)
_REAL_LOG_ARGS = {("loewner.py", "__call__"): "r"}


def _complex_logs(path: Path) -> list[str]:
    """Lines of a source file that call np.log on an argument that may be
    complex: anything but np.abs(...), abs(...) or a radius that
    _REAL_LOG_ARGS names.  jets.principal_log is the one complex logarithm
    of an array, and takes np.log of np.abs(w) itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    radius = {}  # line -> the radius np.log may take there
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in _REAL_LOG_ARGS:
            radius.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1),
                                        _REAL_LOG_ARGS[path.name, node.name]))

    def is_real(arg, line):
        if isinstance(arg, ast.Call):
            fn = arg.func
            return (isinstance(fn, ast.Name) and fn.id == "abs") or (
                isinstance(fn, ast.Attribute) and fn.attr == "abs"
                and isinstance(fn.value, ast.Name) and fn.value.id == "np")
        return isinstance(arg, ast.Name) and radius.get(line) == arg.id

    def is_np_log(node):
        return (isinstance(node, ast.Attribute) and node.attr == "log"
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    real = {id(node.func) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and is_np_log(node.func)
            and len(node.args) == 1 and is_real(node.args[0], node.lineno)}
    # np.log passed on as a function, not called, takes whatever it is given
    return [f"{path.name}:{node.lineno}: np.log"
            for node in ast.walk(tree) if is_np_log(node) and id(node) not in real]


def test_every_complex_logarithm_is_the_principal_log_helper():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _complex_logs(path)]
    assert sites == []


def test_the_guard_sees_a_complex_logarithm(tmp_path):
    source = tmp_path / "loewner.py"
    source.write_text(
        "import numpy as np\n"
        "def __call__(w):\n"
        "    r = abs(w)\n"
        "    return np.log(r) + np.log(np.abs(w)) + np.log(abs(w))\n"
        "def f(w, r):\n"
        "    a = np.log(w)\n"
        "    b = np.log(r) + np.log(1 - w)\n"
        "    return a + b + np.log(np.abs(w) * w)\n"
        "def g():\n"
        "    return np.log\n")
    lines = [int(s.split(":")[1]) for s in _complex_logs(source)]
    assert sorted(lines) == [6, 7, 7, 8, 10]


# -- the guard: one extremum rule ---------------------------------------------------

# the one arg-reduction outside jets.py, which names no worst point: the grid
# ring nearest the worst point's radius
_NEAREST_RING = {("criteria.py", "_refined_neighborhood")}
_ARG_REDUCTIONS = {"argmax", "argmin", "nanargmax", "nanargmin"}


def _arg_reductions(path: Path) -> list[str]:
    """Lines of a source file that name an arg-reduction (np.argmax, an
    array's .argmin(), a bare argmax, called or passed on), but for
    _NEAREST_RING's lookup.  jets.py may: `jets.extremum` names every worst
    point and argmin by the one tie rule, and `jets.first_where` the first
    point of a mask."""
    if path.name == "jets.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in _NEAREST_RING:
            allowed.update(range(node.lineno, node.end_lineno + 1))

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return [f"{path.name}:{node.lineno}: {name(node)}" for node in ast.walk(tree)
            if name(node) in _ARG_REDUCTIONS and node.lineno not in allowed]


def test_only_the_extremum_helper_names_a_worst_point():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _arg_reductions(path)]
    assert sites == []


def test_the_guard_sees_an_arg_reduction(tmp_path):
    source = tmp_path / "criteria.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy import argmin as argmin\n"
        "def _refined_neighborhood(radii, r):\n"
        "    return int(np.argmin(np.abs(radii - r)))\n"
        "def scan(sc, x):\n"
        "    i = int(np.argmax(sc))\n"
        "    j = sc.argmin() + argmin(x)\n"
        "    pick = np.nanargmax\n"
        "    return i, j, pick, np.max(sc)\n")
    lines = [int(s.split(":")[1]) for s in _arg_reductions(source)]
    assert sorted(lines) == [6, 7, 7, 8]
    jets = tmp_path / "jets.py"
    jets.write_text(source.read_text())
    assert _arg_reductions(jets) == []


# -- the guard: one place builds G = Q o f ------------------------------------------


def _composites(path: Path) -> list[str]:
    """Lines of a source file that construct a ComposeMap or call
    jets.compose, by a bare or a qualified name.  Only maps.py may:
    `CompanionMap.after` builds the G = Q o f every criterion and chain
    reads, and `ComposeMap` is the one chain rule."""
    if path.name == "maps.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def name(fn):
        return fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)

    return [f"{path.name}:{node.lineno}: {name(node.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name(node.func) in ("ComposeMap", "compose")]


def test_only_maps_builds_a_composite():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _composites(path)]
    assert sites == []


def test_the_guard_sees_a_composite(tmp_path):
    source = tmp_path / "criteria.py"
    source.write_text(
        "from . import jets, maps\n"
        "from .maps import ComposeMap\n"
        "def f(q, f, a, b):\n"
        "    g = ComposeMap(q, f)\n"
        "    h = maps.ComposeMap(q, f)\n"
        "    j = jets.compose(a, b) or compose(a, b)\n"
        "    return q.after(f), cmd_compose(a), g, h, j\n")
    lines = [int(s.split(":")[1]) for s in _composites(source)]
    assert sorted(lines) == [4, 5, 6, 6]
    maps = tmp_path / "maps.py"
    maps.write_text(source.read_text())
    assert _composites(maps) == []


# -- the guard: one module writes files ----------------------------------------------


def _file_writes(path: Path) -> list[str]:
    """Lines of a source file that open a file to write it: open or io.open
    with a mode holding w, a, x or + (or a mode that is not a literal), or a
    path's write_text / write_bytes.  Only output.py may: every byte a --out
    file holds is its."""
    if path.name == "output.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def writes(node):
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in ("write_text", "write_bytes"):
            return True
        if not (isinstance(fn, ast.Name) and fn.id == "open"
                or isinstance(fn, ast.Attribute) and fn.attr == "open"
                and isinstance(fn.value, ast.Name) and fn.value.id == "io"):
            return False
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes)

    return [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
            for node in ast.walk(tree) if isinstance(node, ast.Call) and writes(node)]


def test_only_output_writes_a_file():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _file_writes(path)]
    assert sites == []


def test_the_guard_sees_a_file_write(tmp_path):
    source = tmp_path / "cli.py"
    source.write_text(
        "import io\n"
        "def f(path, mode):\n"
        "    with open(path) as fh, open(path, 'r', encoding='utf-8') as gh:\n"
        "        fh.write(gh.read())\n"
        "    open(path, 'wb').close()\n"
        "    open(path, mode=mode), io.open(path, 'a'), open(path, 'r+')\n"
        "    path.write_text('x')\n")
    lines = [int(s.split(":")[1]) for s in _file_writes(source)]
    assert sorted(lines) == [5, 6, 6, 6, 7]
    output = tmp_path / "output.py"
    output.write_text(source.read_text())
    assert _file_writes(output) == []


# -- the guard: a message names a point as a Python number ---------------------------


def _indexed_elements_in_fstrings(path: Path) -> list[str]:
    """Lines of a source file whose f-strings print an element that an index
    picks, as {z[i]!r} or {w[i]} do.  An array's element prints as a numpy
    scalar (np.complex128(...) under numpy 2); `jets.first_where` names the
    point as a Python number.  A string key picks a field, not an element,
    and a format spec ({r[0]:.6g}) prints a number alike either way."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node.value)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.format_spec is None
            and isinstance(node.value, ast.Subscript)
            and not (isinstance(node.value.slice, ast.Constant)
                     and isinstance(node.value.slice.value, str))]


def test_no_message_formats_an_indexed_element():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _indexed_elements_in_fstrings(path)]
    assert sites == []


def test_the_guard_sees_an_indexed_element_in_a_message(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def f(z, w, i, spec):\n"
        "    a = f'violation at {z[i]!r}'\n"
        "    b = f'f(z) = {w[i]}, first {z[0]}'\n"
        "    c = f'{spec[\"kind\"]!r} at {z!r}, |w| = {abs(w[i])}, {w[i]:.3g}'\n"
        "    return a + b + c\n")
    lines = [int(s.split(":")[1]) for s in _indexed_elements_in_fstrings(source)]
    assert lines == [2, 3, 3]
