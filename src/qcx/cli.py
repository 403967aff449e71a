"""Scenario-driven command line front end.

    qcx check|extend|beltrami|compose|fit-sector --scenario FILE
        [--grid-radial N] [--grid-angular N] [--out DIR] [--svg]

Scenarios are JSON documents with a "version": 1 field; unknown keys are
rejected and the fully resolved configuration (defaults materialized) is
echoed before any numbers.  Outputs are CSV with a header row, comma
separators, LF line endings and 17-significant-digit floats, so repeated
runs are byte-identical.  Exit codes: 0 pass, 1 numerical fail,
2 input/precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .branches import BranchTrackingError
from .criteria import CRITERIA, CriterionParams, PreconditionError, evaluate_criterion
from .grids import BLOCK, AnnulusGrid, DiskGrid, blocks
from .jets import DomainError
from .loewner import (
    build_chain,
    build_extension,
    construction_for_criterion,
    default_times,
    validate_chain,
)
from .maps import (
    AnalyticMap,
    CayleyMap,
    CompanionMap,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    ScaledMap,
    SpiralMap,
)
from .qcverify import compose_dilatation, stable_beltrami
from .sector import ContainmentError, SectorDomain, companion_from_sector, fit_sector
from .svg import write_heatmap_svg

SCENARIO_VERSION = 1

ROTATION_NOTE = "rotation_convention=e^(-i*pi*a)"  # stretch-branch pre-factor is a rotation


class ScenarioError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}i"
    return str(x)


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)} in {where}")


def _cplx(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(_number(v, where))
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], where), _number(v[1], where))
    raise ScenarioError(f"{where}: expected number or [re, im] pair, got {v!r}")


def _integer(v, where: str) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{where}: expected an integer, got {v!r}")
    return v


def _number(v, where: str) -> float:
    # int and float compare exactly, so this also rejects ints no float holds
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ScenarioError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _flag(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioError(f"{where}: expected true or false, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

_FUNCTION_KEYS = {"kind", "lam", "coefficients", "radius", "base"}
_COMPANION_KEYS = {"kind", "alpha", "beta", "gamma", "delta", "pole", "w0",
                   "lambda0", "a", "normalized", "extension_dilatation",
                   "fixes_infinity", "base"}
_PARAM_KEYS = {"k", "k_prime", "c", "s", "p", "c2", "gamma", "delta",
               "w0", "lambda0", "a", "z0", "R", "k1", "k2"}
_TOP_KEYS = {"version", "function", "companion", "criterion", "params",
             "grid", "annulus", "times", "fd_step", "output"}


def build_function(spec: dict, where: str = "function") -> AnalyticMap:
    _require_keys(spec, _FUNCTION_KEYS, where)
    kind = spec.get("kind")
    if kind == "identity":
        return IdentityMap()
    if kind == "koebe":
        return KoebeMap()
    if kind == "cayley":
        return CayleyMap()
    if kind == "spiral":
        return SpiralMap(_number(spec.get("lam", 0.0), where + ".lam"))
    if kind == "polynomial":
        coeffs = spec.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ScenarioError(f"{where}: polynomial needs a coefficients list")
        # coefficients are [a2, a3, ...]; a1 = 1 is the class-A normalization
        return PolynomialMap([1] + [_cplx(c, where + ".coefficients") for c in coeffs])
    if kind == "scaled":
        base = spec.get("base")
        if not isinstance(base, dict):
            raise ScenarioError(f"{where}: scaled map needs a base function spec")
        return ScaledMap(build_function(base, where + ".base"),
                         _number(spec.get("radius", 2.0), where + ".radius"))
    raise ScenarioError(f"{where}: unknown function kind {kind!r}")


def build_companion(spec: dict | None) -> CompanionMap:
    if spec is None:
        return CompanionMap.identity()
    _require_keys(spec, _COMPANION_KEYS, "companion")
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return CompanionMap.identity()
    if kind == "moebius":
        if "pole" in spec:
            return CompanionMap.from_moebius(MoebiusMap.with_pole(_cplx(spec["pole"], "companion.pole")))
        m = MoebiusMap(
            _cplx(spec.get("alpha", 1), "companion.alpha"),
            _cplx(spec.get("beta", 0), "companion.beta"),
            _cplx(spec.get("gamma", 0), "companion.gamma"),
            _cplx(spec.get("delta", 1), "companion.delta"),
        )
        return CompanionMap.from_moebius(m)
    if kind == "sector":
        sector = SectorDomain(
            _cplx(spec.get("w0", -2), "companion.w0"),
            _number(spec.get("lambda0", 0.0), "companion.lambda0"),
            _number(spec.get("a", 1.0), "companion.a"),
        )
        return companion_from_sector(sector, _flag(spec.get("normalized", True),
                                                   "companion.normalized"))
    if kind == "catalog":
        if "extension_dilatation" not in spec:
            raise ScenarioError("catalog companion needs an explicit extension_dilatation")
        base = spec.get("base")
        if not isinstance(base, dict):
            raise ScenarioError("catalog companion needs a base function spec")
        return CompanionMap.from_map(
            build_function(base, "companion.base"),
            _number(spec["extension_dilatation"], "companion.extension_dilatation"),
            _flag(spec.get("fixes_infinity", True), "companion.fixes_infinity"),
        )
    raise ScenarioError(f"unknown companion kind {kind!r}")


def build_params(spec: dict | None) -> CriterionParams:
    if spec is None:
        return CriterionParams()
    _require_keys(spec, _PARAM_KEYS, "params")
    p_map = None
    if "p" in spec and spec["p"] is not None:
        p_map = build_function(spec["p"], "params.p")
    kw = {}
    for name in ("k", "k_prime", "lambda0", "a"):
        if spec.get(name) is not None:
            kw[name] = _number(spec[name], f"params.{name}")
    for name in ("c", "s", "c2", "gamma", "delta", "w0"):
        if spec.get(name) is not None:
            kw[name] = _cplx(spec[name], f"params.{name}")
    try:
        return CriterionParams(p=p_map, **kw)
    except PreconditionError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad params: {exc}") from exc


class Scenario:
    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        _require_keys(doc, _TOP_KEYS, "scenario")
        if doc.get("version") != SCENARIO_VERSION:
            raise ScenarioError(f"scenario version must be {SCENARIO_VERSION}")
        self.doc = doc
        self.function_spec = doc.get("function", {"kind": "identity"})
        self.companion_spec = doc.get("companion")
        self.criterion = doc.get("criterion", "gen_becker")
        self.params_spec = doc.get("params", {})
        grid = dict(doc.get("grid", {}))
        _require_keys(grid, {"radial", "angular", "eps"}, "grid")
        self.grid_radial = _integer(grid.get("radial", 64), "grid.radial")
        self.grid_angular = _integer(grid.get("angular", 128), "grid.angular")
        self.grid_eps = _number(grid.get("eps", 1e-3), "grid.eps")
        ann = dict(doc.get("annulus", {}))
        _require_keys(ann, {"radial", "angular", "inner", "outer"}, "annulus")
        self.ann_radial = _integer(ann.get("radial", 64), "annulus.radial")
        self.ann_angular = _integer(ann.get("angular", 128), "annulus.angular")
        self.ann_inner = _number(ann.get("inner", 1.001), "annulus.inner")
        self.ann_outer = _number(ann.get("outer", 3.0), "annulus.outer")
        times = dict(doc.get("times", {}))
        _require_keys(times, {"t_max", "count"}, "times")
        self.t_max = _number(times.get("t_max", 2.0), "times.t_max")
        self.t_count = _integer(times.get("count", 21), "times.count")
        self.fd_step = _number(doc.get("fd_step", 1e-5), "fd_step")
        out = dict(doc.get("output", {}))
        _require_keys(out, {"prefix"}, "output")
        self.prefix = str(out.get("prefix", "qcx"))

    def check_ranges(self) -> None:
        """Reject sizes and steps that the grids, the time samples or the
        stencil cannot use, naming the section or field at fault."""
        for where, build in (("grid", self.disk_grid), ("annulus", self.annulus_grid),
                             ("times", lambda: default_times(self.t_max, self.t_count))):
            try:
                build()
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
        if not self.t_max > 0:
            raise ScenarioError(f"times.t_max must be positive, got {self.t_max!r}")
        if not self.fd_step > 0:
            raise ScenarioError(f"fd_step must be positive, got {self.fd_step!r}")

    def resolved(self) -> dict:
        return {
            "version": SCENARIO_VERSION,
            "function": self.function_spec,
            "companion": self.companion_spec,
            "criterion": self.criterion,
            "params": self.params_spec,
            "grid": {"radial": self.grid_radial, "angular": self.grid_angular,
                     "eps": self.grid_eps},
            "annulus": {"radial": self.ann_radial, "angular": self.ann_angular,
                        "inner": self.ann_inner, "outer": self.ann_outer},
            "times": {"t_max": self.t_max, "count": self.t_count},
            "fd_step": self.fd_step,
            "output": {"prefix": self.prefix},
        }

    def disk_grid(self) -> DiskGrid:
        return DiskGrid(self.grid_radial, self.grid_angular, self.grid_eps)

    def annulus_grid(self) -> AnnulusGrid:
        return AnnulusGrid(self.ann_radial, self.ann_angular, self.ann_inner,
                           self.ann_outer)

    def pieces(self):
        f = build_function(self.function_spec)
        companion = build_companion(self.companion_spec)
        params = build_params(self.params_spec)
        return f, companion, params


def load_scenario(path: str, args) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    sc = Scenario(doc)
    if args.grid_radial:
        sc.grid_radial = args.grid_radial
    if args.grid_angular:
        sc.grid_angular = args.grid_angular
    sc.check_ranges()
    return sc


def echo_config(sc: Scenario) -> None:
    print("## resolved-scenario")
    print(json.dumps(sc.resolved(), sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


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
_digit = np.arange(10)
_d4 = np.empty((10, 10, 10, 10, 4), np.uint8)  # "%04d" % g, for g < 10**4
_d4[..., 0] = 48 + _digit[:, None, None, None]
_d4[..., 1] = 48 + _digit[:, None, None]
_d4[..., 2] = 48 + _digit[:, None]
_d4[..., 3] = 48 + _digit
_DIGITS4 = _words(_d4.reshape(-1, 4))
_z = (_digit == 0).astype(np.int64)  # trailing zeros of "%04d" % g
_TRAILING0 = (_z + (_z[:, None] & _z) + (_z[:, None, None] & _z[:, None] & _z)
              + (_z[:, None, None, None] & _z[:, None, None] & _z[:, None] & _z)).ravel()
_KEEP = _words(255 * (np.arange(4) < np.arange(-16, 21)[:, None]))  # [m + 16]: first m bytes
_LEAD = _words(np.outer(48 + _digit, [0, 0, 0, 1]))
_e = np.arange(_E0, 32)
_fixed = (-4 <= _e) & (_e < 17)
_small = _fixed & (_e < 0)
_HEAD = np.where(_small, 17, np.where(_fixed, _e + 1, 1))  # digits before the point
_MIN_DIGITS = np.where(_fixed & ~_small, _e + 1, 1)  # the integer digits, zeros or not
_PREFIX0 = _words(np.stack([0 * _e, 0 * _e, 48 * _small, 46 * _small], 1))
_PREFIX1 = _words(np.stack([48 * (_small & (_e <= -2)), 48 * (_small & (_e <= -3)),
                            48 * (_small & (_e <= -4)), 0 * _e], 1))
_EXPONENT = _words(np.stack([101 * ~_fixed, np.where(_e < 0, 45, 43) * ~_fixed,
                             (48 + abs(_e) // 10) * ~_fixed, (48 + abs(_e) % 10) * ~_fixed], 1))
_POINT, _SIGN, _COMMA, _NEWLINE = _words([[0, 0, 0, 46], [0, 45, 0, 0], [44, 0, 0, 0], [10, 0, 0, 0]])
del _digit, _d4, _z, _e, _fixed, _small


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


def _format_block(x: np.ndarray, seps: np.ndarray) -> bytes:
    """The "%.17g" texts of the floats x, each preceded by its separator word
    in seps, as one byte string.

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
    still out of range is left to "%.17g" too, as are 0, -0, nan, +-inf and
    |x| outside [1e-30, 1e30].  The digits are then laid out as "%.17g"
    lays them out: fixed notation for -4 <= E < 17, exponent notation
    otherwise, trailing zeros of the fraction and a bare point dropped, the
    sign taken from the sign bit.
    """
    n = len(x)
    a = np.abs(x)
    ok = (a >= 1e-30) & (a <= 1e30)  # false on 0, nan and inf
    a[~ok] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, 16 - E)
    off = (F < 10 ** 16).astype(np.int64) - (F >= 10 ** 17)
    redo = np.flatnonzero(off)
    if len(redo):
        E[redo] -= off[redo]
        F[redo], frac[redo] = _scaled(a[redo], 16 - E[redo])
    N = F + (frac >= 0.5)
    carry = np.flatnonzero(N == 10 ** 17)
    N[carry] = 10 ** 16
    E[carry] += 1
    ok &= (np.abs(frac - 0.5) > 1e-6) & (N >= 10 ** 16) & (N < 10 ** 17)

    # N = d0 g1 g2 g3 g4 in groups of four digits
    d0 = N // 10 ** 16
    low = N - d0 * 10 ** 16
    g12 = low // 10 ** 8
    g34 = low - g12 * 10 ** 8
    g1 = g12 // 10 ** 4
    g3 = g34 // 10 ** 4
    groups = (g1, g12 - g1 * 10 ** 4, g3, g34 - g3 * 10 ** 4)
    t1, t2, t3, t4 = (_TRAILING0.take(g) for g in groups)
    zeros = t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1))
    e = E - _E0
    digits = np.maximum(17 - zeros, _MIN_DIGITS.take(e))  # digits written
    head = np.minimum(_HEAD.take(e), digits)  # those before the point

    out = np.empty((n, 12), np.uint32)
    out[:, 0] = seps | np.signbit(x) * _SIGN | _PREFIX0.take(e)
    out[:, 1] = _PREFIX1.take(e) | _LEAD.take(d0)
    # the m-th group holds digits 4m+1 .. 4m+4; keep the first (head - 4m - 1)
    # bytes before the point and up to (digits - 4m - 1) in all
    before, upto = head + 15, digits + 15
    for m, g in enumerate(groups):
        w = _DIGITS4.take(g)
        out[:, 2 + m] = w_before = w & _KEEP.take(before - 4 * m)
        out[:, 7 + m] = (w & _KEEP.take(upto - 4 * m)) ^ w_before
    out[:, 6] = (digits > head) * _POINT
    out[:, 11] = _EXPONENT.take(e)

    bad = np.flatnonzero(~ok)
    if len(bad):
        text = np.array([b"%.17g" % v for v in x[bad].tolist()], "S24")
        fields = out.view(np.uint8)
        fields[bad, 1:] = 0
        fields[bad, 1:25] = text.view(np.uint8).reshape(len(bad), 24)
    flat = out.view(np.uint8).ravel()
    return flat[flat != 0].tobytes()


def write_csv(path: str, header: list[str], rows) -> None:
    """A table of floats (a 2-D array, or rows that make one) with a header
    row, comma separators and LF line endings.  Every float reads as
    "%.17g" % x would print it, byte for byte, but is formatted on numpy
    arrays a block of at most BLOCK rows at a time, one write per block."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    seps = np.full((BLOCK, len(header)), _COMMA)
    seps[:, 0] = _NEWLINE
    seps = seps.ravel()
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii"))
        for block in blocks(rows):
            x = block.ravel()
            fh.write(_format_block(x, seps[:len(x)]))
        fh.write(b"\n")


def _print_block(title: str, items: dict) -> None:
    print(f"## {title}")
    for k, v in items.items():
        print(f"{k}={_fmt(v)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(sc: Scenario, args) -> int:
    f, companion, params = sc.pieces()
    report, rows = evaluate_criterion(sc.criterion, f, companion, params,
                                      sc.disk_grid(), collect=True)
    _print_block("criterion-report", report.as_dict())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{sc.prefix}_check.csv")
        z, v = rows.T
        write_csv(path, ["re_z", "im_z", "re_value", "im_value"],
                  np.column_stack([z.real, z.imag, v.real, v.imag]))
        print(f"csv={path}")
    return 0 if report.passed else 1


def _chain_and_extension(sc: Scenario):
    """The chain realizing the scenario's criterion, its extension and the
    dilatation bound (k_prime, else k) it is checked against.  A moebius_* or
    sector_* criterion needs the matching companion: its chain is built from
    the companion, so any other would extend a different map."""
    f, companion, params = sc.pieces()
    construction = construction_for_criterion(sc.criterion)
    needed = CRITERIA[sc.criterion].companion
    if needed is not None and companion.label != needed:
        raise PreconditionError(
            f"{sc.criterion} needs a {needed} companion to build its chain "
            f"(the scenario's companion is {companion.label!r})"
        )
    chain = build_chain(construction, f, companion, params)
    return chain, build_extension(chain), params.bound


def cmd_extend(sc: Scenario, args) -> int:
    chain, ext, bound = _chain_and_extension(sc)
    gap = ext.continuity_gap(sc.grid_angular)
    validation = validate_chain(chain, DiskGrid(16, 32, sc.grid_eps),
                                default_times(sc.t_max, sc.t_count),
                                dilatation_bound=bound)
    _print_block("extension-report", {
        "construction": chain.construction,
        "continuity_gap": gap,
        "continuity_pass": gap < 1e-6,
        "chain_ok": validation.ok,
        "re_p_min": validation.re_p_min,
        "u_margin_min": validation.u_margin_min if validation.u_margin_min is not None else "",
        "growth_max": validation.growth_max,
        "a1_increasing": validation.a1_increasing,
        "fixes_infinity": ext.fixes_infinity,
    })
    for msg in validation.failures:
        print(f"failure={msg}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        pts = np.concatenate([
            DiskGrid(max(2, sc.ann_radial // 2), sc.ann_angular, 0.05).points(),
            sc.annulus_grid().points()])
        path = os.path.join(args.out, f"{sc.prefix}_extension.csv")
        vals = ext.on_blocks(pts)
        write_csv(path, ["re_w", "im_w", "re_fhat", "im_fhat"],
                  np.column_stack([pts.real, pts.imag, vals.real, vals.imag]))
        print(f"csv={path}")
    return 0 if (gap < 1e-6 and validation.ok) else 1


def cmd_beltrami(sc: Scenario, args) -> int:
    chain, ext, bound = _chain_and_extension(sc)
    grid = sc.annulus_grid()
    h = sc.fd_step
    if grid.inner < 1 + 3 * h:
        raise PreconditionError("annulus inner radius must clear the 3h guard band")
    est, est_half, stable, delta = stable_beltrami(ext, grid, h)
    passed = est.sup_abs_mu < 1 and stable
    if bound is not None:
        passed = passed and est.sup_abs_mu <= bound + 2e-3
    _print_block("beltrami-report", {
        "sup_abs_mu": est.sup_abs_mu,
        "max_dilatation_K": est.K,
        "worst_re": est.worst_point.real,
        "worst_im": est.worst_point.imag,
        "h": est.h,
        "halved_sup": est_half.sup_abs_mu,
        "step_stable": stable,
        "step_delta": delta,
        "flagged_samples": len(est.flagged),
        "bound": bound if bound is not None else "",
        "passed": passed,
        "note": ROTATION_NOTE if chain.q.label == "sector" else "",
    })
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{sc.prefix}_beltrami.csv")
        pts, mu = est.points, est.mu
        write_csv(path, ["re_z", "im_z", "re_mu", "im_mu", "abs_mu"],
                  np.column_stack([pts.real, pts.imag, mu.real, mu.imag, np.abs(mu)]))
        print(f"csv={path}")
        if args.svg:
            spath = os.path.join(args.out, f"{sc.prefix}_beltrami.svg")
            vals = np.abs(est.mu).reshape(grid.n_radial, grid.n_angular)
            write_heatmap_svg(spath, grid.radii(), grid.angles(), vals,
                              title=f"|mu| of the extension ({chain.construction})")
            print(f"svg={spath}")
    return 0 if passed else 1


def cmd_compose(sc: Scenario, args) -> int:
    spec = sc.params_spec or {}
    if "k1" not in spec or "k2" not in spec:
        raise ScenarioError("compose needs params.k1 and params.k2")
    k1, k2 = _number(spec["k1"], "params.k1"), _number(spec["k2"], "params.k2")
    try:
        k = compose_dilatation(k1, k2)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    _print_block("compose-report", {"k1": k1, "k2": k2, "composed": k})
    return 0


def cmd_fit_sector(sc: Scenario, args) -> int:
    f, _companion, _params = sc.pieces()
    spec = sc.params_spec or {}
    w0 = _cplx(spec.get("w0", -2), "params.w0")
    z0 = _cplx(spec.get("z0", 0), "params.z0")
    radius = _number(spec["R"], "params.R") if spec.get("R") is not None else None
    try:
        sector, r_used = fit_sector(f, w0, z0, radius, sc.disk_grid())
        contained = True
    except ContainmentError as exc:
        print(f"## fit-sector-report\ncontained=false\nerror={exc}")
        return 1
    _print_block("fit-sector-report", {
        "w0_re": sector.w0.real,
        "w0_im": sector.w0.imag,
        "lambda0": sector.lambda0,
        "a": sector.a,
        "R_used": r_used,
        "contained": contained,
        "note": ROTATION_NOTE,
    })
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "check": cmd_check,
    "extend": cmd_extend,
    "beltrami": cmd_beltrami,
    "compose": cmd_compose,
    "fit-sector": cmd_fit_sector,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(prog="qcx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--grid-radial", type=int, default=0)
        p.add_argument("--grid-angular", type=int, default=0)
        p.add_argument("--out", default="")
        p.add_argument("--svg", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario, args)
        echo_config(sc)
        return _COMMANDS[args.command](sc, args)
    except (ScenarioError, PreconditionError, DomainError, BranchTrackingError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
