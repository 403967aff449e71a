"""Scenario-driven command line front end.

    qcx check|extend|beltrami|compose|fit-sector --scenario FILE
        [--grid-radial N] [--grid-angular N] [--out DIR] [--svg]

Scenarios are JSON documents with a "version": 1 field; unknown keys are
rejected.  The scenario is echoed before any numbers: grid, annulus, times,
fd_step, output and criterion with their defaults filled in, function,
companion and params as written.  Outputs are CSV with a header row, comma
separators, LF line endings and 17-significant-digit floats, so repeated
runs are byte-identical.  Exit codes: 0 pass, 1 numerical fail,
2 input/precondition error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .branches import BranchTrackingError
from .criteria import (CriterionParams, PreconditionError, criterion_spec,
                       evaluate_criterion, require_bound, require_chain_companion)
from .grids import AnnulusGrid, DiskGrid, blocks
from .jets import DomainError
from .loewner import (
    ExtensionMap,
    build_chain,
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


def _require_object(obj, where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    _require_object(obj, where)
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


def _coefficients(v, where: str) -> list[complex]:
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{where}: expected a nonempty list of coefficients, got {v!r}")
    return [_cplx(c, where) for c in v]


def _optional(parse):
    """`parse`, letting None (an absent or null field) through."""
    return lambda v, where: None if v is None else parse(v, where)


def _moebius(alpha, beta, gamma, delta, pole) -> CompanionMap:
    """The Moebius companion by its pole or by its coefficients, not both."""
    if pole is None:
        return CompanionMap.from_moebius(MoebiusMap(
            1 if alpha is None else alpha, 0 if beta is None else beta,
            0 if gamma is None else gamma, 1 if delta is None else delta))
    clash = [f"companion.{name}" for name, v in
             (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta))
             if v is not None]
    if clash:
        raise ScenarioError(f"companion.pole excludes {', '.join(clash)}")
    return CompanionMap.from_moebius(MoebiusMap.with_pole(pole))


def _build_kind(spec, kinds: dict, where: str, noun: str, default_kind=None):
    """`spec` built by the row of `kinds` its "kind" names."""
    _require_object(spec, where)
    kind = spec.get("kind", default_kind)
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError(f"{where}: unknown {noun} kind {kind!r}")
    build, fields = kinds[kind]
    values = _parse_fields(spec, {"kind": (None, None), **fields}, where, where + ".")
    del values["kind"]
    try:
        return build(**values)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def build_function(spec: dict, where: str = "function") -> AnalyticMap:
    return _build_kind(spec, _FUNCTIONS, where, "function")


def build_companion(spec: dict | None) -> CompanionMap:
    if spec is None:
        return CompanionMap.identity()
    return _build_kind(spec, _COMPANIONS, "companion", "companion", "identity")


# Each function and companion kind, declared once: kind -> (builder, its
# fields), the fields a table of (parser, default) as in _SCENARIO.  A spec
# holds "kind" and only the fields of its kind; the builder takes them as
# keywords, parsed and defaulted.
_FUNCTIONS = {
    "identity": (IdentityMap, {}),
    "koebe": (KoebeMap, {}),
    "cayley": (CayleyMap, {}),
    "spiral": (SpiralMap, {"lam": (_number, 0.0)}),
    # coefficients are [a2, a3, ...]; a1 = 1 is the class-A normalization
    "polynomial": (lambda coefficients: PolynomialMap([1] + coefficients),
                   {"coefficients": (_coefficients, None)}),
    "scaled": (lambda base, radius: ScaledMap(base, radius),
               {"base": (build_function, None), "radius": (_number, 2.0)}),
}
_COMPANIONS = {
    "identity": (CompanionMap.identity, {}),
    "moebius": (_moebius, {name: (_optional(_cplx), None)
                           for name in ("alpha", "beta", "gamma", "delta", "pole")}),
    "sector": (lambda w0, lambda0, a, normalized:
               companion_from_sector(SectorDomain(w0, lambda0, a), normalized),
               {"w0": (_cplx, -2), "lambda0": (_number, 0.0), "a": (_number, 1.0),
                "normalized": (_flag, True)}),
    "catalog": (lambda extension_dilatation, base, fixes_infinity:
                CompanionMap(base, extension_dilatation, fixes_infinity, "custom"),
                {"extension_dilatation": (_number, None),
                 "base": (build_function, None),
                 "fixes_infinity": (_flag, True)}),
}


# Each params name with its parser.  The criteria read the CriterionParams
# fields among them, compose reads k1 and k2, and fit-sector w0, z0 and R.
_PARAMS = {
    "p": build_function, "k": _number, "k_prime": _number, "lambda0": _number,
    "a": _number, "c": _cplx, "s": _cplx, "c2": _cplx, "gamma": _cplx,
    "delta": _cplx, "w0": _cplx, "z0": _cplx, "R": _number, "k1": _number,
    "k2": _number,
}
_CRITERION_PARAMS = [f.name for f in dataclasses.fields(CriterionParams)]


def build_params(values: dict) -> CriterionParams:
    """The CriterionParams among parsed params (`Scenario.param_values`)."""
    return CriterionParams(**{n: values[n] for n in _CRITERION_PARAMS if n in values})


def _version(v, where: str) -> int:
    if v != SCENARIO_VERSION:
        raise ScenarioError(f"scenario version must be {SCENARIO_VERSION}")
    return SCENARIO_VERSION


# Every scenario field, declared once: name -> (parser, default), or for a
# section a table of its fields in the order its grid or times take them.
# The function, companion, criterion and params are parsed on use.
_SCENARIO = {
    "version": (_version, None),
    "function": (None, {"kind": "identity"}),
    "companion": (None, None),
    "criterion": (None, "gen_becker"),
    "params": (None, {}),
    "grid": {"radial": (_integer, 64), "angular": (_integer, 128),
             "eps": (_number, 1e-3)},
    "annulus": {"radial": (_integer, 64), "angular": (_integer, 128),
                "inner": (_number, 1.001), "outer": (_number, 3.0)},
    "times": {"t_max": (_number, 2.0), "count": (_integer, 21)},
    "fd_step": (_number, 1e-5),
    "output": {"prefix": (lambda v, where: str(v), "qcx")},
}


def _parse_fields(doc, fields: dict, where: str, prefix: str = "") -> dict:
    """`where` (the scenario or a section) read by the table `fields`, which
    rejects unknown fields and fills in defaults; errors name prefix + field."""
    _require_keys(doc, set(fields), where)
    out = {}
    for name, field in fields.items():
        if isinstance(field, dict):
            out[name] = _parse_fields(doc.get(name, {}), field, name, f"{name}.")
        else:
            parse, default = field
            value = doc.get(name, default)
            out[name] = value if parse is None else parse(value, prefix + name)
    return out


class Scenario:
    """A scenario document read by `_SCENARIO`: each top-level name is an
    attribute, a section a dict of its fields."""

    def __init__(self, doc: dict):
        vars(self).update(_parse_fields(doc, _SCENARIO, "scenario"))

    def check_ranges(self) -> None:
        """Reject sizes and steps that the grids, the time samples or the
        stencil cannot use, naming the section or field at fault."""
        for where, build in (("grid", self.disk_grid), ("annulus", self.annulus_grid),
                             ("times", lambda: default_times(*self.times.values()))):
            try:
                build()
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
        if not self.times["t_max"] > 0:
            raise ScenarioError(f"times.t_max must be positive, got {self.times['t_max']!r}")
        if not self.fd_step > 0:
            raise ScenarioError(f"fd_step must be positive, got {self.fd_step!r}")

    def resolved(self) -> dict:
        return {name: getattr(self, name) for name in _SCENARIO}

    def disk_grid(self) -> DiskGrid:
        return DiskGrid(*self.grid.values())

    def annulus_grid(self) -> AnnulusGrid:
        return AnnulusGrid(*self.annulus.values())

    @functools.cached_property
    def param_values(self) -> dict:
        """The params set (not null), each read by its parser in `_PARAMS`."""
        spec = {} if self.params is None else self.params
        _require_keys(spec, set(_PARAMS), "params")
        return {name: parse(spec[name], f"params.{name}")
                for name, parse in _PARAMS.items() if spec.get(name) is not None}

    def pieces(self):
        f = build_function(self.function)
        companion = build_companion(self.companion)
        return f, companion, build_params(self.param_values)


def load_scenario(path: str, args) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    sc = Scenario(doc)
    if args.grid_radial:
        sc.grid["radial"] = args.grid_radial
    if args.grid_angular:
        sc.grid["angular"] = args.grid_angular
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
_keep = _words(255 * (np.arange(4) < np.arange(-16, 21)[:, None]))  # [m + 16]: first m bytes
_LEAD = _words(np.outer(48 + _digit, [0, 0, 0, 1]))
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
del _digit, _d4, _z, _keep, _e, _fixed, _small, _written, _head


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


def _print_block(title: str, items: dict) -> None:
    print(f"## {title}")
    for k, v in items.items():
        print(f"{k}={_fmt(v)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_table(sc: Scenario, args, name: str, header: list[str], *columns) -> None:
    """The columns as the table <prefix>_<name>.csv in the --out directory
    (made if missing), whose path is printed."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.output['prefix']}_{name}.csv")
    write_csv(path, header, np.column_stack(columns))
    print(f"csv={path}")


def cmd_check(sc: Scenario, args) -> int:
    f, companion, params = sc.pieces()
    result = evaluate_criterion(sc.criterion, f, companion, params,
                                sc.disk_grid(), collect=bool(args.out))
    report, rows = result if args.out else (result, None)
    _print_block("criterion-report", report.as_dict())
    if args.out:
        z, v = rows.T
        _write_table(sc, args, "check", ["re_z", "im_z", "re_value", "im_value"],
                     z.real, z.imag, v.real, v.imag)
    return 0 if report.passed else 1


def _chain_and_extension(sc: Scenario):
    """The chain realizing the scenario's criterion, its extension and the
    dilatation bound the criterion reads (`require_bound`), which the chain
    is checked against.  The params pass check's gate, in check's order:
    the bound, then a moebius_* or sector_* row's params and the companion
    its value reads (its chain is built from the companion, so any other
    would extend a different map), and then `build_chain`'s own gate, which
    holds a phi_like* or bazilevic* row to Q(0) = 0."""
    f, companion, params = sc.pieces()
    bound = require_bound(sc.criterion, params)
    require_chain_companion(sc.criterion, companion, params)
    chain = build_chain(criterion_spec(sc.criterion).construction, f, companion, params)
    return chain, ExtensionMap(chain), bound


def cmd_extend(sc: Scenario, args) -> int:
    chain, ext, bound = _chain_and_extension(sc)
    gap = ext.continuity_gap(sc.grid["angular"])
    validation = validate_chain(chain, DiskGrid(16, 32, sc.grid["eps"]),
                                default_times(*sc.times.values()),
                                dilatation_bound=bound)
    _print_block("extension-report", {
        "construction": chain.construction,
        "continuity_gap": gap,
        "continuity_pass": gap < 1e-6,
        "chain_ok": validation.ok,
        "re_p_min": validation.re_p_min,
        "u_margin_min": validation.u_margin_min,
        "growth_max": validation.growth_max,
        "a1_increasing": validation.a1_increasing,
        "fixes_infinity": ext.fixes_infinity,
    })
    for msg in validation.failures:
        print(f"failure={msg}")
    if args.out:
        pts = np.concatenate([
            DiskGrid(max(2, sc.annulus["radial"] // 2), sc.annulus["angular"],
                     0.05).points(),
            sc.annulus_grid().points()])
        vals = ext.on_blocks(pts)
        _write_table(sc, args, "extension", ["re_w", "im_w", "re_fhat", "im_fhat"],
                     pts.real, pts.imag, vals.real, vals.imag)
    return 0 if (gap < 1e-6 and validation.ok) else 1


def cmd_beltrami(sc: Scenario, args) -> int:
    chain, ext, bound = _chain_and_extension(sc)
    grid = sc.annulus_grid()
    est, est_half, stable, delta = stable_beltrami(ext, grid, sc.fd_step)
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
        "bound": bound,
        "passed": passed,
        "note": ROTATION_NOTE if chain.q.label == "sector" else "",
    })
    if args.out:
        pts, mu = est.points, est.mu
        _write_table(sc, args, "beltrami", ["re_z", "im_z", "re_mu", "im_mu", "abs_mu"],
                     pts.real, pts.imag, mu.real, mu.imag, np.abs(mu))
        if args.svg:
            spath = os.path.join(args.out, f"{sc.output['prefix']}_beltrami.svg")
            vals = np.abs(est.mu).reshape(grid.n_radial, grid.n_angular)
            write_heatmap_svg(spath, grid.radii(), grid.angles(), vals,
                              title=f"|mu| of the extension ({chain.construction})")
            print(f"svg={spath}")
    return 0 if passed else 1


def cmd_compose(sc: Scenario, args) -> int:
    values = sc.param_values
    if "k1" not in values or "k2" not in values:
        raise ScenarioError("compose needs params.k1 and params.k2")
    k1, k2 = values["k1"], values["k2"]
    try:
        k = compose_dilatation(k1, k2)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    _print_block("compose-report", {"k1": k1, "k2": k2, "composed": k})
    return 0


def cmd_fit_sector(sc: Scenario, args) -> int:
    f, _companion, _params = sc.pieces()
    values = sc.param_values
    try:
        sector, r_used = fit_sector(f, values.get("w0", -2), values.get("z0", 0),
                                    values.get("R"), sc.disk_grid())
    except ContainmentError as exc:
        print(f"## fit-sector-report\ncontained=false\nerror={exc}")
        return 1
    _print_block("fit-sector-report", {
        "w0_re": sector.w0.real,
        "w0_im": sector.w0.imag,
        "lambda0": sector.lambda0,
        "a": sector.a,
        "R_used": r_used,
        "contained": True,
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--grid-radial", type=int, default=0)
    parser.add_argument("--grid-angular", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--svg", action="store_true")
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
