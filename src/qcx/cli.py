"""Scenario-driven command line front end: the scenario schema and commands.

    qcx check|extend|beltrami|compose|fit-sector --scenario FILE
        [--grid-radial N] [--grid-angular N] [--out DIR] [--svg]

Scenarios are JSON documents with a "version": 1 field; unknown keys are
rejected.  The scenario is echoed before any numbers: grid, annulus, times,
fd_step, output and criterion with their defaults filled in, function,
companion and params as written.  With --out, each file is
DIR/<prefix>_<name>.<ext>, printed as csv=... or svg=..., and qcx.output
writes its bytes, the same on every run.  Exit codes: 0 pass, 1 numerical
fail, 2 input/precondition error.
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
from .grids import AnnulusGrid, DiskGrid
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
from .output import write_csv, write_heatmap_svg
from .qcverify import compose_dilatation, stable_beltrami
from .sector import ContainmentError, SectorDomain, companion_from_sector, fit_sector

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


def _text(v, where: str) -> str:
    if not isinstance(v, str):
        raise ScenarioError(f"{where}: expected a string, got {v!r}")
    return v


def _file_prefix(v, where: str) -> str:
    # no path separator (nor a NUL, which no file name holds): files stay in --out
    if not isinstance(v, str) or not v or any(c in v for c in ("/", os.sep, "\0")):
        raise ScenarioError(f"{where}: expected a nonempty file name prefix without "
                            f"a path separator, got {v!r}")
    return v


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
# The function, companion and params are parsed on use, as is which
# criterion the criterion's name picks.
_SCENARIO = {
    "version": (_version, None),
    "function": (None, {"kind": "identity"}),
    "companion": (None, None),
    "criterion": (_text, "gen_becker"),
    "params": (None, {}),
    "grid": {"radial": (_integer, 64), "angular": (_integer, 128),
             "eps": (_number, 1e-3)},
    "annulus": {"radial": (_integer, 64), "angular": (_integer, 128),
                "inner": (_number, 1.001), "outer": (_number, 3.0)},
    "times": {"t_max": (_number, 2.0), "count": (_integer, 21)},
    "fd_step": (_number, 1e-5),
    "output": {"prefix": (_file_prefix, "qcx")},
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
    if args.grid_radial is not None:
        sc.grid["radial"] = args.grid_radial
    if args.grid_angular is not None:
        sc.grid["angular"] = args.grid_angular
    sc.check_ranges()
    return sc


def echo_config(sc: Scenario) -> None:
    print("## resolved-scenario")
    print(json.dumps(sc.resolved(), sort_keys=True, separators=(",", ":")))


def _print_block(title: str, items: dict) -> None:
    print(f"## {title}")
    for k, v in items.items():
        print(f"{k}={_fmt(v)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_out(sc: Scenario, args, name: str, ext: str, write, *data, **options) -> None:
    """write(path, *data, **options) to the path <prefix>_<name>.<ext> in the
    --out directory (made if missing), then print <ext>=<path>."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.output['prefix']}_{name}.{ext}")
    write(path, *data, **options)
    print(f"{ext}={path}")


def cmd_check(sc: Scenario, args) -> int:
    f, companion, params = sc.pieces()
    result = evaluate_criterion(sc.criterion, f, companion, params,
                                sc.disk_grid(), collect=bool(args.out))
    report, rows = result if args.out else (result, None)
    _print_block("criterion-report", report.as_dict())
    if args.out:
        _write_out(sc, args, "check", "csv", write_csv, ["re_z", "im_z", "re_value", "im_value"],
                   rows.view(float))  # each (z, value) row as its four floats
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
    continuous = gap < 1e-6
    validation = validate_chain(chain, DiskGrid(16, 32, sc.grid["eps"]),
                                default_times(*sc.times.values()),
                                dilatation_bound=bound)
    _print_block("extension-report", {
        "construction": chain.construction,
        "continuity_gap": gap,
        "continuity_pass": continuous,
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
        _write_out(sc, args, "extension", "csv", write_csv, ["re_w", "im_w", "re_fhat", "im_fhat"],
                   np.column_stack((pts.real, pts.imag, vals.real, vals.imag)))
    return 0 if (continuous and validation.ok) else 1


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
        pts, mu, size = est.points, est.mu, np.abs(est.mu)
        _write_out(sc, args, "beltrami", "csv", write_csv,
                   ["re_z", "im_z", "re_mu", "im_mu", "abs_mu"],
                   np.column_stack((pts.real, pts.imag, mu.real, mu.imag, size)))
        if args.svg:
            _write_out(sc, args, "beltrami", "svg", write_heatmap_svg, grid.radii(),
                       grid.angles(), size.reshape(grid.n_radial, grid.n_angular),
                       title=f"|mu| of the extension ({chain.construction})")
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
    parser.add_argument("--grid-radial", type=int)
    parser.add_argument("--grid-angular", type=int)
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
            OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
