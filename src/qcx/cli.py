"""Scenario-driven command line front end.

    qcx check|extend|beltrami|compose|fit-sector --scenario FILE
        [--grid-radial N] [--grid-angular N] [--out DIR] [--svg]

Scenarios are JSON documents with a "version": 1 field; unknown keys are
rejected and the fully resolved configuration (defaults materialized) is
echoed before any numbers.  Outputs are CSV with a header row, comma
separators, LF line endings and 17-significant-digit floats, so repeated
runs are byte-identical.  Exit codes: 0 pass, 1 numerical fail,
2 input/precondition error.  QCX_THREADS caps internal parallelism.
"""

from __future__ import annotations

import argparse
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
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ScenarioError(f"{where}: expected number or [re, im] pair, got {v!r}")


def _cplx_json(z: complex) -> list[float]:
    return [z.real, z.imag]


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
        return SpiralMap(float(spec.get("lam", 0.0)))
    if kind == "polynomial":
        coeffs = spec.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ScenarioError(f"{where}: polynomial needs a coefficients list")
        # coefficients are [a2, a3, ...]; a1 = 1 is the class-A normalization
        return PolynomialMap([1] + [_cplx(c, where) for c in coeffs])
    if kind == "scaled":
        base = spec.get("base")
        if not isinstance(base, dict):
            raise ScenarioError(f"{where}: scaled map needs a base function spec")
        return ScaledMap(build_function(base, where + ".base"), float(spec.get("radius", 2.0)))
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
            float(spec.get("lambda0", 0.0)),
            float(spec.get("a", 1.0)),
        )
        return companion_from_sector(sector, bool(spec.get("normalized", True)))
    if kind == "catalog":
        if "extension_dilatation" not in spec:
            raise ScenarioError("catalog companion needs an explicit extension_dilatation")
        base = spec.get("base")
        if not isinstance(base, dict):
            raise ScenarioError("catalog companion needs a base function spec")
        return CompanionMap.from_map(
            build_function(base, "companion.base"),
            float(spec["extension_dilatation"]),
            bool(spec.get("fixes_infinity", True)),
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
            kw[name] = float(spec[name])
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
        self.grid_radial = int(grid.get("radial", 64))
        self.grid_angular = int(grid.get("angular", 128))
        self.grid_eps = float(grid.get("eps", 1e-3))
        ann = dict(doc.get("annulus", {}))
        _require_keys(ann, {"radial", "angular", "inner", "outer"}, "annulus")
        self.ann_radial = int(ann.get("radial", 64))
        self.ann_angular = int(ann.get("angular", 128))
        self.ann_inner = float(ann.get("inner", 1.001))
        self.ann_outer = float(ann.get("outer", 3.0))
        times = dict(doc.get("times", {}))
        _require_keys(times, {"t_max", "count"}, "times")
        self.t_max = float(times.get("t_max", 2.0))
        self.t_count = int(times.get("count", 21))
        self.fd_step = float(doc.get("fd_step", 1e-5))
        out = dict(doc.get("output", {}))
        _require_keys(out, {"prefix"}, "output")
        self.prefix = str(out.get("prefix", "qcx"))

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
    return sc


def echo_config(sc: Scenario) -> None:
    print("## resolved-scenario")
    print(json.dumps(sc.resolved(), sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def write_csv(path: str, header: list[str], rows) -> None:
    """A table of floats (a 2-D array, or rows that make one) at 17
    significant digits, formatted a few rows at a time."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks(rows, BLOCK // 4):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
    k1, k2 = float(spec["k1"]), float(spec["k2"])
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
    radius = float(spec["R"]) if spec.get("R") is not None else None
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


def make_parser() -> argparse.ArgumentParser:
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
