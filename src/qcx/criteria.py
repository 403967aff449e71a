"""Pointwise criterion functionals and their grid sup-estimation.

Each sufficient condition is exposed twice: as a pointwise functional
(returning the complex criterion value at one z, or elementwise at a 1-D
array of points) and as a row of the criterion table `CRITERIA`, which
`evaluate_criterion` looks up and hands to `sup_over_grid`: that scores a
disk grid block by block, applies one local refinement pass around the
worst sample, and emits a CriterionReport.

A reported pass means "numerically passes on this grid"; it is evidence,
not a proof, since the supremum may be attained only in the limit |z| -> 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .branches import BranchLattice, ratio_branch, tracked_log, tracked_ratio_log
from .grids import DiskGrid, blocks
from .jets import lib, piecewise
from .maps import AnalyticMap, CompanionMap, IdentityMap
from .parallel import ordered_map
from .udisk import u_disk_margin, u_disk_ratio
from .qcverify import compose_dilatation

_INF = float("inf")


class PreconditionError(ValueError):
    """A criterion's hypothesis failed before any grid scan ran."""


# ---------------------------------------------------------------------------
# parameters and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionParams:
    """Free parameters of the criteria; only the relevant subset is read.

    k        target dilatation class, in [0, 1)
    k_prime  criterion bound, in [0, k]
    c        constant multiplying |z|^2 in the Becker-type bound, |c| <= k_prime
    s        exponent alpha + i*beta with Re s > 0 (Bazilevic-type)
    p        starlike comparison map with p(0) = 0, p'(0) = 1
    c2       omitted value for the Moebius specialization, not in f(D)
    gamma, delta   Moebius derivative-condition coefficients, gamma != 0
    w0, lambda0, a sector vertex, initial ray (units of pi), opening (units of pi)
    """

    k: float | None = None
    k_prime: float | None = None
    c: complex = 0j
    s: complex = 1 + 0j
    p: AnalyticMap | None = None
    c2: complex | None = None
    gamma: complex | None = None
    delta: complex | None = None
    w0: complex | None = None
    lambda0: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.k is not None and not 0 <= self.k < 1:
            raise PreconditionError("k must lie in [0, 1)")
        if self.k_prime is not None:
            if not 0 <= self.k_prime < 1:
                raise PreconditionError("k_prime must lie in [0, 1)")
            if self.k is not None and self.k_prime > self.k + 1e-15:
                raise PreconditionError("k_prime must not exceed k")
            if abs(self.c) > self.k_prime + 1e-15:
                raise PreconditionError("|c| must not exceed k_prime")
        if self.s.real <= 0:
            raise PreconditionError("Re s must be positive")
        if self.a is not None and not 0 < self.a < 2:
            raise PreconditionError("sector opening a must lie in (0, 2)")

    @property
    def bound(self) -> float | None:
        """The criterion bound k_prime, falling back to k."""
        return self.k if self.k_prime is None else self.k_prime


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one grid scan of a criterion functional."""

    criterion: str
    sup_value: float
    threshold: float
    strict: bool
    passed: bool
    margin: float
    worst_point: complex
    samples: int
    smallest_bound: float | None = None
    concluded_dilatation: float | None = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "passed": self.passed,
            "sup_value": self.sup_value,
            "threshold": self.threshold,
            "strict": self.strict,
            "margin": self.margin,
            "worst_re": self.worst_point.real,
            "worst_im": self.worst_point.imag,
            "samples": self.samples,
            "smallest_bound": self.smallest_bound,
            "concluded_dilatation": self.concluded_dilatation,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# pointwise functionals: one formula for a point or, elementwise, a 1-D array
# ---------------------------------------------------------------------------

_INF_Z = complex(_INF, 0)
# a decorator (a `with` block takes a fresh np.errstate): evaluation is
# quiet, since an inf or an overflow is scored, not warned about
_quiet = np.errstate(all="ignore")


def _finite_where(ok, formula, *args):
    """formula(*args) where `ok` holds and complex inf elsewhere: the value a
    criterion takes where one of its denominators vanishes.  `ok` is a bool
    for a point, a mask for an array; on an array the formula sees only the
    points where `ok` holds (each array argument cut to them)."""
    if type(ok) is not np.ndarray:
        return formula(*args) if ok else _INF_Z
    if ok.all():
        return formula(*args)
    out = np.full(ok.shape, _INF_Z)
    out[ok] = formula(*(a[ok] if type(a) is np.ndarray else a for a in args))
    return out


def _becker(c: complex, z: complex, bracket: complex) -> complex:
    """c|z|^2 + (1-|z|^2) * bracket, the shape of every Becker-type value."""
    r2 = abs(z) ** 2
    return c * r2 + (1 - r2) * bracket


def _phi_at(phi, w: complex) -> complex:
    """Phi(w) for either a direct analytic map or a companion's Q/Q' view."""
    if isinstance(phi, CompanionMap):
        return phi.phi(w)
    return phi.jet(w).value


def _phi_deriv_origin(phi) -> complex:
    if isinstance(phi, CompanionMap):
        return phi.phi_deriv(0j)
    return phi.jet(0j).d1


@_quiet
def phi_like_value(f: AnalyticMap, phi, z: complex) -> complex:
    """z*f'(z)/Phi(f(z)); at z = 0 the limit f'(0)/Phi'(0).

    `phi` is either an AnalyticMap used directly as Phi, or a CompanionMap
    whose view Phi = Q/Q' is used.  Positivity of the real part on the disk
    is the phi-like (univalence) condition; spiral-likeness is the special
    case Phi(w) = e^{i*lam} * w.
    """

    def origin(z):
        d = _phi_deriv_origin(phi)
        return _finite_where(d != 0, lambda d1: d1 / d, f.jet(z).d1)

    def inside(z):
        jf = f.jet(z)
        den = _phi_at(phi, jf.value)
        return _finite_where(den != 0, lambda z, d1, den: z * d1 / den,
                             z, jf.d1, den)

    return piecewise(z == 0, origin, inside, z)


@_quiet
def gen_becker_value(f: AnalyticMap, q: CompanionMap, c: complex, z: complex) -> complex:
    """c|z|^2 + (1-|z|^2) * { z f''/f' + z f' * Omega(f(z)) } with Omega = Q''/Q'."""
    jf = f.jet(z)
    jq = q.jet(jf.value)
    return _finite_where(
        (jf.d1 != 0) & (jq.d1 != 0),
        lambda z, d1, d2, q1, q2: _becker(c, z, z * d2 / d1 + z * d1 * (q2 / q1)),
        z, jf.d1, jf.d2, jq.d1, jq.d2)


@_quiet
def nw_value(f: AnalyticMap, q: CompanionMap, z: complex) -> complex:
    """f'(z) * Q'(f(z)): the derivative condition tested against U(k')."""
    jf = f.jet(z)
    return jf.d1 * q.jet(jf.value).d1


def _bazilevic_branch(f: AnalyticMap, psi):
    """The log of the ratio a Bazilevic value raises to s - 1: G(w)/w with
    G = Q o f when `psi` is a companion Q, else G = f.  With G = f (a direct
    Psi, or the identity companion) it is `ratio_branch(f)`, in closed form
    when f's ratio factors; G = Q o f of any other Q keeps a lattice."""
    if isinstance(psi, CompanionMap) and not isinstance(psi.base, IdentityMap):
        jf0 = f.jet(0j)
        return BranchLattice(lambda w: psi.jet(f.jet(w).value).value / w,
                             cmath.log(psi.jet(jf0.value).d1 * jf0.d1))
    return ratio_branch(f)


def _bazilevic_from_logs(f: AnalyticMap, psi, s: complex, z: complex,
                         lg: complex, lp: complex) -> complex:
    """The Bazilevic value at z given the logs of its two ratios."""
    jf = f.jet(z)
    power = lib(lg).cexp((s - 1) * lg - s.real * lp)
    if isinstance(psi, CompanionMap):
        return psi.jet(jf.value).d1 * jf.d1 * power
    return jf.d1 * power * psi.jet(jf.value).value


def gen_bazilevic_value(f: AnalyticMap, psi, s: complex, p: AnalyticMap,
                        z: complex) -> complex:
    """f'(z) (f/z)^{s-1} / (p/z)^{alpha} * Psi(f(z)), branch-tracked from 0.

    `psi` is either an AnalyticMap used directly as Psi, or a CompanionMap Q,
    in which case Psi(w) = (Q(w)/w)^{s-1} Q'(w) and the whole product is
    evaluated as (Q(f)/z)^{s-1} * (Q o f)'(z) / (p/z)^{alpha} with a single
    tracked branch.  Each call tracks both logs from the origin with
    `tracked_log`, at one point: the per-point oracle of the criterion scan,
    which takes both logs from `_bazilevic_branch` and `ratio_branch`.
    """
    g = _bazilevic_branch(f, psi)
    if z == 0:
        return _bazilevic_from_logs(f, psi, s, z, g.anchor, 0j)
    return _bazilevic_from_logs(f, psi, s, z, tracked_log(g.fn, z, g.anchor),
                                tracked_ratio_log(p, z))


@_quiet
def moebius_becker_value(f: AnalyticMap, c1: complex, c2: complex, z: complex) -> complex:
    """c1|z|^2 + (1-|z|^2) * { z f''/f' - 2 z f'/(f - c2) }."""
    jf = f.jet(z)
    return _finite_where(
        (jf.d1 != 0) & (jf.value != c2),
        lambda z, v, d1, d2: _becker(c1, z, z * d2 / d1 - 2 * z * d1 / (v - c2)),
        z, jf.value, jf.d1, jf.d2)


@_quiet
def moebius_nw_value(f: AnalyticMap, gamma: complex, delta: complex, z: complex) -> complex:
    """f'(z)/(gamma*f(z) + delta)^2, tested against U(k)."""
    jf = f.jet(z)
    den = gamma * jf.value + delta
    return _finite_where(den != 0, lambda d1, den: d1 / (den * den), jf.d1, den)


@_quiet
def sector_becker_value(f: AnalyticMap, c: complex, w0: complex, a: float,
                        z: complex) -> complex:
    """c|z|^2 + (1-|z|^2) * { z f''/f' + (1/a - 1) z f'/(f - w0) }."""
    jf = f.jet(z)
    return _finite_where(
        (jf.d1 != 0) & (jf.value != w0),
        lambda z, v, d1, d2: _becker(
            c, z, z * d2 / d1 + (1 / a - 1) * z * d1 / (v - w0)),
        z, jf.value, jf.d1, jf.d2)


def sector_nw_value(f: AnalyticMap, w0: complex, a: float, z: complex) -> complex:
    """f'(z) * (1 - f(z)/w0)^{1/a - 1}, branch tracked along [0, z] (one
    point; the criterion scan shares the branch through a BranchLattice)."""
    jf = f.jet(z)
    expo = 1 / a - 1
    if z == 0:
        return jf.d1
    lg = tracked_log(lambda w: 1 - f.jet(w).value / w0, z, 0j)
    return jf.d1 * cmath.exp(expo * lg)


# ---------------------------------------------------------------------------
# grid scan: one scan / refine / report core
# ---------------------------------------------------------------------------


def _refined_neighborhood(grid: DiskGrid, worst: complex) -> np.ndarray:
    """A 9x9 polar patch around the worst sample, clamped to the grid disk."""
    radii = grid.radii()
    r = abs(worst)
    theta = math.atan2(worst.imag, worst.real)
    idx = int(np.argmin(np.abs(radii - r)))
    dr_up = radii[min(idx + 1, len(radii) - 1)] - radii[idx]
    dr_dn = radii[idx] - radii[max(idx - 1, 0)]
    dr = max(dr_up, dr_dn, grid.eps * 0.5)
    dtheta = 2 * math.pi / grid.n_angular
    rs = np.clip(np.linspace(r - dr, r + dr, 9), 0.0, grid.max_radius)
    ts = np.linspace(theta - dtheta, theta + dtheta, 9)
    return (rs[:, None] * np.exp(1j * ts[None, :])).ravel()


def sup_over_grid(value_fn: Callable[[np.ndarray], np.ndarray], grid: DiskGrid,
                  threshold: float, *,
                  score: Callable[[np.ndarray], np.ndarray] = np.asarray,
                  ratio: Callable[[np.ndarray], np.ndarray] | None = None,
                  strict: bool = False, criterion: str = "",
                  rows: list | None = None) -> CriterionReport:
    """Deterministic sup scan with one local refinement pass.

    `value_fn` is elementwise on a 1-D complex array: the scan hands it the
    grid a block of points at a time (`grids.blocks`), then the refinement
    patch as one more block, and a scalar result stands for a constant
    block.  `score` turns a block of values into real scores (by default the
    values are the scores).  The worst point is the first maximum in input
    order.  The criterion passes when the final sup is <= threshold (or
    < threshold when `strict`); a non-finite score fails the scan at the
    first offending point in input order.  With `ratio`, smallest_bound is
    the sup of ratio(values): None when the grid pass fails, the grid pass's
    alone when the refinement pass fails.  A `rows` list receives every
    scanned block as an (n, 2) complex array of (z, value) rows.
    """

    def scan(points):
        parts = blocks(points)
        values = [np.broadcast_to(v, z.shape)
                  for z, v in zip(parts, ordered_map(value_fn, parts))]
        if rows is not None:
            rows.extend(np.column_stack([z, v]) for z, v in zip(parts, values))
        sup, worst, bound = -_INF, 0j, -_INF
        for z, v in zip(parts, values):
            sc = score(v)
            bad = ~np.isfinite(sc)
            if bad.any():
                return False, _INF, z[np.argmax(bad)], _INF
            i = int(np.argmax(sc))
            if sc[i] > sup:
                sup, worst = sc[i], z[i]
            if ratio is not None:
                bound = max(bound, np.max(ratio(v)))
        return True, sup, worst, bound

    points = grid.points()
    with np.errstate(all="ignore"):
        ok, sup, worst, bound = scan(points)
        n = len(points)
        if ok:
            patch = _refined_neighborhood(grid, worst)
            ok, sup2, worst2, bound2 = scan(patch)
            n += len(patch)
            if not ok:
                sup, worst = _INF, worst2
            else:
                if sup2 > sup:
                    sup, worst = sup2, worst2
                bound = max(bound, bound2)
    sup = float(sup)
    return CriterionReport(
        criterion=criterion,
        sup_value=sup,
        threshold=float(threshold),
        strict=strict,
        passed=bool(ok and (sup < threshold if strict else sup <= threshold)),
        margin=threshold - sup if math.isfinite(sup) else -_INF,
        worst_point=complex(worst),
        samples=n,
        smallest_bound=(float(bound) if ratio is not None and math.isfinite(bound)
                        else None),
    )


# ---------------------------------------------------------------------------
# preconditions: one array evaluation each, naming the first failing point
# ---------------------------------------------------------------------------


def check_starlike(p: AnalyticMap, grid: DiskGrid | None = None) -> None:
    """Numerically require p(0)=0, p'(0)=1 and Re(z p'/p) > 0 on the grid."""
    j0 = p.jet(0j)
    if j0.value != 0 or abs(j0.d1 - 1) > 1e-12:
        raise PreconditionError("comparison map must satisfy p(0)=0, p'(0)=1")
    z = (grid or DiskGrid(24, 48, 1e-2)).points()
    z = z[z != 0]
    j = p.jet(z)
    vanishes = j.value == 0
    with np.errstate(all="ignore"):
        bad = vanishes | ((z * j.d1 / j.value).real <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        if vanishes[i]:
            raise PreconditionError("comparison map vanishes inside the disk")
        raise PreconditionError(
            f"comparison map is not starlike on the grid (violation at {z[i]!r})"
        )


def _image_avoids(f: AnalyticMap, omitted: complex, grid: DiskGrid, what: str) -> None:
    gap = np.min(np.abs(f.jet(grid.points()).value - omitted))
    if gap <= 1e-9:
        raise PreconditionError(
            f"{what} = {omitted!r} is not separated from the image "
            f"(min distance {gap:.3g})"
        )


def _sector_contains_image(f: AnalyticMap, sector, grid: DiskGrid) -> None:
    from .sector import _image

    z = grid.points()
    escapes = ~sector.contains(_image(f, z))
    if escapes.any():
        z = z[np.argmax(escapes)]
        w = f.jet(z).value  # the point's own jet: the message a point gives
        raise PreconditionError(
            f"image point f({z!r}) = {w!r} escapes the sector domain"
        )


def _require_sector(params: CriterionParams):
    from .sector import SectorDomain

    if params.w0 is None or params.lambda0 is None or params.a is None:
        raise PreconditionError("sector criteria need w0, lambda0 and a")
    return SectorDomain(params.w0, params.lambda0, params.a)


# ---------------------------------------------------------------------------
# value-function builders: check the hypotheses, return z -> criterion value
# (z a point or a 1-D array, as sup_over_grid's blocks)
# ---------------------------------------------------------------------------


def _gen_becker(f, q, params, grid):
    if q is None:
        raise PreconditionError("gen_becker needs a companion map")
    c = params.c
    return lambda z: gen_becker_value(f, q, c, z)


def _moebius_becker(f, q, params, grid):
    if params.c2 is None:
        raise PreconditionError("moebius_becker needs c2")
    _image_avoids(f, params.c2, grid, "c2")
    c1, c2 = params.c, params.c2
    return lambda z: moebius_becker_value(f, c1, c2, z)


def _sector_becker(f, q, params, grid):
    sector = _require_sector(params)
    _sector_contains_image(f, sector, grid)
    c, w0, a = params.c, sector.w0, sector.a
    return lambda z: sector_becker_value(f, c, w0, a, z)


def _nw(f, q, params, grid):
    if q is None:
        raise PreconditionError("nw needs a companion map")
    return lambda z: nw_value(f, q, z)


def _moebius_nw(f, q, params, grid):
    g, d = params.gamma, params.delta
    if g is None or d is None:
        raise PreconditionError("moebius_nw needs gamma and delta")
    if g == 0:
        raise PreconditionError("moebius_nw requires gamma != 0 "
                                "(the affine case is the classical condition)")
    _image_avoids(f, -d / g, grid, "-delta/gamma")
    return lambda z: moebius_nw_value(f, g, d, z)


def _sector_nw(f, q, params, grid):
    sector = _require_sector(params)
    _sector_contains_image(f, sector, grid)
    w0, expo = sector.w0, 1 / sector.a - 1
    lattice = BranchLattice(lambda w: 1 - f.jet(w).value / w0, 0j)
    lattice.reserve(grid.points())

    @_quiet
    def value(z):
        lg = lattice.log(z)
        return f.jet(z).d1 * lib(lg).cexp(expo * lg)

    return value


def _phi_like(f, phi, params, grid):
    if phi is None:
        raise PreconditionError("phi_like needs a companion (or direct Phi)")
    return lambda z: phi_like_value(f, phi, z)


def _bazilevic(f, psi, params, grid):
    if psi is None:
        raise PreconditionError("bazilevic needs a companion (or direct Psi)")
    # Q(f(w))/w has a pole at 0 unless Q(0) = 0
    if isinstance(psi, CompanionMap) and abs(psi.jet(0j).value) > 1e-12:
        raise PreconditionError("bazilevic needs Q(0) = 0")
    p = params.p or IdentityMap()
    check_starlike(p)
    s = params.s
    g = _bazilevic_branch(f, psi)
    pz = ratio_branch(p)
    for branch in (g, pz):
        if isinstance(branch, BranchLattice):
            branch.reserve(grid.points())

    @_quiet
    def value(z):
        return _bazilevic_from_logs(f, psi, s, z, g.log(z), pz.log(z))

    return value


# ---------------------------------------------------------------------------
# the criterion table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionSpec:
    """One criterion: how its value is built, scored, bounded and realized.

    score         "abs" (sup |v| <= bound), "udisk" (v in U(bound)) or
                  "re" (Re v > 0, no bound and no concluded dilatation)
    bound         "k", "k_prime" (CriterionParams.bound) or None for "re"
    build         (f, companion, params, grid) -> z -> value, elementwise on
                  a 1-D array; raises PreconditionError when a hypothesis
                  fails
    construction  the loewner chain family that realizes the criterion
    companion     the companion label ("moebius", "sector") the chain must be
                  built from, or None for any companion; a sector row's
                  concluded dilatation composes the bound with |1 - a| rather
                  than with the companion's extension dilatation
    """

    score: str
    bound: str | None
    build: Callable
    construction: str
    companion: str | None = None


CRITERIA: dict[str, CriterionSpec] = {
    "phi_like": CriterionSpec("re", None, _phi_like, "phi_like"),
    "bazilevic": CriterionSpec("re", None, _bazilevic, "bazilevic"),
    "gen_becker": CriterionSpec("abs", "k_prime", _gen_becker, "gen_becker"),
    "moebius_becker": CriterionSpec("abs", "k", _moebius_becker, "gen_becker",
                                    "moebius"),
    "sector_becker": CriterionSpec("abs", "k", _sector_becker, "gen_becker",
                                   "sector"),
    "nw": CriterionSpec("udisk", "k_prime", _nw, "nw"),
    "moebius_nw": CriterionSpec("udisk", "k", _moebius_nw, "nw", "moebius"),
    "sector_nw": CriterionSpec("udisk", "k", _sector_nw, "nw", "sector"),
    "phi_like_udisk": CriterionSpec("udisk", "k_prime", _phi_like, "phi_like"),
    "bazilevic_udisk": CriterionSpec("udisk", "k_prime", _bazilevic, "bazilevic"),
}

ALL_CRITERIA = tuple(CRITERIA)


def evaluate_criterion(criterion: str, f: AnalyticMap,
                       companion: CompanionMap | None,
                       params: CriterionParams,
                       grid: DiskGrid | None = None,
                       *, collect: bool = False):
    """Run one named criterion over a grid and report.

    Returns the CriterionReport, or (report, rows) when `collect` is set,
    where rows is an (n, 2) complex array of the scanned (z, criterion
    value) pairs.
    """
    grid = grid or DiskGrid()
    spec = CRITERIA.get(criterion)
    if spec is None:
        raise PreconditionError(
            f"unknown criterion {criterion!r}; valid ids: {', '.join(ALL_CRITERIA)}"
        )
    bound = None
    if spec.bound is not None:
        bound = params.k if spec.bound == "k" else params.bound
        if bound is None:
            needs = "k" if spec.bound == "k" else "k_prime (or k)"
            raise PreconditionError(f"{criterion} needs {needs}")
    value_fn = spec.build(f, companion, params, grid)

    if spec.score == "re":
        score, ratio, threshold, strict = (lambda v: -v.real), None, 0.0, True
    elif spec.score == "abs":
        score, ratio, threshold, strict = abs, abs, bound, False
    else:  # "udisk"
        score, ratio, threshold, strict = (
            (lambda v: -u_disk_margin(v, bound)), u_disk_ratio, 0.0, False)

    rows = [] if collect else None
    report = sup_over_grid(value_fn, grid, threshold, score=score, ratio=ratio,
                           strict=strict, criterion=criterion, rows=rows)
    if report.passed and bound is not None:
        kq = (abs(1 - params.a) if spec.companion == "sector"
              else getattr(companion, "extension_dilatation", 0.0))
        report = replace(report, concluded_dilatation=compose_dilatation(bound, kq))
    return (report, np.concatenate(rows)) if collect else report
