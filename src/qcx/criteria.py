"""Pointwise criterion functionals and their grid sup-estimation.

Each sufficient condition is a row of the criterion table `CRITERIA`,
which `evaluate_criterion` looks up and hands to `sup_over_grid`: that
scores a disk grid block by block, applies one local refinement pass
around the worst sample, and emits a CriterionReport.  A criterion through
a companion Q is the classical criterion on G = Q o f, which `Q.after(f)`
builds; its row reads a pointwise functional of G's jet (elementwise on a
1-D array, a point taken as a one-element array).  The Moebius and sector
rows write their formulas in the row, behind its guard on the image.
`extend` and `beltrami` pass the rows' own params gate (`require_bound`,
`require_chain_companion`).

A reported pass means "numerically passes on this grid"; it is evidence,
not a proof, since the supremum may be attained only in the limit |z| -> 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .branches import ratio_branch, tracked_log, tracked_ratio_log
from .grids import DiskGrid, blocks
from .jets import (PreconditionError, accepts_point, extremum, finite_where, first_where,
                   piecewise, principal_log)
from .maps import AnalyticMap, CompanionMap, IdentityMap
from .parallel import ordered_map
from .udisk import u_disk_margin, u_disk_ratio
from .qcverify import compose_dilatation
from .sector import SectorDomain

_INF = float("inf")


# ---------------------------------------------------------------------------
# parameters and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionParams:
    """Free parameters of the criteria; only the relevant subset is read.

    k        target dilatation class, in [0, 1)
    k_prime  criterion bound, in [0, k]
    c        constant multiplying |z|^2 in the Becker-type bound, |c| <= k_prime
             (or k)
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
        if self.bound is not None and abs(self.c) > self.bound + 1e-15:
            raise PreconditionError("|c| must not exceed k_prime (or k)")
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
# pointwise functionals: elementwise on a 1-D array, a point taken as [z]
# ---------------------------------------------------------------------------

# a decorator (a `with` block takes a fresh np.errstate): evaluation is
# quiet, since an inf or an overflow is scored, not warned about
_quiet = np.errstate(all="ignore")


def _becker(c: complex, z: complex, bracket: complex) -> complex:
    """c|z|^2 + (1-|z|^2) * bracket, the shape of every Becker-type value."""
    r2 = abs(z) ** 2
    return c * r2 + (1 - r2) * bracket


@_quiet
@accepts_point("z")
def phi_like_value(f: AnalyticMap, phi, z: np.ndarray) -> np.ndarray:
    """z*f'(z)/Phi(f(z)); at z = 0 the limit 1/Phi'(f(0)) where Phi(f(0)) = 0,
    and 0 where it is not.  Where f'(0) = 0 too the limit is m/Phi'(f(0)),
    m >= 2 the order of f - f(0) at 0, which the jet does not give: inf
    there, as where Phi'(f(0)) = 0, so a scan fails at the origin.

    `phi` is either an AnalyticMap used directly as Phi, or a CompanionMap
    Q: f is Phi-like for Phi = Q/Q' exactly when G = Q o f is starlike, so
    a companion gives z G'/G, the value of G with Phi the identity.
    Positivity of the real part on the disk is the phi-like (univalence)
    condition; spiral-likeness is the special case Phi(w) = e^{i*lam} * w.
    """
    if isinstance(phi, CompanionMap):
        f, phi = phi.after(f), IdentityMap()

    def origin(z):  # z holds only zeros, where Phi(f(z)) = 0
        jf = f.jet(z)
        d = phi.jet(jf.value).d1
        return finite_where((d != 0) & (jf.d1 != 0), lambda d: 1 / d, d)

    def quotient(z):
        jf = f.jet(z)
        den = phi.jet(jf.value).value
        return finite_where(den != 0, lambda z, d1, den: z * d1 / den,
                            z, jf.d1, den)

    at0 = z == 0
    if at0.any():  # the limit stands only where the quotient is 0/0
        at0 &= phi(f(0j)) == 0
    return piecewise(at0, origin, quotient, z)


@_quiet
@accepts_point("z")
def gen_becker_value(f: AnalyticMap, q: CompanionMap, c: complex,
                     z: np.ndarray) -> np.ndarray:
    """c|z|^2 + (1-|z|^2) * z G''/G' for G = Q o f, inf where G' = 0: the
    classical Becker value of G, z f''/f' + z f' Q''(f)/Q'(f) in the bracket."""
    jg = q.after(f).jet(z)
    return finite_where(jg.d1 != 0, lambda z, d1, d2: _becker(c, z, z * d2 / d1),
                        z, jg.d1, jg.d2)


@_quiet
@accepts_point("z")
def nw_value(f: AnalyticMap, q: CompanionMap, z: np.ndarray) -> np.ndarray:
    """G'(z) = Q'(f(z)) f'(z) for G = Q o f: the derivative condition tested
    against U(k')."""
    return q.after(f).jet(z).d1


@accepts_point("z")
def _bazilevic_from_logs(f: AnalyticMap, psi, s: complex, z: np.ndarray,
                         lg, lp) -> np.ndarray:
    """The Bazilevic value at z given the logs of its two ratios there, with
    Psi = 1 when `psi` is None."""
    jf = f.jet(z)
    power = np.exp((s - 1) * lg - s.real * lp)
    if psi is None:
        return jf.d1 * power
    return jf.d1 * power * psi.jet(jf.value).value


def gen_bazilevic_value(f: AnalyticMap, psi, s: complex, p: AnalyticMap,
                        z: complex) -> complex:
    """f'(z) (f/z)^{s-1} / (p/z)^{alpha} * Psi(f(z)), branch-tracked from 0.

    `psi` is either an AnalyticMap used directly as Psi, or a CompanionMap Q,
    in which case the value is that of G = Q o f with Psi = 1,
    G'(z) (G/z)^{s-1} / (p/z)^{alpha}.  Each call tracks both logs from the
    origin with `tracked_ratio_log`, at one point: the per-point oracle of
    the criterion scan, which takes both logs from `ratio_branch`.
    """
    if isinstance(psi, CompanionMap):
        f, psi = psi.after(f), None
    return _bazilevic_from_logs(f, psi, s, z, tracked_ratio_log(f, z),
                                tracked_ratio_log(p, z))


def sector_nw_value(f: AnalyticMap, w0: complex, a: float, z: complex) -> complex:
    """f'(z) * (1 - f(z)/w0)^{1/a - 1}, branch tracked along [0, z]: the
    per-point oracle of the criterion scan, which takes the closed form
    `_sector_log`."""
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
    patch as one more block.  `score` turns a block of values into real
    scores (by default the values are the scores).  The sup is the exact max
    over both passes, and the worst point is named by `jets.extremum`'s rule:
    the first point, in grid order and then the patch's, whose score lies
    within its tolerance of the sup.  The criterion passes when the sup is
    <= threshold (or < threshold when `strict`); a non-finite score fails the
    scan at the first offending point in input order.  With `ratio`,
    smallest_bound is the sup of ratio(values): None when the grid pass
    fails, the grid pass's alone when the refinement pass fails.  A `rows`
    list receives every scan as an (n, 2) complex array of (z, value) rows.
    """

    def scan(points):
        """A pass's scores, the first point whose score is not finite (None
        if there is none) and the sup of ratio(values) (-inf without one)."""
        values = np.concatenate(ordered_map(value_fn, blocks(points)))
        if rows is not None:
            rows.append(np.column_stack([points, values]))
        sc = score(values)
        bad = first_where(~np.isfinite(sc), points)
        return sc, bad, -_INF if ratio is None or bad is not None else np.max(ratio(values))

    points = grid.points()
    with np.errstate(all="ignore"):
        sc, bad, bound = scan(points)
        if bad is None:
            patch = _refined_neighborhood(grid, extremum(sc, points)[1])
            sc2, bad, bound2 = scan(patch)
            sc, points = np.concatenate([sc, sc2]), np.concatenate([points, patch])
            bound = max(bound, bound2)
    ok = bad is None
    sup, worst = extremum(sc, points) if ok else (_INF, bad)
    return CriterionReport(
        criterion=criterion,
        sup_value=sup,
        threshold=float(threshold),
        strict=strict,
        passed=bool(ok and (sup < threshold if strict else sup <= threshold)),
        margin=threshold - sup if math.isfinite(sup) else -_INF,
        worst_point=complex(worst),
        samples=len(points),
        smallest_bound=(float(bound) if ratio is not None and math.isfinite(bound)
                        else None),
    )


# ---------------------------------------------------------------------------
# preconditions: check_starlike walks its own grid block by block; the image
# guards check one scanned block's image, the refinement patch's too, and
# name the first failing point
# ---------------------------------------------------------------------------


def check_starlike(p: AnalyticMap, grid: DiskGrid | None = None) -> None:
    """Numerically require p(0)=0, p'(0)=1 and Re(z p'/p) > 0 on the grid."""
    j0 = p.jet(0j)
    if j0.value != 0 or abs(j0.d1 - 1) > 1e-12:
        raise PreconditionError("comparison map must satisfy p(0)=0, p'(0)=1")
    points = (grid or DiskGrid(24, 48, 1e-2)).points()
    for z in blocks(points[points != 0]):
        j = p.jet(z)
        with np.errstate(all="ignore"):
            bad = (j.value == 0) | ((z * j.d1 / j.value).real <= 0)
        at = first_where(bad, z)
        if at is not None:
            if first_where(bad, j.value) == 0:
                raise PreconditionError("comparison map vanishes inside the disk")
            raise PreconditionError("comparison map is not starlike on the grid "
                                    f"(violation at {at!r})")


def _image_avoids(z: np.ndarray, w: np.ndarray, omitted: complex, what: str) -> None:
    """Require a block's image w = f(z) to keep off the omitted value,
    naming the first point whose image comes within 1e-9 of it."""
    dist = np.abs(w - omitted)
    gap = np.min(dist)
    if gap <= 1e-9:
        near = dist <= 1e-9
        raise PreconditionError(f"{what} = {omitted!r} is not separated from the image "
                                f"(min distance {gap:.3g}) at image point "
                                f"f({first_where(near, z)!r}) = {first_where(near, w)!r}")


def _sector_contains_image(z: np.ndarray, w: np.ndarray, sector) -> None:
    """Require the sector to hold a block's image w = f(z), naming the first
    point that escapes."""
    escapes = ~sector.contains(w)
    bad = first_where(escapes, z)
    if bad is not None:
        raise PreconditionError(f"image point f({bad!r}) = {first_where(escapes, w)!r} "
                                "escapes the sector domain")


# The params hypotheses a row's build and the chain gate both read.
def _require_sector(params: CriterionParams):
    if params.w0 is None or params.lambda0 is None or params.a is None:
        raise PreconditionError("sector criteria need w0, lambda0 and a")
    return SectorDomain(params.w0, params.lambda0, params.a)


def _require_c2(params: CriterionParams) -> complex:
    if params.c2 is None:
        raise PreconditionError("moebius_becker needs c2")
    return params.c2


def _require_gamma_delta(params: CriterionParams) -> tuple[complex, complex]:
    g, d = params.gamma, params.delta
    if g is None or d is None:
        raise PreconditionError("moebius_nw needs gamma and delta")
    if g == 0:
        raise PreconditionError("moebius_nw requires gamma != 0 "
                                "(the affine case is the classical condition)")
    return g, d


# The origin hypothesis of the phi_like and bazilevic constructions, and its message.
_FIXED_ORIGIN = {"phi_like": "phi_like needs Phi(0) = 0 (Q(0) = 0 for a companion)",
                 "bazilevic": "bazilevic needs Q(0) = 0"}


def require_fixed_origin(construction: str, q) -> None:
    """Require q(0) = 0 of the companion Q (or a direct Phi) of a phi_like*
    or bazilevic* row, or of a chain's G = Q o f, whose construction names
    the message: Q(f(w))/w has a pole at 0 unless Q(0) = 0, and Phi = Q/Q'
    of a companion vanishes at 0 exactly where Q does.  Other constructions
    need nothing.  The one Q(0) = 0 gate of `check` and of every chain."""
    message = _FIXED_ORIGIN.get(construction)
    if message is not None and abs(q.jet(0j).value) > 1e-12:
        raise PreconditionError(message)


def require_comparison_map(params: CriterionParams) -> AnalyticMap:
    """The Bazilevic comparison map p: the params' p once `check_starlike`
    holds it, else the identity, which is starlike."""
    if params.p is None:
        return IdentityMap()
    check_starlike(params.p)
    return params.p


# ---------------------------------------------------------------------------
# value-function builders: check the hypotheses on the params, return
# z -> criterion value (z a 1-D array, as sup_over_grid's blocks); a
# hypothesis on the image f(D) is checked on each block the value evaluates
# ---------------------------------------------------------------------------


def _guarded(f: AnalyticMap, guard, formula):
    """z -> formula(z, jf) for f's jet jf at z, once guard(z, jf.value) has
    held the block's image to the row's hypothesis."""

    @_quiet
    @accepts_point("z")
    def value(z):
        jf = f.jet(z)
        guard(z, jf.value)
        return formula(z, jf)

    return value


def _gen_becker(f, q, params):
    if q is None:
        raise PreconditionError("gen_becker needs a companion map")
    c = params.c
    return lambda z: gen_becker_value(f, q, c, z)


def _pole_becker(c: complex, m: float, pole: complex, z: np.ndarray,
                 jf) -> np.ndarray:
    """c|z|^2 + (1-|z|^2) * { z f''/f' + m z f'/(f - pole) } from f's jet jf
    at z, inf where f' = 0: the Moebius (m = -2, pole c2) and sector
    (m = 1/a - 1, pole w0) Becker values.  The row's guard has kept f off
    the pole."""
    return finite_where(
        jf.d1 != 0,
        lambda z, v, d1, d2: _becker(c, z, z * d2 / d1 + m * z * d1 / (v - pole)),
        z, jf.value, jf.d1, jf.d2)


def _moebius_becker(f, q, params):
    c1, c2 = params.c, _require_c2(params)
    return _guarded(f, lambda z, w: _image_avoids(z, w, c2, "c2"),
                    lambda z, jf: _pole_becker(c1, -2, c2, z, jf))


def _sector_becker(f, q, params):
    sector = _require_sector(params)
    c, w0, m = params.c, sector.w0, 1 / sector.a - 1
    return _guarded(f, lambda z, w: _sector_contains_image(z, w, sector),
                    lambda z, jf: _pole_becker(c, m, w0, z, jf))


def _nw(f, q, params):
    if q is None:
        raise PreconditionError("nw needs a companion map")
    return lambda z: nw_value(f, q, z)


def _moebius_nw(f, q, params):
    # f'/(gamma f + delta)^2; the guard keeps gamma f + delta off 0
    g, d = _require_gamma_delta(params)
    pole = -d / g

    def value(z, jf):
        den = g * jf.value + d
        return jf.d1 / (den * den)

    return _guarded(f, lambda z, w: _image_avoids(z, w, pole, "-delta/gamma"), value)


def _sector_log(sector: SectorDomain) -> Callable[[np.ndarray], np.ndarray]:
    """u -> log u on the branch continued from log 1 = 0, for u = 1 - w/w0
    with w in the sector.  The sector makes u range over an open cone of
    opening pi*a that holds 1, bisected by the ray at angle beta: up to a
    half-turn the principal Log is continuous on it, and past one it is
    continuous on the cone turned by -beta onto the positive axis."""
    if sector.a <= 1:
        return principal_log
    beta = math.remainder(math.pi * (sector.lambda0 + 1 + sector.a / 2)
                          - cmath.phase(sector.w0), 2 * math.pi)
    unturn = cmath.exp(-1j * beta)
    return lambda u: 1j * beta + principal_log(u * unturn)


def _sector_nw(f, q, params):
    # the closed form holds only inside the sector, which the guard checks
    sector = _require_sector(params)
    w0, expo, log = sector.w0, 1 / sector.a - 1, _sector_log(sector)
    return _guarded(f, lambda z, w: _sector_contains_image(z, w, sector),
                    lambda z, jf: jf.d1 * np.exp(expo * log(1 - jf.value / w0)))


def _phi_like(f, phi, params):
    if phi is None:
        raise PreconditionError("phi_like needs a companion (or direct Phi)")
    require_fixed_origin("phi_like", phi)
    return lambda z: phi_like_value(f, phi, z)


def _bazilevic(f, psi, params):
    if psi is None:
        raise PreconditionError("bazilevic needs a companion (or direct Psi)")
    if isinstance(psi, CompanionMap):
        require_fixed_origin("bazilevic", psi)
        f, psi = psi.after(f), None  # the value of G = Q o f with Psi = 1
    p = require_comparison_map(params)
    s = params.s
    g, pz = ratio_branch(f), ratio_branch(p)

    @_quiet
    @accepts_point("z")
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
    bound         "k", "k_prime" (CriterionParams.bound) or None for "re",
                  read by `require_bound`
    build         (f, companion, params) -> z -> value, elementwise on a 1-D
                  array; raises PreconditionError when a hypothesis fails,
                  the build on the params, the value on a block whose image
                  f(z) breaks the row's hypothesis on f(D) (every scanned
                  block, the refinement patch included)
    construction  the loewner chain family that realizes the criterion
    companion     the companion label ("moebius", "sector") the chain must be
                  built from, or None for any companion; such a row's value
                  reads its Q from the params, so its concluded dilatation
                  composes the bound with that Q's dilatation (|1 - a| for a
                  sector, 0 for a Moebius map) rather than with the
                  companion's extension dilatation
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


def criterion_spec(criterion: str) -> CriterionSpec:
    """The row of CRITERIA a criterion id names."""
    if criterion not in CRITERIA:
        raise PreconditionError(f"unknown criterion {criterion!r}; "
                                f"valid ids: {', '.join(CRITERIA)}")
    return CRITERIA[criterion]


def require_bound(criterion: str, params: CriterionParams) -> float | None:
    """The bound a row's value and chain are checked against: k for a "k"
    row, CriterionParams.bound (k_prime, falling back to k) for a "k_prime"
    row, None for a row without one; raises when the row's bound is unset."""
    spec = criterion_spec(criterion)
    if spec.bound is None:
        return None
    bound = params.k if spec.bound == "k" else params.bound
    if bound is None:
        needs = "k" if spec.bound == "k" else "k_prime (or k)"
        raise PreconditionError(f"{criterion} needs {needs}")
    return bound


def require_chain_companion(criterion: str, companion: CompanionMap,
                            params: CriterionParams) -> None:
    """Require a moebius_* or sector_* row's companion to be the Q its value
    reads from the params, since the row's chain is built from the
    companion: a sector row's sector (sector_nw's normalized map), a Moebius
    map with pole c2 for moebius_becker, and for moebius_nw one with
    Q' = 1/(gamma w + delta)^2, that is normalized (gamma, delta) equal to
    +-(gamma, delta) of the params to 1e-12.  The params are read first, by
    the row's own helpers, so this refuses what check does, as it does."""
    needs = criterion_spec(criterion).companion
    if needs is None:
        return
    reads = (_require_sector if needs == "sector" else
             _require_c2 if criterion == "moebius_becker" else _require_gamma_delta)(params)
    if companion.label != needs:
        raise PreconditionError(
            f"{criterion} needs a {needs} companion to build its chain "
            f"(the scenario's companion is {companion.label!r})"
        )
    q = companion.base
    if needs == "sector":
        if q.sector != reads:
            raise PreconditionError(f"{criterion} reads the params' {reads}, "
                                    f"not the companion's {q.sector}")
        if criterion == "sector_nw" and not q.normalized:
            raise PreconditionError("sector_nw reads the normalized sector map, "
                                    "not the companion's unnormalized one")
    elif criterion == "moebius_becker":
        pole = -q.delta / q.gamma if q.gamma != 0 else complex(_INF, 0)
        if not abs(pole - reads) <= 1e-12 * max(1.0, abs(reads)):
            raise PreconditionError(f"moebius_becker reads a Moebius map with pole "
                                    f"c2 = {reads!r}, not the companion's "
                                    f"pole {pole!r}")
    else:  # moebius_nw
        g, d = reads
        if not any(abs(q.gamma - sign * g) <= 1e-12 and abs(q.delta - sign * d) <= 1e-12
                   for sign in (1, -1)):
            raise PreconditionError(
                f"moebius_nw reads Q' = 1/(gamma*w + delta)^2 with (gamma, delta) = "
                f"+-({g!r}, {d!r}), not the companion's normalized "
                f"({q.gamma!r}, {q.delta!r})"
            )


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
    spec = criterion_spec(criterion)
    bound = require_bound(criterion, params)
    value_fn = spec.build(f, companion, params)

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
        if spec.companion == "sector":
            kq = abs(1 - params.a)
        elif spec.companion == "moebius":
            kq = 0.0  # a Moebius map is conformal
        else:
            kq = getattr(companion, "extension_dilatation", 0.0)
        report = replace(report, concluded_dilatation=compose_dilatation(bound, kq))
    return (report, np.concatenate(rows)) if collect else report
