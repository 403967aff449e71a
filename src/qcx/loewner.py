"""Explicit expanding chains F(z, t) and the extensions they induce.

Four constructions are implemented, one per criterion family:

  gen_becker   F = Q(f(u)) + (1+c)^{-1} (e^t - e^{-t}) z Q'(f(u)) f'(u),  u = e^{-t} z
  nw           F = Q(f(z)) + (e^t - 1) z
  phi_like     F = e^t Q(f(z))                      (requires Q(0) = 0)
  bazilevic    F = { Q(f(z))^s + s (e^t - 1) p(z)^alpha z^{i beta} }^{1/s}

All time and angular partials are closed forms assembled from exact jets,
so the transition ratio p = dF/dt / (z dF/dz) is computed without any
numerical differentiation.  Validation checks the classical chain
conditions on samples: Re p > 0, p inside U(k) when a dilatation target is
given, and the leading coefficient a1(t) = dF/dz(0, t) growing without
bound.

Chains and the extension evaluate a point or, elementwise, a 1-D complex
array of points, with a scalar t or an array of times matching the points.
Validation and the CLI's extension samples go through blocks of at most
`grids.BLOCK` points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# tracked_log is not called here; perfbench/tracing.py wraps this module's name
from .branches import BranchTrackingError, ratio_branch, tracked_log  # noqa: F401
from .criteria import CRITERIA, CriterionParams, PreconditionError, _bazilevic_branch
from .grids import DiskGrid, blocks
from .jets import lib, piecewise
from .maps import AnalyticMap, CompanionMap, IdentityMap
from .parallel import ordered_map
from .udisk import u_disk_margin

_INF = float("inf")


@dataclass(frozen=True)
class ChainPartials:
    value: complex | np.ndarray
    dt: complex | np.ndarray
    zdz: complex | np.ndarray


def _ratio(num, den):
    """num / den, with inf where den vanishes."""
    if type(den) is np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den == 0, complex(_INF, 0), num / den)
    return num / den if den != 0 else complex(_INF, 0)


class LoewnerChain:
    """A two-variable map F(z, t) with closed-form dF/dt and z dF/dz.

    Immutable; evaluation is pure.  `construction` names which explicit
    family the chain realizes.
    """

    construction: str = ""

    def __init__(self, f: AnalyticMap, q: CompanionMap, params: CriterionParams):
        self.f = f
        self.q = q
        self.params = params
        # the smallest analyticity radius of the maps evaluated at z
        self.analyticity_radius = f.analyticity_radius

    def branch_data(self, z: complex):
        """What every time t shares at z, a point or an array (the Bazilevic
        chain's logs), passed back as `branch` to skip recomputing it; None
        when nothing is shared."""
        return None

    def value(self, z: complex, t: float, branch=None) -> complex:
        return self.partials(z, t, branch).value

    def partials(self, z: complex, t: float, branch=None) -> ChainPartials:
        raise NotImplementedError

    def a1(self, t: float) -> complex:
        """Leading coefficient dF/dz(0, t)."""
        raise NotImplementedError

    def transition_ratio(self, z: complex, t: float, branch=None,
                         part: ChainPartials | None = None) -> complex:
        """p(z, t) = dF/dt / (z dF/dz); the chain condition is Re p > 0.
        `part`, the partials at (z, t) when the caller has them, saves
        evaluating them again."""
        if part is None:
            part = self.partials(z, t, branch)
        return lib(z).where(z == 0, self._ratio_origin(t), _ratio(part.dt, part.zdz))

    def _ratio_origin(self, t: float) -> complex:
        raise NotImplementedError


class GenBeckerChain(LoewnerChain):
    construction = "gen_becker"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        c = params.c
        if abs(1 + c) < 1e-12:
            raise PreconditionError("gen_becker chain needs 1 + c != 0")
        self._kappa = 1 / (1 + c)

    def partials(self, z, t, branch=None):
        kappa = self._kappa
        et = lib(t).exp(t)
        emt = lib(t).exp(-t)
        u = emt * z
        jf = self.f.jet(u)
        jq = self.q.jet(jf.value)
        s = jq.d1 * jf.d1                       # d/du Q(f(u))
        sp = jq.d2 * jf.d1 * jf.d1 + jq.d1 * jf.d2   # d^2/du^2 Q(f(u))
        grow = et - emt
        value = jq.value + kappa * grow * z * s
        zdz = s * u + kappa * grow * (z * s + z * u * sp)
        dt = -s * u + kappa * z * (et + emt) * s - kappa * z * grow * u * sp
        return ChainPartials(value, dt, zdz)

    def a1(self, t):
        et = lib(t).exp(t)
        emt = lib(t).exp(-t)
        s0 = self.q.jet(self.f.jet(0j).value).d1 * self.f.jet(0j).d1
        return s0 * (emt + self._kappa * (et - emt))

    def _ratio_origin(self, t):
        c = self.params.c
        w = c * lib(t).exp(-2 * t)
        return (1 - w) / (1 + w)


class NWChain(LoewnerChain):
    construction = "nw"

    def partials(self, z, t, branch=None):
        et = lib(t).exp(t)
        jf = self.f.jet(z)
        jq = self.q.jet(jf.value)
        value = jq.value + (et - 1) * z
        dt = et * z
        zdz = z * (jq.d1 * jf.d1 + (et - 1))
        return ChainPartials(value, dt, zdz)

    def a1(self, t):
        jf0 = self.f.jet(0j)
        return self.q.jet(jf0.value).d1 * jf0.d1 + lib(t).exp(t) - 1

    def _ratio_origin(self, t):
        # the z factor of dt and zdz cancels, so the origin is regular
        return _ratio(lib(t).exp(t), self.a1(t))


class PhiLikeChain(LoewnerChain):
    construction = "phi_like"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        if abs(q.jet(0j).value) > 1e-12:
            raise PreconditionError("phi_like chain needs Q(0) = 0")

    def partials(self, z, t, branch=None):
        et = lib(t).exp(t)
        jf = self.f.jet(z)
        jq = self.q.jet(jf.value)
        return ChainPartials(et * jq.value, et * jq.value, et * z * jq.d1 * jf.d1)

    def a1(self, t):
        jf0 = self.f.jet(0j)
        return lib(t).exp(t) * self.q.jet(jf0.value).d1 * jf0.d1

    def _ratio_origin(self, t):
        return 1 + 0j


class BazilevicChain(LoewnerChain):
    construction = "bazilevic"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        if abs(q.jet(0j).value) > 1e-12:
            raise PreconditionError("bazilevic chain needs Q(0) = 0")
        self.p = params.p or IdentityMap()
        self.analyticity_radius = min(f.analyticity_radius, self.p.analyticity_radius)
        jp0 = self.p.jet(0j)
        if jp0.value != 0 or abs(jp0.d1 - 1) > 1e-12:
            raise PreconditionError("bazilevic chain needs p(0) = 0, p'(0) = 1")
        self._g = _bazilevic_branch(f, q)  # anchored at log (Q o f)'(0)
        self._pz = ratio_branch(self.p)
        # the origin's branch data: H = (Q o f)'(0)^s, R = 1
        self._lb0 = params.s * self._g.anchor
        self._h0 = cmath.exp(self._lb0)

    # F = z * B^{1/s} with B = (G/z)^s + s(e^t - 1)(p/z)^alpha,  G = Q o f.
    # The ratio powers take their logs from two branches shared by every
    # point: closed forms where the ratio factors, lattices otherwise.  With
    # H = (G/z)^s, F = G (B/H)^{1/s}: as t runs from 0, e^t - 1 is real and
    # monotone, so B runs along the straight segment from H to B(t), and
    # log B = s log(G/z) + Log(B/H) continues it in t exactly, unless the
    # segment passes through 0.

    def _g_jet(self, z):
        jf = self.f.jet(z)
        jq = self.q.jet(jf.value)
        return jq.value, jq.d1 * jf.d1

    def branch_data(self, z):
        """(H, R, LB(0)) at z: H = (G/z)^s, R = (p/z)^alpha, LB(0) = s log(G/z),
        both logs continued from the origin through the branches, a block of
        points at a time."""
        s = self.params.s
        lg, lp = self._g.log(z), self._pz.log(z)
        m = lib(lg)
        return m.cexp(s * lg), m.cexp(s.real * lp), s * lg

    def _bracket(self, et, big_h, big_r, lb0):
        """B = H + s(e^t - 1)R and log B continued from LB(0) = lb0 along the
        time axis, elementwise, given et = e^t."""
        b = big_h + self.params.s * (et - 1) * big_r
        ratio = b / big_h
        if np.any((np.imag(ratio) == 0) & (np.real(ratio) <= 0)):
            raise BranchTrackingError("chain bracket vanished on the time path")
        return b, lb0 + lib(ratio).clog(ratio)

    def partials(self, z, t, branch=None):
        if type(z) is not np.ndarray and z == 0:
            return ChainPartials(0j, 0j, 0j)
        s = self.params.s
        alpha, beta = s.real, s.imag
        et = lib(t).exp(t)
        big_h, big_r, lb0 = self.branch_data(z) if branch is None else branch
        b, lb = self._bracket(et, big_h, big_r, lb0)
        # at the origin of an array z G'/G and z p'/p are 0/0; the origin's
        # partials are 0, set below
        with np.errstate(divide="ignore", invalid="ignore"):
            value = z * lib(lb).cexp(lb / s)
            gv, gd = self._g_jet(z)
            jp = self.p.jet(z)
            zgg = z * gd / gv
            zpp = z * jp.d1 / jp.value
            dt = value * et * big_r / b
            zdz = value * (big_h * zgg + (et - 1) * big_r * (alpha * zpp + 1j * beta)) / b
        m = lib(z)
        return ChainPartials(*(m.where(z == 0, 0j, x) for x in (value, dt, zdz)))

    def a1(self, t):
        _, lb = self._bracket(lib(t).exp(t), self._h0, 1.0, self._lb0)
        return lib(lb).cexp(lb / self.params.s)

    def _ratio_origin(self, t):
        et = lib(t).exp(t)
        return _ratio(et, self._bracket(et, self._h0, 1.0, self._lb0)[0])


_CHAIN_CLASSES = {
    "gen_becker": GenBeckerChain,
    "nw": NWChain,
    "phi_like": PhiLikeChain,
    "bazilevic": BazilevicChain,
}

CONSTRUCTIONS = tuple(_CHAIN_CLASSES)


def build_chain(construction: str, f: AnalyticMap, q: CompanionMap,
                params: CriterionParams | None = None) -> LoewnerChain:
    """Construct a chain, validating the construction-specific preconditions."""
    if construction not in _CHAIN_CLASSES:
        raise PreconditionError(
            f"unknown construction {construction!r}; pick one of {CONSTRUCTIONS}"
        )
    return _CHAIN_CLASSES[construction](f, q, params or CriterionParams())


def construction_for_criterion(criterion: str) -> str:
    """Which chain realizes a given criterion id (its criterion-table row)."""
    spec = CRITERIA.get(criterion)
    if spec is None:
        raise PreconditionError(f"no chain construction for criterion {criterion!r}")
    return spec.construction


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainValidation:
    """Sampled check of the chain conditions; failures are entries, not raises."""

    construction: str
    times: tuple[float, ...]
    re_p_min: float
    re_p_argmin: tuple[complex, float]
    u_margin_min: float | None
    u_margin_argmin: tuple[complex, float] | None
    growth_max: float
    a1_abs: tuple[float, ...]
    a1_increasing: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def default_times(t_max: float = 2.0, count: int = 21) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("need at least two time samples")
    return tuple(t_max * i / (count - 1) for i in range(count))


def validate_chain(chain: LoewnerChain, grid: DiskGrid | None = None,
                   times: Sequence[float] | None = None,
                   dilatation_bound: float | None = None) -> ChainValidation:
    """Check Re p > 0, optional p in U(k), growth and |a1(t)| monotonicity."""
    grid = grid or DiskGrid()
    times = tuple(times) if times is not None else default_times()
    points = blocks(grid.points())
    failures: list[str] = []

    re_min, re_arg = _INF, (0j, 0.0)
    um_min, um_arg = (_INF, (0j, 0.0)) if dilatation_bound is not None else (None, None)
    growth_max = 0.0
    a1_abs: list[float] = []

    # each block's branch data once per call, shared by all of its times
    branches = [chain.branch_data(z) for z in points]

    # times outer, points in grid order: ties go to the first minimum and
    # failures are listed in that order
    for t in times:
        a1 = chain.a1(t)
        a1_abs.append(abs(a1))
        if a1 == 0:
            failures.append(f"a1({t}) = 0")
            continue

        def one(item, t=t):
            z, branch = item
            part = chain.partials(z, t, branch)
            return chain.transition_ratio(z, t, part=part), part.value

        for z, (p, fv) in zip(points, ordered_map(one, zip(points, branches))):
            g = np.abs(fv) / abs(a1)
            p_ok = np.isfinite(p)
            g_ok = np.isfinite(g)
            for i in np.flatnonzero(~(p_ok & g_ok)):
                what = "|F/a1|" if p_ok[i] else "transition ratio"
                failures.append(f"{what} not finite at z={z[i]!r}, t={t}")
            if not p_ok.any():
                continue
            z, p, g = z[p_ok], p[p_ok], g[p_ok]
            i = int(np.argmin(p.real))
            if p.real[i] < re_min:
                re_min, re_arg = float(p.real[i]), (z[i], t)
            if dilatation_bound is not None:
                margin = u_disk_margin(p, dilatation_bound)
                i = int(np.argmin(margin))
                if margin[i] < um_min:
                    um_min, um_arg = float(margin[i]), (z[i], t)
            growth_max = max(growth_max, float(g.max(initial=0.0, where=np.isfinite(g))))

    if re_min <= 0:
        failures.append(
            f"Re p <= 0 at z={re_arg[0]!r}, t={re_arg[1]} (Re p = {re_min:.3g})"
        )
    if dilatation_bound is not None and um_min < -1e-12:
        failures.append(
            f"p escapes U({dilatation_bound}) at z={um_arg[0]!r}, t={um_arg[1]} "
            f"(margin {um_min:.3g})"
        )
    increasing = all(b > a - 1e-12 for a, b in zip(a1_abs, a1_abs[1:]))
    if not increasing:
        failures.append("|a1(t)| is not increasing over the sampled times")

    return ChainValidation(
        construction=chain.construction,
        times=times,
        re_p_min=re_min,
        re_p_argmin=re_arg,
        u_margin_min=um_min,
        u_margin_argmin=um_arg,
        growth_max=growth_max,
        a1_abs=tuple(a1_abs),
        a1_increasing=increasing,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# the extension
# ---------------------------------------------------------------------------


class ExtensionMap:
    """The total map induced by a chain:

        fhat(w) = F(w, 0)                     for |w| < 1
        fhat(w) = F(w/|w|, log |w|)           for |w| >= 1

    When a map the chain evaluates at the angular argument (f, and p for
    the Bazilevic chain) is not analytic past the unit circle, boundary
    evaluations clamp that argument to radius 1 - 1e-6.
    """

    def __init__(self, chain: LoewnerChain):
        self.chain = chain
        self.fixes_infinity = chain.q.fixes_infinity

    def __call__(self, w: complex) -> complex:
        """fhat at a point, or elementwise at a 1-D complex array."""
        return piecewise(abs(w) < 1, self._inside, self._outside, w)

    def _inside(self, w):
        return self.chain.value(w, 0.0)

    def _outside(self, w):
        r = abs(w)
        zb = w / r
        if self.chain.analyticity_radius <= 1:
            zb = zb * (1 - 1e-6)
        return self.chain.value(zb, lib(r).log(r))

    def on_blocks(self, points) -> np.ndarray:
        """fhat at every point, evaluated in blocks of at most grids.BLOCK."""
        values = ordered_map(self, blocks(points))
        return np.concatenate(values) if values else np.empty(0, complex)

    def continuity_gap(self, n_angles: int = 256) -> float:
        """Max mismatch of the radial limits across |w| = 1, taken at
        radii 1 -+ 1e-7."""
        w = np.exp(1j * (2 * math.pi * np.arange(n_angles) / n_angles))
        limits = self(np.concatenate([(1 - 1e-7) * w, (1 + 1e-7) * w]))
        return float(np.abs(limits[:n_angles] - limits[n_angles:]).max(initial=0.0))


def build_extension(chain: LoewnerChain) -> ExtensionMap:
    return ExtensionMap(chain)


def composed_extension(ext: ExtensionMap,
                       inverse: Callable[[complex], complex]) -> Callable[[complex], complex]:
    """w -> inverse(fhat(w)): the extension of f itself when the companion's
    quasiconformal extension is explicitly invertible (Moebius, sector).
    Elementwise on an array when `inverse` is."""

    def h(w: complex) -> complex:
        return inverse(ext(w))

    return h
