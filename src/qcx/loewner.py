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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .branches import BranchLattice, BranchTrackingError, tracked_log
from .criteria import CRITERIA, CriterionParams, PreconditionError
from .grids import DiskGrid
from .maps import AnalyticMap, CompanionMap, IdentityMap
from .parallel import ordered_map
from .udisk import u_disk_margin

_INF = float("inf")


@dataclass(frozen=True)
class ChainPartials:
    value: complex
    dt: complex
    zdz: complex


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

    def branch_data(self, z: complex):
        """What every time t shares at z (the Bazilevic chain's logs), passed
        back as `branch` to skip recomputing it; None when nothing is shared."""
        return None

    def value(self, z: complex, t: float, branch=None) -> complex:
        return self.partials(z, t, branch).value

    def partials(self, z: complex, t: float, branch=None) -> ChainPartials:
        raise NotImplementedError

    def a1(self, t: float) -> complex:
        """Leading coefficient dF/dz(0, t)."""
        raise NotImplementedError

    def transition_ratio(self, z: complex, t: float, branch=None) -> complex:
        """p(z, t) = dF/dt / (z dF/dz); the chain condition is Re p > 0."""
        if z == 0:
            return self._ratio_origin(t)
        part = self.partials(z, t, branch)
        den = part.zdz
        if den == 0:
            return complex(_INF, 0)
        return part.dt / den

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
        et = math.exp(t)
        emt = math.exp(-t)
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
        et = math.exp(t)
        emt = math.exp(-t)
        s0 = self.q.jet(self.f.jet(0j).value).d1 * self.f.jet(0j).d1
        return s0 * (emt + self._kappa * (et - emt))

    def _ratio_origin(self, t):
        c = self.params.c
        w = c * math.exp(-2 * t)
        return (1 - w) / (1 + w)


class NWChain(LoewnerChain):
    construction = "nw"

    def partials(self, z, t, branch=None):
        et = math.exp(t)
        jf = self.f.jet(z)
        jq = self.q.jet(jf.value)
        value = jq.value + (et - 1) * z
        dt = et * z
        zdz = z * (jq.d1 * jf.d1 + (et - 1))
        return ChainPartials(value, dt, zdz)

    def a1(self, t):
        jf0 = self.f.jet(0j)
        return self.q.jet(jf0.value).d1 * jf0.d1 + math.exp(t) - 1

    def transition_ratio(self, z, t, branch=None):
        # the z factor cancels analytically, so the origin is regular
        et = math.exp(t)
        jf = self.f.jet(z)
        den = self.q.jet(jf.value).d1 * jf.d1 + et - 1
        if den == 0:
            return complex(_INF, 0)
        return et / den

    def _ratio_origin(self, t):
        return self.transition_ratio(0j, t)


class PhiLikeChain(LoewnerChain):
    construction = "phi_like"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        if abs(q.jet(0j).value) > 1e-12:
            raise PreconditionError("phi_like chain needs Q(0) = 0")

    def partials(self, z, t, branch=None):
        et = math.exp(t)
        jf = self.f.jet(z)
        jq = self.q.jet(jf.value)
        return ChainPartials(et * jq.value, et * jq.value, et * z * jq.d1 * jf.d1)

    def a1(self, t):
        jf0 = self.f.jet(0j)
        return math.exp(t) * self.q.jet(jf0.value).d1 * jf0.d1

    def _ratio_origin(self, t):
        return 1 + 0j


class BazilevicChain(LoewnerChain):
    construction = "bazilevic"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        s = params.s
        if s.real <= 0:
            raise PreconditionError("bazilevic chain needs Re s > 0")
        if abs(q.jet(0j).value) > 1e-12:
            raise PreconditionError("bazilevic chain needs Q(0) = 0")
        self.p = params.p or IdentityMap()
        jp0 = self.p.jet(0j)
        if jp0.value != 0 or abs(jp0.d1 - 1) > 1e-12:
            raise PreconditionError("bazilevic chain needs p(0) = 0, p'(0) = 1")
        jf0 = f.jet(0j)
        self._g = BranchLattice(lambda w: self._g_jet(w)[0] / w,
                                cmath.log(q.jet(jf0.value).d1 * jf0.d1))
        self._pz = BranchLattice(lambda w: self.p.jet(w).value / w, 0j)

    # F = z * B^{1/s} with B = (G/z)^s + s(e^t - 1)(p/z)^alpha,  G = Q o f.
    # The ratio powers take their logs from two branch lattices shared by
    # every point; the outer 1/s power is continued in t from
    # LB(0) = s*log(G/z) so that F(z, 0) = G(z).

    def _g_jet(self, z):
        jf = self.f.jet(z)
        jq = self.q.jet(jf.value)
        return jq.value, jq.d1 * jf.d1

    def branch_data(self, z):
        """(H, R, LB(0)) at z: H = (G/z)^s, R = (p/z)^alpha, LB(0) = s log(G/z)."""
        s = self.params.s
        lg = tracked_log(self._g.fn, z, **self._g.continue_from(z))
        lp = tracked_log(self._pz.fn, z, **self._pz.continue_from(z))
        return cmath.exp(s * lg), cmath.exp(s.real * lp), s * lg

    def _lb(self, t, big_h, big_r, lb0):
        """log B continued from t = 0 along the time axis."""
        s = self.params.s
        steps = max(4, int(math.ceil(abs(t) / 0.2)))
        while True:
            lb = lb0
            prev = big_h
            ok = True
            for j in range(1, steps + 1):
                tj = t * j / steps
                b = big_h + s * (math.exp(tj) - 1) * big_r
                if b == 0:
                    raise BranchTrackingError("chain bracket vanished on the time path")
                inc = cmath.log(b / prev)
                if abs(inc.imag) > 1.5:
                    ok = False
                    break
                lb += inc
                prev = b
            if ok:
                return lb
            if steps > 4096:
                raise BranchTrackingError("time continuation of the chain bracket failed")
            steps *= 2

    def partials(self, z, t, branch=None):
        s = self.params.s
        alpha, beta = s.real, s.imag
        et = math.exp(t)
        if z == 0:
            return ChainPartials(0j, 0j, 0j)
        big_h, big_r, lb0 = branch or self.branch_data(z)
        b = big_h + s * (et - 1) * big_r
        lb = self._lb(t, big_h, big_r, lb0)
        value = z * cmath.exp(lb / s)
        gv, gd = self._g_jet(z)
        jp = self.p.jet(z)
        zgg = z * gd / gv
        zpp = z * jp.d1 / jp.value
        dt = value * et * big_r / b
        zdz = value * (big_h * zgg + (et - 1) * big_r * (alpha * zpp + 1j * beta)) / b
        return ChainPartials(value, dt, zdz)

    def a1(self, t):
        s = self.params.s
        g0 = self.q.jet(self.f.jet(0j).value).d1 * self.f.jet(0j).d1
        lb0 = s * cmath.log(g0)
        big_h = cmath.exp(lb0)
        lb = self._lb(t, big_h, 1 + 0j, lb0)
        return cmath.exp(lb / s)

    def _ratio_origin(self, t):
        s = self.params.s
        et = math.exp(t)
        g0 = self.q.jet(self.f.jet(0j).value).d1 * self.f.jet(0j).d1
        h0 = cmath.exp(s * cmath.log(g0))
        den = h0 + (et - 1) * s
        if den == 0:
            return complex(_INF, 0)
        return et / den


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
    points = list(grid.points())
    failures: list[str] = []

    re_min, re_arg = _INF, (0j, 0.0)
    um_min, um_arg = (_INF, (0j, 0.0)) if dilatation_bound is not None else (None, None)
    growth_max = 0.0
    a1_abs: list[float] = []

    # each point's branch data once per call, shared by all of its times
    branches = [chain.branch_data(z) for z in points]

    for t in times:
        a1 = chain.a1(t)
        a1_abs.append(abs(a1))
        if a1 == 0:
            failures.append(f"a1({t}) = 0")
            continue

        def one(item, t=t, a1=a1):
            z, branch = item
            p = chain.transition_ratio(z, t, branch)
            fv = chain.value(z, t, branch)
            return p, abs(fv) / abs(a1)

        for z, (p, g) in zip(points, ordered_map(one, zip(points, branches))):
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                failures.append(f"transition ratio not finite at z={z!r}, t={t}")
                continue
            if p.real < re_min:
                re_min, re_arg = p.real, (z, t)
            if dilatation_bound is not None:
                m = u_disk_margin(p, dilatation_bound)
                if m < um_min:
                    um_min, um_arg = m, (z, t)
            if math.isfinite(g):
                growth_max = max(growth_max, g)
            else:
                failures.append(f"|F/a1| not finite at z={z!r}, t={t}")

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

    When the inner function is not analytic past the unit circle, boundary
    evaluations clamp the angular argument to radius 1 - clamp.
    """

    def __init__(self, chain: LoewnerChain, clamp: float = 1e-6):
        self.chain = chain
        self.clamp = float(clamp)
        self.fixes_infinity = chain.q.fixes_infinity

    def __call__(self, w: complex) -> complex:
        r = abs(w)
        if r < 1:
            return self.chain.value(w, 0.0)
        zb = w / r
        if self.chain.f.analyticity_radius <= 1:
            zb *= 1 - self.clamp
        return self.chain.value(zb, math.log(r))

    def continuity_gap(self, n_angles: int = 256, delta: float = 1e-7) -> float:
        """Max mismatch of the radial limits across |w| = 1."""
        worst = 0.0
        for j in range(n_angles):
            w = cmath.exp(2j * math.pi * j / n_angles)
            inner = self((1 - delta) * w)
            outer = self((1 + delta) * w)
            worst = max(worst, abs(inner - outer))
        return worst


def build_extension(chain: LoewnerChain, clamp: float = 1e-6) -> ExtensionMap:
    return ExtensionMap(chain, clamp)


def composed_extension(ext: ExtensionMap,
                       inverse: Callable[[complex], complex]) -> Callable[[complex], complex]:
    """w -> inverse(fhat(w)): the extension of f itself when the companion's
    quasiconformal extension is explicitly invertible (Moebius, sector)."""

    def h(w: complex) -> complex:
        return inverse(ext(w))

    return h
