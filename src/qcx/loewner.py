"""Explicit expanding chains F(z, t) and the extensions they induce.

A criterion for f through a companion Q is a criterion on the composite
G = Q o f, and four constructions, one per criterion family, build F on G:

  gen_becker   F = G(u) + (1+c)^{-1} (e^t - e^{-t}) z G'(u),  u = e^{-t} z
  nw           F = G(z) + (e^t - 1) z
  phi_like     F = e^t G(z)                         (requires G(0) = Q(0) = 0)
  bazilevic    F = { G(z)^s + s (e^t - 1) p(z)^alpha z^{i beta} }^{1/s}

Every chain reads G's jet from `Q.after(f)` (`CompanionMap.after`), the
map the criteria read too.  All time and angular partials are closed
forms assembled from exact jets, so the transition ratio
p = dF/dt / (z dF/dz) is computed without any numerical differentiation.
Validation checks the classical chain conditions on samples: Re p > 0,
p inside U(k) when a dilatation target is given, and the leading
coefficient a1(t) = dF/dz(0, t) growing without bound.  Each chain writes F once, in
`_evaluate`, which stops there for `value` and goes on to the partials for
`partials`: the extension reads F alone, so it evaluates F without its
partials.

Chains and the extension evaluate elementwise on a 1-D complex array of
points (a point is evaluated as a one-element array), with a scalar t or an
array of times matching the points; a chain also takes a column of times,
an (m, 1) array, against an array of points, and then gives (m, n) arrays,
row by row as the scalar times would.  The Bazilevic chain's two logarithms
depend on z alone, so such a call continues them once for all of its
times.  `a1` takes an array of times (or one time).

Validation and the CLI's extension samples go through blocks of points of
at most `grids.BLOCK` samples: one per (point, time) in validation, one per
point in the extension, which evaluates a block in one chain call.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# tracked_log is not called here; perfbench/tracing.py wraps this module's name
from .branches import BranchTrackingError, ratio_branch, tracked_log  # noqa: F401
from .criteria import (CriterionParams, PreconditionError, require_comparison_map,
                       require_fixed_origin)
from .grids import DiskGrid, blocks
from .jets import accepts_point, extremum, finite_where, principal_log
from .maps import AnalyticMap, CompanionMap
from .parallel import ordered_map
from .udisk import u_disk_margin

_INF = float("inf")


@dataclass(frozen=True)
class ChainPartials:
    value: complex | np.ndarray
    dt: complex | np.ndarray
    zdz: complex | np.ndarray


class LoewnerChain:
    """A two-variable map F(z, t) with closed-form dF/dt and z dF/dz.

    Immutable; evaluation is pure.  `construction` names which explicit
    family the chain realizes.
    """

    construction: str = ""

    def __init__(self, f: AnalyticMap, q: CompanionMap, params: CriterionParams):
        self.f = f
        self.q = q
        self.g = q.after(f)  # G = Q o f: every chain reads G's jet
        require_fixed_origin(self.construction, self.g)
        self.params = params
        # the smallest analyticity radius of the maps evaluated at z
        self.analyticity_radius = f.analyticity_radius

    @functools.cached_property
    def _g0(self):
        """G's jet at the origin, taken once, when first needed."""
        return self.g.jet(0j)

    @accepts_point("z")
    def value(self, z: np.ndarray, t) -> np.ndarray:
        """F(z, t) alone, equal to `partials(z, t).value` to the bit."""
        return self._evaluate(z, t, False)

    @accepts_point("z")
    def partials(self, z: np.ndarray, t) -> ChainPartials:
        return self._evaluate(z, t, True)

    def _evaluate(self, z: np.ndarray, t, partials: bool):
        """F(z, t), or with `partials` the ChainPartials at (z, t)."""
        raise NotImplementedError

    @accepts_point("t")
    def a1(self, t: np.ndarray) -> np.ndarray:
        """Leading coefficient dF/dz(0, t)."""
        return self._a1(t)

    def _a1(self, t):
        raise NotImplementedError

    @accepts_point("z")
    def transition_ratio(self, z: np.ndarray, t,
                         part: ChainPartials | None = None) -> np.ndarray:
        """p(z, t) = dF/dt / (z dF/dz); the chain condition is Re p > 0.
        `part`, the partials at (z, t) when the caller has them, saves
        evaluating them again."""
        if part is None:
            part = self.partials(z, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = finite_where(part.zdz != 0, np.divide, part.dt, part.zdz)
        at0 = z == 0
        return np.where(at0, self._ratio_origin(t), ratio) if at0.any() else ratio

    def _ratio_origin(self, t):
        """p(0, t), elementwise in t."""
        raise NotImplementedError


class GenBeckerChain(LoewnerChain):
    construction = "gen_becker"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        c = params.c
        if abs(1 + c) < 1e-12:
            raise PreconditionError("gen_becker chain needs 1 + c != 0")
        self._kappa = 1 / (1 + c)

    def _evaluate(self, z, t, partials):
        kappa = self._kappa
        et = np.exp(t)
        emt = np.exp(-t)
        u = emt * z
        jg = self.g.jet(u)
        s, sp = jg.d1, jg.d2                    # G'(u), G''(u)
        grow = et - emt
        value = jg.value + kappa * grow * z * s
        if not partials:
            return value
        zdz = s * u + kappa * grow * (z * s + z * u * sp)
        dt = -s * u + kappa * z * (et + emt) * s - kappa * z * grow * u * sp
        return ChainPartials(value, dt, zdz)

    def _a1(self, t):
        et = np.exp(t)
        emt = np.exp(-t)
        return self._g0.d1 * (emt + self._kappa * (et - emt))

    def _ratio_origin(self, t):
        w = self.params.c * np.exp(-2 * t)
        return (1 - w) / (1 + w)


class NWChain(LoewnerChain):
    construction = "nw"

    def _evaluate(self, z, t, partials):
        et = np.exp(t)
        jg = self.g.jet(z)
        value = jg.value + (et - 1) * z
        if not partials:
            return value
        dt = et * z
        zdz = z * (jg.d1 + (et - 1))
        return ChainPartials(value, dt, zdz)

    def _a1(self, t):
        return self._g0.d1 + np.exp(t) - 1

    def _ratio_origin(self, t):
        # the z factor of dt and zdz cancels, so the origin is regular
        a1 = self._a1(t)
        return finite_where(a1 != 0, np.divide, np.exp(t), a1)


class PhiLikeChain(LoewnerChain):
    construction = "phi_like"

    def _evaluate(self, z, t, partials):
        et = np.exp(t)
        jg = self.g.jet(z)
        value = et * jg.value
        if not partials:
            return value
        return ChainPartials(value, value, et * z * jg.d1)

    def _a1(self, t):
        return np.exp(t) * self._g0.d1

    def _ratio_origin(self, t):
        return 1 + 0j


class BazilevicChain(LoewnerChain):
    construction = "bazilevic"

    def __init__(self, f, q, params):
        super().__init__(f, q, params)
        self.p = require_comparison_map(params)  # the p the bazilevic rows read
        self.analyticity_radius = min(f.analyticity_radius, self.p.analyticity_radius)
        self._gz = ratio_branch(self.g)  # anchored at log G'(0)
        self._pz = ratio_branch(self.p)
        # the origin's branch data: H = G'(0)^s, R = 1
        self._lb0 = params.s * self._gz.anchor
        self._h0 = cmath.exp(self._lb0)

    # F = z * B^{1/s} with B = (G/z)^s + s(e^t - 1)(p/z)^alpha.
    # The ratio powers take their logs from two branches shared by every
    # point: closed forms where the ratio factors, lattices otherwise.  With
    # H = (G/z)^s, F = G (B/H)^{1/s}: as t runs from 0, e^t - 1 is real and
    # monotone, so B runs along the straight segment from H to B(t), and
    # log B = s log(G/z) + Log(B/H) continues it in t exactly, unless the
    # segment passes through 0.

    @accepts_point("z")
    def branch_data(self, z):
        """(H, R, LB(0)) at z: H = (G/z)^s, R = (p/z)^alpha, LB(0) = s log(G/z),
        both logs continued from the origin through the branches, a block of
        points at a time.  Every time of a call shares them, so a block of
        points against a column of times computes them once."""
        s = self.params.s
        lg, lp = self._gz.log(z), self._pz.log(z)
        return np.exp(s * lg), np.exp(s.real * lp), s * lg

    def _bracket(self, et, big_h, big_r, lb0):
        """B = H + s(e^t - 1)R and log B continued from LB(0) = lb0 along the
        time axis, elementwise, given et = e^t."""
        b = big_h + self.params.s * (et - 1) * big_r
        ratio = b / big_h
        if np.any((np.imag(ratio) == 0) & (np.real(ratio) <= 0)):
            raise BranchTrackingError("chain bracket vanished on the time path")
        return b, lb0 + principal_log(ratio)

    def _evaluate(self, z, t, partials):
        s = self.params.s
        alpha, beta = s.real, s.imag
        et = np.exp(t)
        big_h, big_r, lb0 = self.branch_data(z)
        b, lb = self._bracket(et, big_h, big_r, lb0)
        # at the origin of an array z G'/G and z p'/p are 0/0; the origin's
        # value and partials are 0, set below
        with np.errstate(divide="ignore", invalid="ignore"):
            value = z * np.exp(lb / s)
            if not partials:
                return np.where(z == 0, 0j, value)
            jg = self.g.jet(z)
            jp = self.p.jet(z)
            zgg = z * jg.d1 / jg.value
            zpp = z * jp.d1 / jp.value
            dt = value * et * big_r / b
            zdz = value * (big_h * zgg + (et - 1) * big_r * (alpha * zpp + 1j * beta)) / b
        return ChainPartials(*(np.where(z == 0, 0j, x) for x in (value, dt, zdz)))

    def _a1(self, t):
        _, lb = self._bracket(np.exp(t), self._h0, 1.0, self._lb0)
        return np.exp(lb / self.params.s)

    def _ratio_origin(self, t):
        et = np.exp(t)
        b = self._bracket(et, self._h0, 1.0, self._lb0)[0]
        return finite_where(b != 0, np.divide, et, b)


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
    """Check Re p > 0, optional p in U(k), growth and |a1(t)| monotonicity.

    Each block of points is evaluated at every time in one call, the times
    a column against the block.  The reductions keep the order of a loop
    with the times outer and the points in grid order: each minimum's (z, t)
    is the first in that order within `jets.extremum`'s tolerance of it, and
    failures are listed time by time, each in grid order."""
    grid = grid or DiskGrid()
    times = tuple(times) if times is not None else default_times()
    grid_points = grid.points()
    points = blocks(grid_points, max(len(times), 1))

    a1 = chain.a1(np.array(times, float))
    a1_abs = np.abs(a1).tolist()
    live = np.flatnonzero(a1).tolist()  # times with a1(t) != 0
    col = np.array(times, float)[live, None]
    a1_col = np.abs(a1)[live, None]

    # the stage as (live time x point) arrays, whose row-major order is the
    # order of a loop with the times outer and the points in grid order
    p, g = [np.empty((len(live), 0), complex)], [np.empty((len(live), 0))]
    for z in points if live else ():
        part = chain.partials(z, col)
        p.append(chain.transition_ratio(z, col, part=part))
        g.append(np.abs(part.value) / a1_col)
    p, g = np.concatenate(p, axis=1), np.concatenate(g, axis=1)
    p_ok, g_ok = np.isfinite(p), np.isfinite(g)
    growth_max = float(g.max(initial=0.0, where=p_ok & g_ok))

    # each minimum over the samples where p is finite, and its (z, t) by
    # `jets.extremum`'s rule in times-outer order: the point and the index
    # of the time of a sample
    at = (grid_points, np.array(live, int)[:, None])

    def minimum(x):
        """The least x where p is finite, and its (z, t); (inf, (0j, 0.0))
        when p is finite nowhere."""
        if not p_ok.any():
            return _INF, (0j, 0.0)
        low, (z, i) = extremum(np.where(p_ok, x, _INF), at, least=True)
        return low, (z, times[i])

    re_min, re_arg = minimum(p.real)
    um_min, um_arg = (minimum(u_disk_margin(np.where(p_ok, p, 0), dilatation_bound))
                      if dilatation_bound is not None else (None, None))

    # failures time by time: a1(t) = 0, or the non-finite samples in grid order
    by_time = [[] if a != 0 else [f"a1({t}) = 0"] for t, a in zip(times, a1_abs)]
    rows, cols = np.nonzero(~(p_ok & g_ok))
    for i, z, ratio_ok in zip(np.take(live, rows).tolist(), grid_points[cols].tolist(),
                              p_ok[rows, cols].tolist()):
        what = "|F/a1|" if ratio_ok else "transition ratio"
        t = times[i]
        by_time[i].append(f"{what} not finite at z={z!r}, t={t}")
    failures = [msg for msgs in by_time for msg in msgs]

    if re_min <= 0:
        z, t = re_arg
        failures.append(f"Re p <= 0 at z={z!r}, t={t} (Re p = {re_min:.3g})")
    if dilatation_bound is not None and um_min < -1e-12:
        z, t = um_arg
        failures.append(f"p escapes U({dilatation_bound}) at z={z!r}, t={t} "
                        f"(margin {um_min:.3g})")
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

    It reads F alone, through `chain.value`, which skips the partials.
    When a map the chain evaluates at the angular argument (f, and p for
    the Bazilevic chain) is not analytic past the unit circle, boundary
    evaluations clamp that argument to radius 1 - 1e-6.
    """

    def __init__(self, chain: LoewnerChain):
        self.chain = chain
        self.fixes_infinity = chain.q.fixes_infinity

    @accepts_point("w")
    def __call__(self, w: np.ndarray) -> np.ndarray:
        """fhat elementwise at a 1-D complex array, in one chain call: w at
        time 0 inside the unit circle, w/|w| (clamped) at log |w| outside."""
        r = abs(w)
        inside = r < 1
        with np.errstate(divide="ignore", invalid="ignore"):  # at w = 0
            zb = w / r
            t = np.log(r)
        if self.chain.analyticity_radius <= 1:
            zb = zb * (1 - 1e-6)
        return self.chain.value(np.where(inside, w, zb), np.where(inside, 0.0, t))

    def on_blocks(self, points) -> np.ndarray:
        """fhat at every point, evaluated in blocks of at most grids.BLOCK
        samples, one per point."""
        values = ordered_map(self, blocks(points))
        return np.concatenate(values) if values else np.empty(0, complex)

    def continuity_gap(self, n_angles: int = 256) -> float:
        """Max mismatch of the radial limits across |w| = 1, taken at
        radii 1 -+ 1e-7."""
        w = np.exp(1j * (2 * math.pi * np.arange(n_angles) / n_angles))
        limits = self(np.concatenate([(1 - 1e-7) * w, (1 + 1e-7) * w]))
        return float(np.abs(limits[:n_angles] - limits[n_angles:]).max(initial=0.0))

