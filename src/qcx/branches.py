"""Branch tracking for complex powers, continued from the origin.

Expressions like (f(z)/z)**(s-1) are only well defined once a branch of the
logarithm is chosen.  The principal branch is wrong as soon as the ratio
winds around the origin, so a logarithm is continued along a path from the
origin, where its limit is known (ratios of class-A maps tend to 1 there).
The continuation only decides the winding: every result is snapped to
log fn(z) + 2*pi*i*k, so it depends on fn(z) and k alone, not on the path.

Where the tracked quantity is a ratio m(w)/w that factors as
m'(0) * prod (1 - w/r_j)^e_j, the continuation has a closed form:
`ratio_branch(m)` returns a `FactoredRatio`, log m'(0) + sum e_j Log(1 - w/r_j),
for every map that declares its factors (`AnalyticMap.ratio_factors`: the
identity, Koebe, Cayley, spiral and polynomial maps, and `scaled` ones of
these) unless some root has |r_j| <= 1 and lies below the map's analyticity
radius.  Such a root is a zero of the ratio on the closed unit disk (the
Bazilevic chain queries polynomial maps on |w| = 1), which the branch would
wind round; that map, like every ratio of a combination tree and
Q(f(w))/w of a companion Q other than the identity, takes a
`BranchLattice`: these are the only paths that keep it.  `bazilevic_branch`
picks the branch of a Bazilevic value's ratio that way.  (sector_nw's
1 - f/w0 takes no lattice: the sector hypothesis puts it in a cone where a
turned principal Log is the continued branch, `criteria._sector_log`.)

`tracked_log` continues along one straight segment, one point at a time:
[0, z], or [z0, z] from a point z0 whose logarithm is already known.  A
`BranchLattice` shares that work between all the points one scan, chain
validation or Beltrami stencil asks for, and answers a block of them at
once: `lattice.log(z)` takes a point or a 1-D array.  Its nodes sit at
radii k/48 (0 <= k < 48, so inside the unit disk) on 256 rays.

Growth and block queries are one walk: from nodes whose logs are known,
along collinear sample points (the next nodes of a ray, or a query's steps
from its node), with one fn call on all of them, the turns between samples
and a cumulative sum along each path.  A query at z continues from the
nearest node whose radius is at most |z|.  Each ray grows outward on its
own, only when a block queries it and only out to the deepest node the
block asks of it: every ray that falls short is one path of one walk.  So
no map is evaluated beyond the block's largest radius (the Koebe map has
radius 1), nor on a ray no query uses, and the node logs do not depend on
the order of the blocks that grew them.  No walk takes more than
`grids.BLOCK` samples: a larger growth, or a block of queries with more
steps, takes more walks.

A step that turns by more than _MAX_STEP_IMAG, or where fn vanishes or is
not finite, is repaired one segment at a time: `tracked_log` subdivides
that segment, and the rest of its path takes the repaired winding.  A
path whose repair fails is NaN from there on, and a query that meets such a
NaN is answered per point by `tracked_log` from the node `continue_from`
walks out to, which names the error.  With `continue_from`, tracked_log is
the per-point oracle of `log`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .grids import BLOCK, blocks
from .jets import accepts_point, complex_array
from .maps import CompanionMap, IdentityMap


class BranchTrackingError(ValueError):
    """Continuation failed: the tracked value crossed 0 or winds too fast."""


_MAX_STEP_IMAG = 1.5  # just under pi/2: one step may not rotate this much
_STEPS = 48  # continuation steps per unit length, and the lattice's rings
_TWO_PI = 2 * math.pi


def _wound(principal, arg):
    """principal + 2*pi*i*k: the logarithm, among those of the number whose
    principal logarithm is given, whose argument is nearest `arg`
    (elementwise on arrays)."""
    turns = np.round((arg - principal.imag) / _TWO_PI)
    return complex_array(principal.real, principal.imag + _TWO_PI * turns)


def _turn(arg, prev):
    """The angle from `prev` to `arg`, reduced to [-pi, pi] (elementwise)."""
    d = arg - prev
    return d - _TWO_PI * np.round(d / _TWO_PI)


def tracked_log(fn: Callable[[complex], complex], z: complex, anchor: complex,
                start: complex | None = None) -> complex:
    """log(fn(z)) continued along a segment ending at z.

    Parameters
    ----------
    fn : callable
        Evaluates the tracked quantity at points of the half-open segment
        (start, z].
    z : complex
        Endpoint of the segment.
    anchor : complex
        A logarithm of fn at the start (of its limit lim_{t->0+} fn(t*z)
        when the start is the origin); fixes the branch.
    start : complex, optional
        Where the segment starts; None means the origin.

    The first attempt takes _STEPS steps on a ray [0, z] from the origin,
    and one per 1/_STEPS of the segment's length (at least one) from a
    `start`, the spacing a unit ray gets.  Every step rotating by more than
    _MAX_STEP_IMAG doubles the count, up to 64 times _STEPS.

    Returns
    -------
    complex
        log fn(z) + 2*pi*i*k, with k the winding the continuation picks.
    """
    if start is None:
        start, n = 0j, _STEPS
    else:  # the slack keeps a lattice cell's 1/48 segment at one step
        n = max(1, math.ceil(_STEPS * abs(z - start) - 1e-9))
    if z == start:
        return anchor
    delta = z - start
    while True:
        log_val = anchor
        prev = cmath.exp(anchor)
        ok = True
        for j in range(1, n + 1):
            point = z if j == n else start + delta * (j / n)
            if point == start:
                continue  # a step below floating-point resolution moves nothing
            w = fn(point)
            if w == 0 or not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise BranchTrackingError(
                    "tracked value vanished or became non-finite on the path at "
                    f"{point!r}"
                )
            step = cmath.log(w / prev)
            if abs(step.imag) > _MAX_STEP_IMAG:
                ok = False
                break
            log_val += step
            prev = w
        if ok:
            return complex(_wound(cmath.log(prev), log_val.imag))
        if n >= 64 * _STEPS:
            raise BranchTrackingError(
                "branch tracking did not stabilize: value crosses 0 or winds "
                f"faster than {64 * _STEPS} subdivisions resolve"
            )
        n *= 2


def _ratio_anchor(m) -> complex:
    """log m'(0), the limit of log(m(w)/w) at 0, for a map with m(0) = 0."""
    j0 = m.jet(0j)
    if j0.value != 0:
        raise BranchTrackingError("ratio tracking requires m(0) = 0")
    if j0.d1 == 0:
        raise BranchTrackingError("ratio tracking requires m'(0) != 0")
    return cmath.log(j0.d1)


class FactoredRatio:
    """log(m(w)/w) in closed form, for a map whose ratio factors as
    m'(0) * prod (1 - w/r_j)^e_j (`AnalyticMap.ratio_factors`):
    log m'(0) + sum e_j Log(1 - w/r_j).  At every |w| < |r_j|, 1 - w/r_j
    lies in the right half-plane, where the principal Log is continuous, so
    on a disk that holds no root this is the branch continued from the
    origin that a `BranchLattice` of the same ratio tracks: the same `fn`,
    `anchor` and `log`, without the walk."""

    def __init__(self, m, roots, exponents):
        self.fn = lambda w: m.jet(w).value / w
        self.anchor = _ratio_anchor(m)
        self._map = m
        self._factors = tuple(zip(roots, exponents))

    @accepts_point("z")
    def log(self, z: np.ndarray) -> np.ndarray:
        """The log, elementwise at a 1-D array.  A point at or past m's
        analyticity radius raises m's DomainError, as fn does."""
        if (np.abs(z) >= self._map.analyticity_radius).any():
            self._map.jet(z)
        out = np.full(z.shape, self.anchor)
        with np.errstate(all="ignore"):
            for root, expo in self._factors:
                w = 1 - z / root
                # log|w| + i Arg w: a tenth of the cost of a complex np.log
                out += expo * complex_array(np.log(np.abs(w)), np.angle(w))
        return out


def ratio_branch(m):
    """The branch of log(m(w)/w) continued from the origin: a FactoredRatio
    when m declares its ratio factors and none of its roots r_j has
    |r_j| <= 1 and |r_j| below m's analyticity radius (a root there is a
    zero of m(w)/w on the closed unit disk, which the branch would wind
    round), else `BranchLattice.ratio(m)`."""
    factors = m.ratio_factors()
    if factors is None or any(abs(r) <= 1 and abs(r) < m.analyticity_radius
                              for r in factors[0]):
        return BranchLattice.ratio(m)
    return FactoredRatio(m, *factors)


def bazilevic_branch(f, psi):
    """The log of the ratio a Bazilevic value raises to s - 1: G(w)/w with
    G = Q o f when `psi` is a companion Q, else G = f.  With G = f (a direct
    Psi, or the identity companion) it is `ratio_branch(f)`, in closed form
    when f's ratio factors; G = Q o f of any other Q keeps a lattice."""
    if isinstance(psi, CompanionMap) and not isinstance(psi.base, IdentityMap):
        jf0 = f.jet(0j)
        return BranchLattice(lambda w: psi.jet(f.jet(w).value).value / w,
                             cmath.log(psi.jet(jf0.value).d1 * jf0.d1))
    return ratio_branch(f)


def tracked_ratio_log(m, z: complex) -> complex:
    """log(m(z)/z) continued along [0, z], anchored at log(m'(0)).

    `m` is any jet-capable map with m(0) = 0; for class-A maps the anchor is
    log(1) = 0 and the ratio starts at 1.
    """
    anchor = _ratio_anchor(m)
    if z == 0:
        return anchor
    return tracked_log(lambda w: m.jet(w).value / w, z, anchor)


def _bad_steps(w, turn):
    """Where a continuation step cannot be taken whole: fn vanishes or is not
    finite there, or the step turns by more than _MAX_STEP_IMAG."""
    return (w == 0) | ~np.isfinite(w) | (np.abs(turn) > _MAX_STEP_IMAG)


def _paths(n):
    """Paths laid end to end, path i taking n[i] >= 1 samples: the path of
    every sample, and each path's first and last sample."""
    last = np.cumsum(n) - 1
    return np.repeat(np.arange(len(n)), n), last - n + 1, last


class BranchLattice:
    """log fn continued from the origin once, for every query to share.

    `log(z)` answers a point or a 1-D array of points; `fn` must evaluate
    elementwise on a 1-D complex array.  Each ray grows on its own, only as
    far out as a query needs.
    """

    RAYS = 256
    RINGS = _STEPS  # node radii k / RINGS for 0 <= k < RINGS
    # the unit vector of every ray, as cmath.rect gives it
    _UNIT = np.array([cmath.rect(1.0, angle)
                      for angle in _TWO_PI * np.arange(RAYS) / RAYS])

    def __init__(self, fn: Callable[[complex], complex], anchor: complex):
        self.fn = fn
        self.anchor = anchor
        # ring -> ray -> log fn at the node; NaN on the rings a ray has not
        # grown to, and past a node the ray could not reach, which only a
        # query continuing from it reports
        self._logs = np.full((self.RINGS, self.RAYS), np.nan, complex)
        self._logs[0] = anchor
        self._height = np.ones(self.RAYS, np.int8)  # rings grown along each ray, <= RINGS

    @classmethod
    def ratio(cls, m) -> "BranchLattice":
        """The lattice of log(m(w)/w), anchored at log m'(0) (m(0) = 0)."""
        return cls(lambda w: m.jet(w).value / w, _ratio_anchor(m))

    def _node(self, z):
        """Ring and ray of the node a query at z continues from: the nearest
        ray's node at the largest radius k/RINGS <= |z| (elementwise)."""
        ring = np.minimum((np.abs(z) * self.RINGS).astype(int), self.RINGS - 1)
        ray = np.round(np.angle(z) * self.RAYS / _TWO_PI).astype(int) % self.RAYS
        return ring, ray

    def continue_from(self, z: complex) -> dict:
        """tracked_log's `anchor` and `start` at the node a query at z uses,
        the node's log walked out from the origin one segment at a time (the
        per-point oracle of `log`, which shares nothing with it)."""
        ring, ray = self._node(z)
        u = complex(self._UNIT[ray])
        log = self.anchor
        for i in range(1, ring + 1):
            log = tracked_log(self.fn, u * (i / self.RINGS), log,
                              start=u * ((i - 1) / self.RINGS))
        return {"anchor": log, "start": u * (ring / self.RINGS)}

    def _walk(self, start, anchor, points, path, first, last):
        """fn at `points` and its argument continued from known logs, path
        after path (see _paths): path i leaves start[i], where log fn is
        anchor[i], and visits its points in order along one segment.  One
        fn call on all the points; a bad step is repaired on its own segment
        by tracked_log, and a path whose anchor is NaN, or whose repair
        fails, is NaN from there on."""
        if not points.size:
            return points, points.real
        w = self.fn(points)
        arg = np.angle(w)
        prev = np.empty_like(arg)
        prev[1:] = arg[:-1]
        prev[first] = anchor.imag
        turn = _turn(arg, prev)
        bad = _bad_steps(w, turn)
        # a NaN turn is a NaN anchor's, or a bad step's: it must not reach
        # the other paths through the cumulative sum
        turn[~np.isfinite(turn)] = 0
        total = np.cumsum(turn)
        wind = (anchor.imag - (total - turn)[first])[path] + total
        for k in np.flatnonzero(bad):  # path by path, outward
            if np.isnan(wind[k]):
                continue  # its path already broke
            i = path[k]
            below, at = ((anchor[i], start[i]) if k == first[i] else
                         (_wound(cmath.log(w[k - 1]), wind[k - 1]), points[k - 1]))
            end = last[i] + 1
            try:
                fixed = tracked_log(self.fn, complex(points[k]), complex(below),
                                    start=complex(at))
            except BranchTrackingError:
                wind[k:end] = np.nan
                continue
            wind[k:end] += fixed.imag - wind[k]
        return w, wind

    def _grow(self, ring, ray):
        """The node logs at (ring, ray), elementwise, once every ray is
        continued out to the deepest ring asked of it: one walk along each
        ray that falls short, over its new nodes, at most BLOCK nodes per fn
        call."""
        need = np.full(self.RAYS, -1)  # the deepest ring asked of each ray
        np.maximum.at(need, ray, ring)
        while True:
            short = np.flatnonzero(self._height <= need)
            if not short.size:
                return self._logs[ring, ray]
            low = self._height[short].astype(int)  # each short ray's first new ring
            # each short ray gets an equal share of the node budget
            top = np.minimum(need[short], low + BLOCK // short.size - 1)
            path, first, last = _paths(top - low + 1)
            rings = low[path] + (np.arange(path.size) - first[path])
            rays = short[path]
            w, wind = self._walk(self._UNIT[short] * ((low - 1) / self.RINGS),
                                 self._logs[low - 1, short],
                                 self._UNIT[rays] * (rings / self.RINGS),
                                 path, first, last)
            # a node's log only carries its winding to the queries,
            # whose results are wound from fn at their own point: the
            # cheap real logarithm log|w| does for its real part
            self._logs[rings, rays] = _wound(
                complex_array(np.log(np.abs(w)), np.angle(w)), wind)
            self._height[short] = top + 1

    @accepts_point("z")
    def log(self, z: np.ndarray) -> np.ndarray:
        """log fn at z, continued from the origin, elementwise on a 1-D
        array.  Equal, up to rounding, to
        `tracked_log(self.fn, z, **self.continue_from(z))`."""
        zs = z.astype(complex, copy=False)
        with np.errstate(all="ignore"):
            ring, ray = self._node(zs)
            out = self._grow(ring, ray)
            start = self._UNIT[ray] * (ring / self.RINGS)
            q = np.flatnonzero(zs != start)  # a query on its node takes its log
            delta = zs - start
            n = np.maximum(1, np.ceil(self.RINGS * np.abs(delta) - 1e-9)).astype(int)
            # each query's steps, tracked_log's first attempt from its node,
            # at most BLOCK of them a walk; the last is the query point itself
            for part in blocks(q, n[q].max(initial=1)):
                path, first, last = _paths(n[part])
                back = last[path] - np.arange(path.size)  # steps still to take
                at = part[path]
                points = zs[at] - delta[at] * (back / n[at])
                w, wind = self._walk(start[part], out[part], points, path, first, last)
                out[part] = _wound(np.log(w[last]), wind[last])
        for i in np.flatnonzero(~np.isfinite(out)):  # input order: the first error raises
            zi = complex(zs[i])
            out[i] = tracked_log(self.fn, zi, **self.continue_from(zi))
        return out
