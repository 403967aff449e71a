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
wind round; that map, like every ratio of a combination tree (such as
G = Q o f, `CompanionMap.after`, of any Q but the identity), takes a
`BranchLattice`: these are the only paths that keep it.  A Bazilevic
value's ratio is `ratio_branch(G)`.  (sector_nw's 1 - f/w0 takes no
lattice: the sector hypothesis puts it in a cone where a turned principal
Log is the continued branch, `criteria._sector_log`.)

A `BranchLattice` continues log g for g = m(w)/w of a jet-capable map m by
the argument principle: log g(z) = log g(0) + the integral of g'/g along
[0, z], where one jet call gives both g and g'/g = m'/m - 1/w.  It shares
that work between all the points one scan, chain validation or Beltrami
stencil asks for: `lattice.log(z)` takes a point or a 1-D array.  Its nodes
sit at radii k/48 (0 <= k < 48, so inside the unit disk) on 256 rays.

Every step of the lattice, from a sample point a to the next one b, takes
one rule: the turn of g between its sampled arguments, reduced modulo 2 pi
around Im of the integral of g'/g over [a, b], which only has to be right
to within pi.  The integral is a 4-node Gauss-Legendre rule, and its gap to
the 2-node rule estimates its error: a plain difference, which cannot alias
as a miss modulo 2 pi can.  A step whose gap exceeds _GAP is halved, which
samples g at its midpoint.  A zero or pole of g near a step's end keeps the
gap near 1.2 times its order at every scale while the error grows like the
log of the step over the distance, so the gap is held to 0.1, which keeps
that error under pi down to the distance floating point resolves, and
_HALVINGS = 40 grades a step down to about 1e-14 from such a point (a
query 1e-7 from a pole, as the extension's continuity check makes, takes
16 or 17 halvings).  A step still unresolved then, or a sample where g
vanishes or is not finite, raises BranchTrackingError naming the point.

Growth and block queries are one walk, along collinear sample points (the
next nodes of a ray, or a query) from nodes whose logs are known: one
evaluation of all of them, the turn of each step and a cumulative sum along
each path.  A query at z takes one step from the nearest ray's node at the
largest radius at most |z|.  Each ray grows outward on its own, only when a
block queries it and only out to the deepest node the block asks of it.
So no map is evaluated beyond the block's largest radius (the Koebe map has
radius 1), nor on a ray no query uses, and the node logs do not depend on
the order of the blocks that grew them.  No jet call sees more than
`grids.BLOCK` samples, the rule's nodes counted.

`tracked_log` continues along [0, z] one point at a time, by sampled turns
alone, subdividing while a step turns by more than _MAX_STEP_IMAG.  It
shares nothing with the lattice: it is the per-point oracle of the
tests.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .grids import BLOCK, blocks
from .jets import accepts_point, complex_array, first_where, principal_log


class BranchTrackingError(ValueError):
    """Continuation failed: the tracked value crossed 0 or winds too fast."""


_MAX_STEP_IMAG = 1.5  # just under pi/2: one step may not rotate this much
_STEPS = 48  # tracked_log's steps per unit length, and the lattice's rings
_TWO_PI = 2 * math.pi

# in closed form, on [0, 1]: the nodes of the 4-node Gauss-Legendre rule,
# then of the 2-node rule; the 4-node rule's weights; and that rule less
# the 2-node rule
_X = (math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)), math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
      1 / math.sqrt(3))
_NODES = (1 + np.array([-_X[0], -_X[1], _X[1], _X[0], -_X[2], _X[2]])) / 2
_OUTER, _INNER = (18 - math.sqrt(30)) / 72, (18 + math.sqrt(30)) / 72
_RULE = np.array([_OUTER, _INNER, _INNER, _OUTER, 0, 0])
_GAP_RULE = _RULE - np.array([0, 0, 0, 0, 0.5, 0.5])
_GAP = 0.1  # the largest gap a lattice step may keep
_HALVINGS = 40  # how often a lattice step may be halved
_TINY = 1e-300  # below this radius g is m'(0) + O(w) to double precision


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


def tracked_log(fn: Callable[[complex], complex], z: complex, anchor: complex) -> complex:
    """log(fn(z)) continued along [0, z].

    Parameters
    ----------
    fn : callable
        Evaluates the tracked quantity at points of the half-open segment
        (0, z].
    z : complex
        Endpoint of the segment.
    anchor : complex
        A logarithm of the limit lim_{t->0+} fn(t*z); fixes the branch.

    The first attempt takes _STEPS steps.  Every step rotating by more than
    _MAX_STEP_IMAG doubles the count, up to 64 times _STEPS.  Within about
    1e-6 of a pole of fn the last sampled step can turn past pi and return a
    branch 2*pi off (`tracked_ratio_log(SpiralMap(1.2), 1 - 1e-6)`), so the
    tests compare the lattice with closed forms there.

    Returns
    -------
    complex
        log fn(z) + 2*pi*i*k, with k the winding the continuation picks.
    """
    z = complex(z)
    if z == 0:
        return anchor
    n = _STEPS
    while True:
        log_val = anchor
        prev = cmath.exp(anchor)
        ok = True
        for j in range(1, n + 1):
            point = z if j == n else z * (j / n)
            if point == 0:
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
    """log m'(0), the limit of log(m(w)/w) at 0, for a map with m(0) = 0 to
    1e-12, the tolerance the criteria and chains hold Q(0) to."""
    j0 = m.jet(0j)
    if abs(j0.value) > 1e-12:
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
    origin that a `BranchLattice` of the same ratio tracks: the same
    `anchor` and `log`, without the walk."""

    def __init__(self, m, roots, exponents):
        self.anchor = _ratio_anchor(m)
        self._map = m
        self._factors = tuple(zip(roots, exponents))

    @accepts_point("z")
    def log(self, z: np.ndarray) -> np.ndarray:
        """The log, elementwise at a 1-D array.  A point at or past m's
        analyticity radius raises m's DomainError, as m.jet does."""
        if (np.abs(z) >= self._map.analyticity_radius).any():
            self._map.jet(z)
        out = np.full(z.shape, self.anchor)
        with np.errstate(all="ignore"):
            for root, expo in self._factors:
                out += expo * principal_log(1 - z / root)
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


def tracked_ratio_log(m, z: complex) -> complex:
    """log(m(z)/z) continued along [0, z], anchored at log(m'(0)).

    `m` is any jet-capable map with m(0) = 0; for class-A maps the anchor is
    log(1) = 0 and the ratio starts at 1.
    """
    return tracked_log(lambda w: m.jet(w).value / w, z, _ratio_anchor(m))


class BranchLattice:
    """log(m(w)/w) of a jet-capable map m, continued from the origin, where
    it is `anchor`, once for every query to share.

    `log(z)` answers a point or a 1-D array of points.  Each ray grows on
    its own, only as far out as a query needs.
    """

    RAYS = 256
    RINGS = _STEPS  # node radii k / RINGS for 0 <= k < RINGS
    # the unit vector of every ray, as cmath.rect gives it
    _UNIT = np.array([cmath.rect(1.0, angle)
                      for angle in _TWO_PI * np.arange(RAYS) / RAYS])

    def __init__(self, m, anchor: complex):
        self.anchor = anchor
        self._map = m
        # ring -> ray -> log g at the node; NaN on the rings a ray has not
        # grown to
        self._logs = np.full((self.RINGS, self.RAYS), np.nan, complex)
        self._logs[0] = anchor
        self._height = np.ones(self.RAYS, np.int8)  # rings grown along each ray, <= RINGS

    @classmethod
    def ratio(cls, m) -> "BranchLattice":
        """The lattice of log(m(w)/w), anchored at log m'(0) (m(0) = 0)."""
        return cls(m, _ratio_anchor(m))

    def _node(self, z):
        """Ring and ray of the node a query at z continues from: the nearest
        ray's node at the largest radius k/RINGS <= |z| (elementwise)."""
        ring = np.minimum((np.abs(z) * self.RINGS).astype(int), self.RINGS - 1)
        ray = np.round(np.angle(z) * self.RAYS / _TWO_PI).astype(int) % self.RAYS
        return ring, ray

    def _sample(self, w):
        """g = m(w)/w and g'/g = m'/m - 1/w at a 1-D array of points, with
        g's removable singularity at 0 filled in (g = m', g'/g = m''/2m'
        within _TINY of it).  Raises at the first point where g vanishes or
        is not finite, which leaves g'/g not finite."""
        j = self._map.jet(w)
        tiny = np.abs(w) < _TINY
        g = np.where(tiny, j.d1, j.value / w)
        dlog = np.where(tiny, j.d2 / (2 * j.d1), (j.d1 - g) / (w * g))
        bad = first_where(~np.isfinite(dlog), w)
        if bad is not None:
            raise BranchTrackingError(
                f"tracked value vanished or became non-finite on the path at {bad!r}")
        return g, dlog

    def _turns(self, a, b, arg_a, arg_b, halvings=0):
        """The turn of g over each step [a, b] whose ends have the sampled
        arguments arg_a and arg_b: that turn reduced modulo 2 pi around Im of
        the 4-node rule's integral of g'/g over the step.  A step where that
        integral is more than _GAP from the 2-node rule's is halved, at most
        _HALVINGS times."""
        nodes = a[:, None] + (b - a)[:, None] * _NODES
        dlog = self._sample(nodes.ravel())[1].reshape(nodes.shape) * (b - a)[:, None]
        about = (dlog @ _RULE).imag
        turn = about + _turn(arg_b - about, arg_a)
        split = np.abs(dlog @ _GAP_RULE) > _GAP
        if split.any():
            if halvings == _HALVINGS:
                raise BranchTrackingError(
                    "branch tracking did not stabilize: value crosses 0 or winds "
                    f"faster than {_HALVINGS} halvings resolve, on the step to "
                    f"{first_where(split, b)!r}")
            a, b, arg_a, arg_b = a[split], b[split], arg_a[split], arg_b[split]
            mid = (a + b) / 2
            arg_mid = np.angle(self._sample(mid)[0])
            turn[split] = (self._turns(a, mid, arg_a, arg_mid, halvings + 1)
                           + self._turns(mid, b, arg_mid, arg_b, halvings + 1))
        return turn

    def _walk(self, start, anchor, points, path, first):
        """g at `points` and its argument continued from known logs, path
        after path: path i holds the points from first[i] on (path[k] is
        the path of point k), in order along one segment from a point whose
        log g is anchor[i], and the step to points[k] starts at start[k].
        One evaluation of all the points, the turn of every step, and a
        cumulative sum along each path."""
        g = self._sample(points)[0]
        arg = np.angle(g)
        prev = np.empty_like(arg)
        prev[1:] = arg[:-1]
        prev[first] = anchor.imag
        turn = self._turns(start, points, prev, arg)
        total = np.cumsum(turn)
        return g, (anchor.imag - (total - turn)[first])[path] + total

    def _grow(self, ring, ray):
        """The node logs at (ring, ray), elementwise, once every ray is
        continued out to the deepest ring asked of it: one walk along each
        ray that falls short, over its new nodes, with at most BLOCK samples
        in any jet call."""
        need = np.full(self.RAYS, -1)  # the deepest ring asked of each ray
        np.maximum.at(need, ray, ring)
        steps = BLOCK // _NODES.size  # the steps a walk may take
        while True:
            short = np.flatnonzero(self._height <= need)[:steps]
            if not short.size:
                return self._logs[ring, ray]
            low = self._height[short].astype(int)  # each short ray's first new ring
            # each short ray gets an equal share of the steps
            top = np.minimum(need[short], low + steps // short.size - 1)
            n = top - low + 1  # the new nodes of each short ray, one path each
            first = np.cumsum(n) - n
            path = np.repeat(np.arange(n.size), n)
            rings = low[path] + (np.arange(path.size) - first[path])
            rays = short[path]
            g, wind = self._walk(self._UNIT[rays] * ((rings - 1) / self.RINGS),
                                 self._logs[low - 1, short],
                                 self._UNIT[rays] * (rings / self.RINGS), path, first)
            self._logs[rings, rays] = _wound(principal_log(g), wind)
            self._height[short] = top + 1

    @accepts_point("z")
    def log(self, z: np.ndarray) -> np.ndarray:
        """log(m(z)/z) continued from the origin, elementwise on a 1-D
        array: each query takes one step from its node."""
        zs = z.astype(complex, copy=False)
        with np.errstate(all="ignore"):
            ring, ray = self._node(zs)
            out = self._grow(ring, ray)
            start = self._UNIT[ray] * (ring / self.RINGS)
            q = np.flatnonzero(zs != start)  # a query on its node takes its log
            for part in blocks(q, _NODES.size):
                one = np.arange(part.size)
                g, wind = self._walk(start[part], out[part], zs[part], one, one)
                out[part] = _wound(principal_log(g), wind)
        return out
