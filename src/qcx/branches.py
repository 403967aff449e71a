"""Branch tracking for complex powers, continued from the origin.

Expressions like (f(z)/z)**(s-1) are only well defined once a branch of the
logarithm is chosen.  The principal branch is wrong as soon as the ratio
winds around the origin, so a logarithm is continued along a path from the
origin, where its limit is known (ratios of class-A maps tend to 1 there).
The continuation only decides the winding: every result is snapped to
log fn(z) + 2*pi*i*k, so it depends on fn(z) and k alone, not on the path.

`tracked_log` continues along one straight segment, one point at a time:
[0, z], or [z0, z] from a point z0 whose logarithm is already known.  A
`BranchLattice` shares that work between all the points one scan, chain
validation or Beltrami stencil asks for, and answers a block of them at
once: `lattice.log(z)` takes a point or a 1-D array.  Its nodes sit at
radii k/48 (0 <= k < 48, so inside the unit disk) on 256 rays.  The lattice
grows outward, all rays together and only as far out as a block needs:
one fn call on the nodes of up to eight new rings, one log step per segment
and a cumulative sum along each ray.  A query at z continues from the nearest
node whose radius is at most |z| along one short segment, in tracked_log's
steps, each one fn call for the whole block; so no map is evaluated beyond
the block's largest radius (the Koebe map has radius 1).  The few rays or
points where a step turns by more than _MAX_STEP_IMAG, or where fn vanishes
or is not finite, fall back to `tracked_log`, which subdivides the step or
raises.  `continue_from` walks a ray node by node with `tracked_log`: with
it, tracked_log is the per-point oracle of `log`.
"""

from __future__ import annotations

import cmath
import math
import threading
from typing import Callable

import numpy as np

from .jets import lib


class BranchTrackingError(ValueError):
    """Continuation failed: the tracked value crossed 0 or winds too fast."""


_MAX_STEP_IMAG = 1.5  # just under pi/2: one step may not rotate this much
_TWO_PI = 2 * math.pi


def _wound(principal, arg):
    """principal + 2*pi*i*k: the logarithm, among those of the number whose
    principal logarithm is given, whose argument is nearest `arg`
    (elementwise on arrays)."""
    turns = np.round((arg - principal.imag) / _TWO_PI)
    return lib(principal).complex(principal.real, principal.imag + _TWO_PI * turns)


def _turn(arg, prev):
    """The angle from `prev` to `arg`, reduced to [-pi, pi] (elementwise)."""
    d = arg - prev
    return d - _TWO_PI * np.round(d / _TWO_PI)


def tracked_log(fn: Callable[[complex], complex], z: complex, anchor: complex,
                initial_steps: int = 48, max_steps: int = 3072,
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
    initial_steps : int
        Steps of the first attempt: all of them on the ray [0, z] when
        `start` is None; with a `start`, one per 1/initial_steps of the
        segment's length (at least one), the spacing a unit ray gets.
        Every step rotating by more than _MAX_STEP_IMAG doubles the count,
        up to `max_steps`.
    start : complex, optional
        Where the segment starts; None means the origin.

    Returns
    -------
    complex
        log fn(z) + 2*pi*i*k, with k the winding the continuation picks.
    """
    if start is None:
        start, n = 0j, initial_steps
    else:  # the slack keeps a lattice cell's 1/48 segment at one step
        n = max(1, math.ceil(initial_steps * abs(z - start) - 1e-9))
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
            return _wound(cmath.log(prev), log_val.imag)
        if n >= max_steps:
            raise BranchTrackingError(
                "branch tracking did not stabilize: value crosses 0 or winds "
                f"faster than {max_steps} subdivisions resolve"
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


def tracked_ratio_log(m, z: complex, initial_steps: int = 48) -> complex:
    """log(m(z)/z) continued along [0, z], anchored at log(m'(0)).

    `m` is any jet-capable map with m(0) = 0; for class-A maps the anchor is
    log(1) = 0 and the ratio starts at 1.
    """
    anchor = _ratio_anchor(m)
    if z == 0:
        return anchor
    return tracked_log(lambda w: m.jet(w).value / w, z, anchor, initial_steps)


def _bad_steps(w, turn):
    """Where a continuation step cannot be taken whole: fn vanishes or is not
    finite there, or the step turns by more than _MAX_STEP_IMAG."""
    return (w == 0) | ~np.isfinite(w) | (np.abs(turn) > _MAX_STEP_IMAG)


class BranchLattice:
    """log fn continued from the origin once, for every query to share.

    `log(z)` answers a point or a 1-D array of points; `fn` must evaluate
    elementwise on a 1-D complex array.  Rings are grown under a lock, so
    threaded scans share one lattice safely.
    """

    RAYS = 256
    RINGS = 48  # node radii k / RINGS for 0 <= k < RINGS
    GROW = 8  # rings per fn call: 2048 nodes, which bounds growth's temporaries
    # the unit vector of every ray, as cmath.rect gives it
    _UNIT = np.array([cmath.rect(1.0, angle)
                      for angle in _TWO_PI * np.arange(RAYS) / RAYS])

    def __init__(self, fn: Callable[[complex], complex], anchor: complex):
        self.fn = fn
        self.anchor = anchor
        # ring -> ray -> log fn at the node; NaN past a node a ray could not
        # reach, which only a query continuing from it reports
        self._logs = np.full((1, self.RAYS), complex(anchor))
        self._lock = threading.Lock()

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

    def _grow(self, ring: int) -> np.ndarray:
        """The node logs, every ray continued out to `ring` at least."""
        logs = self._logs
        if len(logs) > ring:
            return logs
        with self._lock:
            while len(self._logs) <= ring:
                self._logs = self._rings(min(ring, len(self._logs) + self.GROW - 1))
            return self._logs

    def _rings(self, ring: int) -> np.ndarray:
        """The node logs with every ray continued out to `ring`: one fn
        call on the new nodes."""
        logs = self._logs
        first = len(logs)
        radii = np.arange(first, ring + 1) / self.RINGS
        nodes = self._UNIT * radii[:, None]
        w = self.fn(nodes.ravel()).reshape(nodes.shape)
        arg = np.angle(w)
        turn = _turn(arg, np.concatenate([logs[-1:].imag, arg[:-1]]))
        wind = logs[-1].imag + np.cumsum(turn, axis=0)
        # the scalar walk of a segment that cannot be taken in one step
        # fixes that segment's winding, and so the rest of its ray's
        broken = ~np.isfinite(logs[-1])
        for i, ray in zip(*np.nonzero(_bad_steps(w, turn))):
            if broken[ray]:
                continue
            below = (logs[-1, ray] if i == 0
                     else _wound(cmath.log(w[i - 1, ray]), wind[i - 1, ray]))
            u = complex(self._UNIT[ray])
            try:
                fixed = tracked_log(self.fn, u * ((first + i) / self.RINGS),
                                    below,
                                    start=u * ((first + i - 1) / self.RINGS))
            except BranchTrackingError:
                broken[ray] = True
                wind[i:, ray] = np.nan
                continue
            wind[i:, ray] += fixed.imag - wind[i, ray]
        # a node's log only carries its winding to the queries, whose
        # results are wound from fn at their own point: the cheap real
        # logarithm log|w| does for its real part
        new = _wound(lib(w).complex(np.log(np.abs(w)), arg), wind)
        return np.concatenate([logs, new])

    def log(self, z):
        """log fn at z, continued from the origin: a point, or elementwise a
        1-D array.  Equal, up to rounding, to
        `tracked_log(self.fn, z, **self.continue_from(z))`."""
        zs = np.atleast_1d(np.asarray(z, complex))
        with np.errstate(all="ignore"):
            ring, ray = self._node(zs)
            logs = self._grow(int(ring.max(initial=0)))
            anchor = logs[ring, ray]
            start = self._UNIT[ray] * (ring / self.RINGS)
            delta = zs - start
            n = np.maximum(1, np.ceil(self.RINGS * np.abs(delta) - 1e-9)).astype(int)
            moving = zs != start  # a query on its node takes the node's log
            fallback = ~np.isfinite(anchor)  # its ray broke: walk it per point
            wind, last = anchor.imag.copy(), np.empty_like(zs)
            for j in range(1, int(n[moving].max(initial=0)) + 1):
                point = np.where(j == n, zs, start + delta * (j / n))
                live = np.flatnonzero(moving & ~fallback & (j <= n)
                                      & (point != start))
                if not live.size:
                    continue
                w = self.fn(point[live])
                arg = np.angle(w)
                turn = _turn(arg, wind[live])
                bad = _bad_steps(w, turn)
                fallback[live[bad]] = True
                live, ok = live[~bad], ~bad
                wind[live] += turn[ok]
                last[live] = w[ok]
            out = anchor.copy()
            done = moving & ~fallback
            out[done] = _wound(np.log(last[done]), wind[done])
        for i in np.flatnonzero(fallback):  # input order: the first error raises
            q = complex(zs[i])
            node = ({"anchor": complex(anchor[i]), "start": complex(start[i])}
                    if np.isfinite(anchor[i]) else self.continue_from(q))
            out[i] = tracked_log(self.fn, q, **node)
        return out if type(z) is np.ndarray else complex(out[0])
