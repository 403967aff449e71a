"""Branch tracking for complex powers, continued from the origin.

Expressions like (f(z)/z)**(s-1) are only well defined once a branch of the
logarithm is chosen.  The principal branch is wrong as soon as the ratio
winds around the origin, so a logarithm is continued along a path from the
origin, where its limit is known (ratios of class-A maps tend to 1 there).
The continuation only decides the winding: every result is snapped to
log fn(z) + 2*pi*i*k, so it depends on fn(z) and k alone, not on the path.

`tracked_log` continues along one straight segment: [0, z], or [z0, z] from
a point z0 whose logarithm is already known.  A `BranchLattice` shares that
work between all the points one scan, chain validation or Beltrami stencil
asks for.  Its nodes sit at radii k/48 (0 <= k < 48, so inside the unit
disk) on 256 rays; a ray is continued outward node by node once, and only
as far as a query needs.  A query at z continues from the nearest node
whose radius is at most |z| along one short segment, so no map is
evaluated beyond the query's radius (the Koebe map has radius 1).
"""

from __future__ import annotations

import cmath
import math
import threading
from typing import Callable


class BranchTrackingError(ValueError):
    """Continuation failed: the tracked value crossed 0 or winds too fast."""


_MAX_STEP_IMAG = 1.5  # just under pi/2: one step may not rotate this much


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
            principal = cmath.log(prev)
            turns = round((log_val.imag - principal.imag) / (2 * math.pi))
            return complex(principal.real, principal.imag + 2 * math.pi * turns)
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


class BranchLattice:
    """log fn continued from the origin once, for every query to share.

    A query at z is `tracked_log(lattice.fn, z, **lattice.continue_from(z))`:
    the nearest node supplies the segment start and its logarithm.  Rays are
    walked lazily under a lock, so threaded scans share one lattice safely.
    """

    RAYS = 256
    RINGS = 48  # node radii k / RINGS for 0 <= k < RINGS

    def __init__(self, fn: Callable[[complex], complex], anchor: complex):
        self.fn = fn
        self.anchor = anchor
        self._logs: dict[int, list[complex]] = {}  # ray -> logs at its nodes
        self._lock = threading.Lock()

    @classmethod
    def ratio(cls, m) -> "BranchLattice":
        """The lattice of log(m(w)/w), anchored at log m'(0) (m(0) = 0)."""
        return cls(lambda w: m.jet(w).value / w, _ratio_anchor(m))

    def continue_from(self, z: complex) -> dict:
        """tracked_log's `anchor` and `start` at the node a query at z uses."""
        r = abs(z)
        k = min(int(r * self.RINGS), self.RINGS - 1)
        if k == 0:
            return {"anchor": self.anchor, "start": 0j}
        ray = round(cmath.phase(z) * self.RAYS / (2 * math.pi)) % self.RAYS
        u = cmath.rect(1.0, 2 * math.pi * ray / self.RAYS)
        with self._lock:
            logs = self._logs.setdefault(ray, [self.anchor])
            while len(logs) <= k:
                i = len(logs)
                logs.append(tracked_log(self.fn, u * (i / self.RINGS), logs[-1],
                                        start=u * ((i - 1) / self.RINGS)))
        return {"anchor": logs[k], "start": u * (k / self.RINGS)}
