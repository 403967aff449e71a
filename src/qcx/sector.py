"""Sector domains, the conformal power map onto the half-plane, and its
explicit |1-a|-quasiconformal extension to the whole plane.

A sector with vertex w0, initial ray at angle pi*lambda0 and opening pi*a
(both in units of pi, a in (0, 2)) is mapped onto the upper half-plane by

    Q2(w) = (e^{-i pi lambda0} (w - w0))^{1/a},

with the power taken on the branch arg in (0, 2pi) so the image argument
lands in (0, pi).  The plane extension P is conformal (z^{1/a}) on the
sector and a radial power stretch on the complementary sector; the stretch
side is reached through the rotation e^{-i pi a} z, which is what makes the
two branches agree on both shared boundary rays (an executable fact, see
the continuity tests).

The power map, the plane extension, its inverse and the seam indicators
are elementwise on a 1-D complex array; a point is evaluated as a
one-element array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grids import DiskGrid, blocks
from .jets import (DomainError, Jet2, PreconditionError, accepts_point, complex_array,
                   extremum, first_where, piecewise)
from .maps import AnalyticMap, CompanionMap

_TWO_PI = 2 * math.pi


class ContainmentError(PreconditionError):
    """A fitted or supplied sector fails to contain the sampled image."""


@dataclass(frozen=True)
class SectorDomain:
    """Infinite angular sector: pi*lambda0 < arg(w - w0) < pi*(lambda0 + a)."""

    w0: complex
    lambda0: float
    a: float

    def __post_init__(self):
        if not 0 < self.a < 2:
            raise PreconditionError("sector opening a must lie in (0, 2)")
        if not 0 <= self.lambda0 < 2:
            raise PreconditionError("lambda0 must lie in [0, 2)")
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "_rot", cmath.exp(-1j * math.pi * self.lambda0))

    @accepts_point("w")
    def local_angle(self, w: np.ndarray) -> np.ndarray:
        """arg(e^{-i pi lambda0}(w - w0)) reduced to [0, 2pi)."""
        return _arg_0_2pi(self._rot * (w - self.w0))

    @accepts_point("w")
    def contains(self, w: np.ndarray) -> np.ndarray:
        return self._contains_at(w, self.local_angle(w))

    def _contains_at(self, w: np.ndarray, ang: np.ndarray) -> np.ndarray:
        """contains(w), given ang = local_angle(w)."""
        inside = (0 < ang) & (ang < math.pi * self.a)
        return np.where(w != self.w0, inside, False)


@accepts_point("w")
def _q2_jet(sec: SectorDomain, w: np.ndarray) -> Jet2:
    """The jet of the unnormalized Q2 at w, inside the sector."""
    ang = sec.local_angle(w)
    bad = first_where(~sec._contains_at(w, ang), w)
    if bad is not None:
        raise DomainError(f"w = {bad!r} outside the sector domain")
    zeta = sec._rot * (w - sec.w0)
    inv_a = 1 / sec.a
    val = np.exp(inv_a * complex_array(np.log(abs(zeta)), ang))
    d1 = inv_a * val / (w - sec.w0)
    d2 = inv_a * (inv_a - 1) * val / ((w - sec.w0) ** 2)
    return Jet2(val, d1, d2)


def _q2_scale(sector: SectorDomain, normalized: bool) -> complex:
    """1/Q2'(0) when normalized, which requires 0 inside the sector; else 1."""
    if not normalized:
        return 1 + 0j
    if not sector.contains(0j):
        raise PreconditionError("normalization requires the origin inside the sector")
    return 1 / _q2_jet(sector, 0j).d1


class SectorPowerMap(AnalyticMap):
    """The conformal map of the sector onto the upper half-plane, as jets.

    With `normalized=True` the map is divided by its derivative at 0, so the
    derivative condition at the origin is exactly 1; this requires 0 to lie
    inside the sector.
    """

    def __init__(self, sector: SectorDomain, normalized: bool = False):
        self.sector = sector
        self.normalized = bool(normalized)
        self._scale = _q2_scale(sector, normalized)

    @accepts_point("w")
    def jet(self, w: np.ndarray) -> Jet2:
        return _q2_jet(self.sector, w).scale(self._scale)


def companion_from_sector(sector: SectorDomain, normalized: bool = True) -> CompanionMap:
    """The sector map as a companion with its declared dilatation |1 - a|."""
    base = SectorPowerMap(sector, normalized=normalized)
    return CompanionMap(base, abs(1 - sector.a), True, "sector")


# ---------------------------------------------------------------------------
# the plane extension P
# ---------------------------------------------------------------------------


def _arg_0_2pi(z: np.ndarray) -> np.ndarray:
    return np.arctan2(z.imag, z.real) % _TWO_PI


def _power(z: np.ndarray, ang: np.ndarray, p: float) -> np.ndarray:
    """z^p on the branch with arg z = ang."""
    return np.exp(p * complex_array(np.log(abs(z)), ang))


@accepts_point("z")
def p_extension(a: float, z: np.ndarray) -> np.ndarray:
    """|1-a|-quasiconformal automorphism of the plane extending z^{1/a}.

    Conformal branch z^{1/a} on the open sector 0 < arg z < pi*a; on the
    closed complementary sector the composition of z^{1/(2-a)} and the
    radial stretch |z|^{(2-a)/a} z/|z|, taken after the rotation e^{-i pi a}
    and negated.  The two definitions agree on both boundary rays.
    """
    if not 0 < a < 2:
        raise PreconditionError("opening a must lie in (0, 2)")

    def nonzero(z):
        ang = _arg_0_2pi(z)
        sector = (0 < ang) & (ang < math.pi * a)
        return piecewise(sector, lambda z: _power(z, _arg_0_2pi(z), 1 / a),
                         lambda z: _stretch(a, z), z)

    return piecewise(z == 0, lambda z: 0j, nonzero, z)


def _stretch(a: float, z: np.ndarray) -> np.ndarray:
    """p_extension on the closed complementary sector (z != 0)."""
    # zeta = e^{-i pi a} z has arg in [0, (2-a) pi], up to rounding at either
    # end; an angle rounded below 0 is reduced to near 2 pi: fold it to 0
    zeta = cmath.exp(-1j * math.pi * a) * z
    ang_z = _arg_0_2pi(zeta)
    p1 = _power(zeta, np.where(ang_z > (2 - a / 2) * math.pi, 0.0, ang_z), 1 / (2 - a))
    # radial stretch preserves the argument
    p2 = abs(p1) ** ((2 - a) / a) * (p1 / abs(p1))
    return -p2


@accepts_point("v")
def p_extension_inverse(a: float, v: np.ndarray) -> np.ndarray:
    """Inverse of `p_extension`: v^a on the closed upper half-plane, the
    unwound stretch on the lower half-plane."""
    if not 0 < a < 2:
        raise PreconditionError("opening a must lie in (0, 2)")

    def unstretch(v):
        w = -v  # arg in (0, pi]
        y = abs(w) ** (a / (2 - a)) * (w / abs(w))
        return cmath.exp(1j * math.pi * a) * _power(y, _arg_0_2pi(w), 2 - a)

    def nonzero(v):
        ang = _arg_0_2pi(v)
        upper = (0 < ang) & (ang <= math.pi)
        return piecewise(upper, lambda v: _power(v, _arg_0_2pi(v), a), unstretch, v)

    return piecewise(v == 0, lambda v: 0j, nonzero, v)


class SectorExtension:
    """Total-plane extension of the sector map, with explicit inverse.

    `dilatation` is the measured-and-declared bound |1 - a|.  With
    `normalized=True` the extension and inverse carry the same 1/Q2'(0)
    normalization as the companion map.
    """

    def __init__(self, sector: SectorDomain, normalized: bool = False):
        self.sector = sector
        self.normalized = bool(normalized)
        self.dilatation = abs(1 - sector.a)
        self._scale = _q2_scale(sector, normalized)

    @accepts_point("w")
    def __call__(self, w: np.ndarray) -> np.ndarray:
        sec = self.sector
        return self._scale * p_extension(sec.a, sec._rot * (w - sec.w0))

    @accepts_point("v")
    def inverse(self, v: np.ndarray) -> np.ndarray:
        sec = self.sector
        zeta = p_extension_inverse(sec.a, v / self._scale)
        return sec.w0 + zeta / sec._rot

    @accepts_point("v")
    def image_seam(self, v: np.ndarray) -> np.ndarray:
        """Sign changes where the inverse switches branch (the real axis of
        the model plane).  Feed it the image of any map being composed with
        `inverse` so seam-straddling stencils can be skipped."""
        return (v / self._scale).imag


# ---------------------------------------------------------------------------
# fitting a sector around a bounded image
# ---------------------------------------------------------------------------


def sup_abs_on_boundary(f: AnalyticMap) -> float:
    """Estimate sup |f| over the disk by scanning 1024 angles of a
    near-boundary circle, with one angular refinement pass around the
    maximizer `jets.extremum` names on the circle."""
    radius = min(1 - 1e-3, 0.999 * f.analyticity_radius)
    theta = _TWO_PI * np.arange(1024) / 1024
    ring = np.abs(f.jet(radius * np.exp(1j * theta)).value)
    best, center = extremum(ring, theta)
    step = _TWO_PI / 1024
    theta = center - step + 2 * step * np.arange(64) / 63
    window = np.abs(f.jet(radius * np.exp(1j * theta)).value)
    return max(best, float(window.max()))


def fit_sector(f: AnalyticMap, w0: complex, z0: complex = 0j,
               radius: float | None = None,
               grid: DiskGrid | None = None) -> tuple[SectorDomain, float]:
    """Smallest sector with vertex w0 containing the disk |w - z0| <= R.

    R defaults to the estimated sup |f| (with z0 = 0).  The two boundary
    rays are tangent to the enclosing circle; opening 2*arcsin(R/|w0-z0|).
    Returns (sector, R_used) after numerically asserting that the sampled
    image of f lies inside the sector.
    """
    w0 = complex(w0)
    z0 = complex(z0)
    big_r = sup_abs_on_boundary(f) if radius is None else float(radius)
    if not big_r > 0:
        raise PreconditionError(f"enclosing radius R must be positive, got {big_r!r}")
    dist = abs(w0 - z0)
    if dist <= big_r:
        raise PreconditionError(
            f"vertex w0 = {w0!r} lies inside the enclosing disk (R = {big_r:.6g})"
        )
    a = 2 * math.asin(big_r / dist) / math.pi
    lam = (
        cmath.phase(z0 - w0)
        + cmath.phase(cmath.sqrt(dist * dist - big_r * big_r) - 1j * big_r)
    ) / math.pi
    lam %= 2.0
    sector = SectorDomain(w0, lam, a)
    for z in blocks((grid or DiskGrid()).points()):
        w = f.jet(z).value
        escapes = ~sector.contains(w)
        bad = first_where(escapes, z)
        if bad is not None:
            raise ContainmentError("fitted sector misses image point "
                                   f"f({bad!r}) = {first_where(escapes, w)!r}")
    return sector, big_r
