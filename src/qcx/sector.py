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
take a point or, elementwise, a 1-D complex array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .criteria import PreconditionError
from .grids import DiskGrid
from .jets import DomainError, Jet2, first_where, lib, piecewise
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

    def local_angle(self, w: complex) -> float:
        """arg(e^{-i pi lambda0}(w - w0)) reduced to [0, 2pi)."""
        return _arg_0_2pi(self._rot * (w - self.w0))

    def contains(self, w: complex) -> bool:
        return self._contains_at(w, self.local_angle(w))

    def _contains_at(self, w: complex, ang: float) -> bool:
        """contains(w), given ang = local_angle(w)."""
        inside = (0 < ang) & (ang < math.pi * self.a)
        return lib(w).where(w != self.w0, inside, False)


class SectorPowerMap(AnalyticMap):
    """The conformal map of the sector onto the upper half-plane, as jets.

    With `normalized=True` the map is divided by its derivative at 0, so the
    derivative condition at the origin is exactly 1; this requires 0 to lie
    inside the sector.
    """

    def __init__(self, sector: SectorDomain, normalized: bool = False):
        self.sector = sector
        self.normalized = bool(normalized)
        self._rot = cmath.exp(-1j * math.pi * sector.lambda0)
        self._scale = 1 + 0j
        if normalized:
            if not sector.contains(0j):
                raise PreconditionError(
                    "normalization requires the origin inside the sector"
                )
            self._scale = 1 / self._raw_jet(0j).d1

    def _raw_jet(self, w: complex) -> Jet2:
        sec = self.sector
        m = lib(w)
        ang = sec.local_angle(w)
        bad = first_where(m.not_(sec._contains_at(w, ang)), w)
        if bad is not None:
            raise DomainError(f"w = {bad!r} outside the sector domain")
        zeta = self._rot * (w - sec.w0)
        inv_a = 1 / sec.a
        val = m.cexp(inv_a * m.complex(m.log(abs(zeta)), ang))
        d1 = inv_a * val / (w - sec.w0)
        d2 = inv_a * (inv_a - 1) * val / ((w - sec.w0) ** 2)
        return Jet2(val, d1, d2)

    def jet(self, w: complex) -> Jet2:
        j = self._raw_jet(w)
        return j.scale(self._scale)

    @property
    def origin_derivative(self) -> complex:
        return self._raw_jet(0j).d1


def companion_from_sector(sector: SectorDomain, normalized: bool = True) -> CompanionMap:
    """The sector map as a companion with its declared dilatation |1 - a|."""
    base = SectorPowerMap(sector, normalized=normalized)
    return CompanionMap(base, abs(1 - sector.a), True, "sector")


# ---------------------------------------------------------------------------
# the plane extension P
# ---------------------------------------------------------------------------


def _arg_0_2pi(z: complex) -> float:
    return lib(z).atan2(z.imag, z.real) % _TWO_PI


def _power(z: complex, ang: float, p: float) -> complex:
    """z^p on the branch with arg z = ang."""
    m = lib(z)
    return m.cexp(p * m.complex(m.log(abs(z)), ang))


def p_extension(a: float, z: complex) -> complex:
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

    return piecewise(z == 0, _zero, nonzero, z)


def _stretch(a: float, z: complex) -> complex:
    """p_extension on the closed complementary sector (z != 0)."""
    m = lib(z)
    # zeta = e^{-i pi a} z has arg in [0, (2-a) pi], up to rounding at either
    # end; an angle rounded below 0 is reduced to near 2 pi: fold it to 0
    zeta = cmath.exp(-1j * math.pi * a) * z
    ang_z = _arg_0_2pi(zeta)
    p1 = _power(zeta, m.where(ang_z > (2 - a / 2) * math.pi, 0.0, ang_z), 1 / (2 - a))
    # radial stretch preserves the argument
    p2 = abs(p1) ** ((2 - a) / a) * (p1 / abs(p1))
    return -p2


def _zero(z: complex) -> complex:
    return 0j


def p_extension_inverse(a: float, v: complex) -> complex:
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

    return piecewise(v == 0, _zero, nonzero, v)


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
        self._rot = cmath.exp(-1j * math.pi * sector.lambda0)
        self._scale = 1 + 0j
        if normalized:
            if not sector.contains(0j):
                raise PreconditionError(
                    "normalization requires the origin inside the sector"
                )
            self._scale = 1 / SectorPowerMap(sector).origin_derivative

    def __call__(self, w: complex) -> complex:
        return self._scale * p_extension(self.sector.a, self._rot * (w - self.sector.w0))

    def inverse(self, v: complex) -> complex:
        zeta = p_extension_inverse(self.sector.a, v / self._scale)
        return self.sector.w0 + zeta / self._rot

    def seam_indicator(self, w: complex) -> float:
        """Positive inside the sector, negative outside, zero on the rays."""
        ang = self.sector.local_angle(w)
        opening = math.pi * self.sector.a
        m = lib(ang)
        return m.where(ang < opening, m.minimum(ang, opening - ang),
                       -m.minimum(ang - opening, _TWO_PI - ang))

    def image_seam(self, v: complex) -> float:
        """Sign changes where the inverse switches branch (the real axis of
        the model plane).  Feed it the image of any map being composed with
        `inverse` so seam-straddling stencils can be skipped."""
        return (v / self._scale).imag


def extend_q2(sector: SectorDomain, normalized: bool = False) -> SectorExtension:
    """Conjugate the model extension by the affine sector coordinates."""
    return SectorExtension(sector, normalized)


# ---------------------------------------------------------------------------
# fitting a sector around a bounded image
# ---------------------------------------------------------------------------


def sup_abs_on_boundary(f: AnalyticMap) -> float:
    """Estimate sup |f| over the disk by scanning 1024 angles of a
    near-boundary circle, with one angular refinement pass around the
    maximizer."""
    radius = min(1 - 1e-3, 0.999 * f.analyticity_radius)
    theta = _TWO_PI * np.arange(1024) / 1024
    ring = np.abs(_image(f, radius * np.exp(1j * theta)))
    best_j = int(np.argmax(ring))  # the first maximizer
    step = _TWO_PI / 1024
    center = best_j * step
    theta = center - step + 2 * step * np.arange(64) / 63
    window = np.abs(_image(f, radius * np.exp(1j * theta)))
    return float(max(ring[best_j], window.max()))


def _image(f: AnalyticMap, z: np.ndarray) -> np.ndarray:
    """f at every point of z (a constant map gives one value for all)."""
    return np.broadcast_to(f.jet(z).value, z.shape)


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
    z = (grid or DiskGrid()).points()
    misses = ~sector.contains(_image(f, z))
    if misses.any():
        z = z[np.argmax(misses)]  # the first in grid order, as a numpy scalar
        w = f.jet(z).value  # the point's own jet: the message a point gives
        raise ContainmentError(f"fitted sector misses image point f({z!r}) = {w!r}")
    return sector, big_r
