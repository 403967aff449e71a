"""Analytic maps of the unit disk and the companion maps used to test them.

The catalog covers the standard exemplars of geometric function theory:
identity, the Koebe map z/(1-z)^2, the half-plane (Cayley-type) map z/(1-z),
a spiral-like power map, class-A polynomials and rescalings r*f(z/r).
Maps combine into arithmetic/composition trees through operator overloading,
and every map evaluates to an exact second-order jet elementwise at a 1-D
numpy array of points; a point is evaluated as a one-element array
(`jets.accepts_point`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .jets import DomainError, Jet2, accepts_point, compose, first_where, principal_log

_DERIV_ORIGIN_TOL = 1e-12


class AnalyticMap:
    """Base class: an analytic function evaluable as a Jet2.

    Subclasses set `analyticity_radius` (the map is analytic on
    |z| < analyticity_radius) and implement `jet` on a 1-D complex array,
    marked `accepts_point("z")` so that it takes a point too.  Instances are
    immutable and evaluation is pure.  A guard raises at the first offending
    point of an array.
    """

    analyticity_radius: float = math.inf

    def jet(self, z: np.ndarray) -> Jet2:
        raise NotImplementedError

    def __call__(self, z: complex) -> complex:
        return self.jet(z).value

    def ratio_factors(self):
        """(roots, exponents) with m(z)/z = m'(0) * prod (1 - z/r_j)^e_j, the
        principal powers on the disk |z| < min |r_j| (where each 1 - z/r_j
        lies in the right half-plane), or None when the map declares none:
        combination nodes and maps without a finite factorization."""
        return None

    def _check_radius(self, z: np.ndarray) -> None:
        bad = first_where(np.abs(z) >= self.analyticity_radius, z)
        if bad is not None:
            raise DomainError(
                f"|z| = {abs(bad):.6g} outside analyticity radius "
                f"{self.analyticity_radius:.6g}"
            )

    # -- arithmetic tree builders ------------------------------------------
    def __add__(self, other):
        return SumMap(self, as_map(other))

    def __radd__(self, other):
        return SumMap(as_map(other), self)

    def __sub__(self, other):
        return SumMap(self, NegMap(as_map(other)))

    def __rsub__(self, other):
        return SumMap(as_map(other), NegMap(self))

    def __neg__(self):
        return NegMap(self)

    def __mul__(self, other):
        return ProductMap(self, as_map(other))

    def __rmul__(self, other):
        return ProductMap(as_map(other), self)

    def __truediv__(self, other):
        return QuotientMap(self, as_map(other))

    def __rtruediv__(self, other):
        return QuotientMap(as_map(other), self)

    def after(self, inner: "AnalyticMap") -> "AnalyticMap":
        """self(inner(z)) as a new map."""
        return ComposeMap(self, inner)


def as_map(x) -> AnalyticMap:
    if isinstance(x, AnalyticMap):
        return x
    return ConstMap(complex(x))


# ---------------------------------------------------------------------------
# catalog primitives
# ---------------------------------------------------------------------------


class IdentityMap(AnalyticMap):
    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        return Jet2(np.asarray(z, complex), np.ones(z.shape, complex), np.zeros(z.shape, complex))

    def ratio_factors(self):
        return (), ()


class ConstMap(AnalyticMap):
    def __init__(self, c: complex):
        self.c = complex(c)

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        return Jet2(np.full(z.shape, self.c), np.zeros(z.shape, complex),
                    np.zeros(z.shape, complex))


class KoebeMap(AnalyticMap):
    """k(z) = z/(1-z)^2 = z + 2z^2 + 3z^3 + ... , extremal for class S."""

    analyticity_radius = 1.0

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        self._check_radius(z)
        w = 1 - z
        w2 = w * w
        return Jet2(z / w2, (1 + z) / (w2 * w), (4 + 2 * z) / (w2 * w2))

    def ratio_factors(self):
        return (1.0,), (-2.0,)


class CayleyMap(AnalyticMap):
    """f(z) = z/(1-z), the half-plane map with image Re w > -1/2."""

    analyticity_radius = 1.0

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        self._check_radius(z)
        w = 1 - z
        return Jet2(z / w, 1 / (w * w), 2 / (w * w * w))

    def ratio_factors(self):
        return (1.0,), (-1.0,)


class SpiralMap(AnalyticMap):
    """Spiral-like exemplar z*(1-z)^p with p = -2*exp(-i*lam)*cos(lam).

    lam = 0 recovers the Koebe map; nonzero lam twists the image into a
    logarithmic spiral domain.
    """

    analyticity_radius = 1.0

    def __init__(self, lam: float):
        if not -math.pi / 2 < lam < math.pi / 2:
            raise ValueError("spiral parameter must lie in (-pi/2, pi/2)")
        self.lam = float(lam)
        self.p = -2 * cmath.exp(-1j * lam) * math.cos(lam)

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        self._check_radius(z)
        p = self.p
        w = 1 - z
        # 1-z stays in the right half-plane on the disk, principal powers are safe
        wp2 = np.exp((p - 2) * principal_log(w))
        wp1 = wp2 * w
        wp = wp1 * w
        return Jet2(z * wp, wp1 * (w - p * z), wp2 * (p * (p - 1) * z - 2 * p * w))

    def ratio_factors(self):
        return (1.0,), (self.p,)


class PolynomialMap(AnalyticMap):
    """f(z) = a1*z + a2*z^2 + ... (no constant term).

    `class_a=True` asserts the normalization a1 = 1 used throughout the
    criteria; construction rejects anything else, in particular a1 = 0.
    """

    def __init__(self, coefficients, class_a: bool = True):
        coeffs = tuple(complex(c) for c in coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least the linear coefficient a1")
        if class_a and coeffs[0] != 1:
            raise ValueError("class-A polynomial requires a1 = 1 (got %r)" % (coeffs[0],))
        self.coefficients = coeffs
        self.class_a = bool(class_a)

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        # Horner on f(z)/z from its leading coefficient, then restore the
        # factor of z; the first step, from d1 = d2 = 0, in closed form
        *rest, v = self.coefficients
        d1 = d2 = 0j
        if rest:
            d1, v = v, v * z + rest.pop()
        for c in reversed(rest):
            d2 = d2 * z + 2 * d1
            d1 = d1 * z + v
            v = v * z + c
        return Jet2(v * z, d1 * z + v, d2 * z + 2 * d1)

    @functools.cached_property
    def _roots(self):
        """The roots of f(z)/z, found once.  A linear c0 + c1 z takes -c0/c1
        in np.roots' own arithmetic, without its eigenvalue solver (the
        process's first LAPACK call): the same root to the bit while |c0/c1|
        lies between 1e-138 and 1e138, where LAPACK does not rescale."""
        c = self.coefficients
        if len(c) == 2 and c[1] != 0:
            return (complex((-np.array(c[:1]) / c[1])[0]),)
        return tuple(complex(r) for r in np.roots(c[::-1]))

    def ratio_factors(self):
        return self._roots, (1.0,) * len(self._roots)


class ScaledMap(AnalyticMap):
    """r * base(z/r): same power series scaled so the radius grows to r*R."""

    def __init__(self, base: AnalyticMap, r: float):
        if r <= 0:
            raise ValueError("scale factor must be positive")
        self.base = base
        self.r = float(r)
        self.analyticity_radius = self.r * base.analyticity_radius

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        j = self.base.jet(z / self.r)
        return Jet2(self.r * j.value, j.d1, j.d2 / self.r)

    def ratio_factors(self):
        factors = self.base.ratio_factors()
        if factors is None:
            return None
        roots, exponents = factors
        return tuple(self.r * r for r in roots), exponents


# ---------------------------------------------------------------------------
# combination nodes
# ---------------------------------------------------------------------------


class _BinaryMap(AnalyticMap):
    """A node of two maps, analytic where both are."""

    def __init__(self, a: AnalyticMap, b: AnalyticMap):
        self.a, self.b = a, b
        self.analyticity_radius = min(a.analyticity_radius, b.analyticity_radius)


class SumMap(_BinaryMap):
    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        return self.a.jet(z) + self.b.jet(z)


class NegMap(AnalyticMap):
    def __init__(self, a: AnalyticMap):
        self.a = a
        self.analyticity_radius = a.analyticity_radius

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        return -self.a.jet(z)


class ProductMap(_BinaryMap):
    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        return self.a.jet(z) * self.b.jet(z)


class QuotientMap(_BinaryMap):
    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        den = self.b.jet(z)
        bad = first_where(den.value == 0, z)
        if bad is not None:
            raise DomainError("pole of a quotient node at z = %r" % (bad,))
        return self.a.jet(z) / den


class ComposeMap(AnalyticMap):
    """outer(inner(z)).  The inner radius bounds the domain; whether the
    inner image stays inside the outer domain is checked at evaluation."""

    def __init__(self, outer, inner: AnalyticMap):
        self.outer, self.inner = outer, inner
        self.analyticity_radius = inner.analyticity_radius

    @accepts_point("z")
    def jet(self, z: np.ndarray) -> Jet2:
        ji = self.inner.jet(z)
        return compose(self.outer.jet(ji.value), ji)


# ---------------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoebiusMap:
    """w -> (alpha*w + beta)/(gamma*w + delta), renormalized to det = 1."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        a, b, c, d = (complex(v) for v in (self.alpha, self.beta, self.gamma, self.delta))
        det = a * d - b * c
        if abs(det) < 1e-15:
            raise ValueError("degenerate Moebius map (alpha*delta - beta*gamma = 0)")
        if abs(det - 1) > 1e-14:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", c)
        object.__setattr__(self, "delta", d)

    @staticmethod
    def with_pole(pole: complex) -> "MoebiusMap":
        """Q(w) = -1/(w - pole): the simplest map with the requested pole."""
        return MoebiusMap(0, -1, 1, -complex(pole))

    def __call__(self, w: complex) -> complex:
        return self.jet(w).value

    @accepts_point("w")
    def inverse(self, w: np.ndarray) -> np.ndarray:
        den = -self.gamma * w + self.alpha
        bad = first_where(den == 0, w)
        if bad is not None:
            raise DomainError("Moebius inverse pole at w = %r" % (bad,))
        return (self.delta * w - self.beta) / den

    @accepts_point("w")
    def jet(self, w: np.ndarray) -> Jet2:
        den = self.gamma * w + self.delta
        bad = first_where(den == 0, w)
        if bad is not None:
            raise DomainError("Moebius pole at w = %r" % (bad,))
        den2 = den * den
        # det = 1 after normalization
        return Jet2(
            (self.alpha * w + self.beta) / den,
            1 / den2,
            -2 * self.gamma / (den2 * den),
        )


# ---------------------------------------------------------------------------
# companion maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompanionMap:
    """Auxiliary univalent map Q through which a disk function is tested.

    `base` is anything with a `jet(w)` method, analytic on a superset of the
    tested function's image.  `extension_dilatation` is the dilatation bound
    of the quasiconformal extension the companion is declared to carry
    (0 for Moebius maps, |1-a| for sector maps).  `fixes_infinity` records
    whether that extension keeps infinity in place, which decides whether the
    conclusion lives on the plane or only on the sphere.
    """

    base: object
    extension_dilatation: float = 0.0
    fixes_infinity: bool = True
    label: str = "companion"

    def __post_init__(self):
        if not 0 <= self.extension_dilatation < 1:
            raise ValueError("extension dilatation must lie in [0, 1)")
        j0 = self.base.jet(0j)
        if abs(j0.d1) <= _DERIV_ORIGIN_TOL:
            raise ValueError("companion must have Q'(0) != 0")

    @staticmethod
    def identity() -> "CompanionMap":
        return CompanionMap(IdentityMap(), 0.0, True, "identity")

    @staticmethod
    def from_moebius(m: MoebiusMap) -> "CompanionMap":
        return CompanionMap(m, 0.0, m.gamma == 0, "moebius")

    def jet(self, w: np.ndarray) -> Jet2:
        return self.base.jet(w)

    def __call__(self, w: complex) -> complex:
        return self.base.jet(w).value

    def after(self, f: AnalyticMap) -> AnalyticMap:
        """G = Q o f, the map a criterion or chain through Q tests with the
        classical condition: f itself for the identity companion, else
        `ComposeMap(Q, f)`."""
        return f if isinstance(self.base, IdentityMap) else ComposeMap(self.base, f)
