"""Second-order jets of analytic functions.

A jet carries (value, first derivative, second derivative) of an analytic
map at a point, or elementwise at a 1-D numpy array of points.  All
derivative propagation here is exact (closed form), which matters because
the criterion functionals downstream involve ratios like f''/f' that are
evaluated close to the unit circle where finite differences lose accuracy.

Every formula is written once for both kinds of input.  `lib` picks the
elementary functions by input type (cmath/math for a Python number, numpy
for an array: np.exp on a Python complex costs three times cmath.exp, and
the per-point paths, such as `tracked_log`'s fallback and oracle, evaluate
maps one point at a time), `first_where` finds the point a guard names, and
`piecewise` evaluates a branch only where it applies.  An array is an
np.ndarray; the test is `type(x) is np.ndarray`, the cheapest there is,
since a per-point path pays it on every jet.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside a map's domain (radius exceeded, pole hit)."""


def _array_complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real = re
    out.imag = im
    return out


_SCALAR = SimpleNamespace(
    cexp=cmath.exp, clog=cmath.log, exp=math.exp, log=math.log,
    atan2=math.atan2, complex=complex, minimum=min, not_=operator.not_,
    where=lambda cond, a, b: a if cond else b,
)
_ARRAY = SimpleNamespace(
    cexp=np.exp, clog=np.log, exp=np.exp, log=np.log,
    atan2=np.arctan2, complex=_array_complex, minimum=np.minimum,
    not_=np.logical_not, where=np.where,
)


def lib(x) -> SimpleNamespace:
    """The elementary functions for input x: numpy's for an array, else
    cmath's (`cexp`, `clog`) and math's (`exp`, `log`, `atan2`), with
    `complex(re, im)`, `minimum`, `not_` and `where` to match."""
    return _ARRAY if type(x) is np.ndarray else _SCALAR


def first_where(bad, z):
    """The first point of z, in input order, at which `bad` holds (None if
    there is none); `bad` is a bool for a point, a mask for an array."""
    if type(bad) is np.ndarray:
        if not bad.any():
            return None
        return complex(np.broadcast_to(z, bad.shape).flat[int(np.argmax(bad))])
    return z if bad else None


def piecewise(cond, if_true, if_false, x):
    """if_true(x) where `cond` holds, if_false(x) elsewhere.  On an array
    each function sees only its own points, so neither is evaluated outside
    the region it is defined on."""
    if type(x) is not np.ndarray:
        return if_true(x) if cond else if_false(x)
    out = np.empty(x.shape, complex)
    for mask, fn in ((cond, if_true), (~cond, if_false)):
        if mask.any():
            out[mask] = fn(x[mask])
    return out


@dataclass(frozen=True)
class Jet2:
    """Value and first two complex derivatives of an analytic map at a point,
    or elementwise at an array of points."""

    value: complex | np.ndarray
    d1: complex | np.ndarray
    d2: complex | np.ndarray

    @staticmethod
    def const(c: complex) -> "Jet2":
        try:
            return Jet2(complex(c), 0j, 0j)
        except TypeError:  # an array: complex() takes only a point
            return Jet2(np.asarray(c, complex), 0j, 0j)

    @staticmethod
    def variable(z: complex) -> "Jet2":
        """Jet of the identity map at z."""
        try:
            return Jet2(complex(z), 1 + 0j, 0j)
        except TypeError:  # an array: complex() takes only a point
            return Jet2(np.asarray(z, complex), 1 + 0j, 0j)

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        # Leibniz through second order
        return Jet2(
            self.value * other.value,
            self.d1 * other.value + self.value * other.d1,
            self.d2 * other.value + 2 * self.d1 * other.d1 + self.value * other.d2,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        if first_where(other.value == 0, other.value) is not None:
            raise DomainError("jet division by a value that vanishes at the point")
        q = self.value / other.value
        q1 = (self.d1 - q * other.d1) / other.value
        q2 = (self.d2 - 2 * q1 * other.d1 - q * other.d2) / other.value
        return Jet2(q, q1, q2)

    def scale(self, c: complex) -> "Jet2":
        return Jet2(c * self.value, c * self.d1, c * self.d2)


def compose(outer: Jet2, inner: Jet2) -> Jet2:
    """Jet of g(f(z)) from the jet of g at f(z) and the jet of f at z."""
    return Jet2(
        outer.value,
        outer.d1 * inner.d1,
        outer.d2 * inner.d1 * inner.d1 + outer.d1 * inner.d2,
    )
