"""Second-order jets of analytic functions, and the one evaluation path.

A jet carries (value, first derivative, second derivative) of an analytic
map elementwise at a 1-D numpy array of points.  All derivative propagation
here is exact (closed form), which matters because the criterion
functionals downstream involve ratios like f''/f' that are evaluated close
to the unit circle where finite differences lose accuracy.

Every formula of the package is written for 1-D arrays only.  A public
entry point that also takes a single point carries `accepts_point`, the one
place that tells a point from an array: it evaluates the point as the
one-element array [z] and returns element 0 of each result, as a Python
number.  So a point's value is, bit for bit, that point's element of a
block.  `first_where` finds the point a guard names, `extremum` the point
a sup or a min names (the one tie rule), `piecewise` and
`finite_where` (inf where a denominator vanishes) evaluate a formula only
where it applies, and `principal_log` is the one complex log of an array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside a map's domain (radius exceeded, pole hit)."""


class PreconditionError(ValueError):
    """A criterion's hypothesis failed before any grid scan ran."""


def complex_array(re, im) -> np.ndarray:
    """re + i im elementwise, without the rounding of re + 1j * im."""
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real = re
    out.imag = im
    return out


def principal_log(w: np.ndarray) -> np.ndarray:
    """The principal logarithm log|w| + i Arg w, elementwise, in real
    arithmetic: about a tenth of the cost of a complex np.log.  Arg takes
    the sign of a zero imaginary part on the negative axis, Arg(-1 +- 0i) =
    +-pi, as np.log does, and log 0 = -inf (with numpy's divide warning)."""
    return complex_array(np.log(np.abs(w)), np.angle(w))


def _element0(result):
    """Element 0 of every array of a result (an array, a tuple of them, or a
    dataclass of them such as a Jet2), as Python numbers."""
    if isinstance(result, np.ndarray):
        return result.item(0)
    parts = result if isinstance(result, tuple) else vars(result).values()
    items = [r.item(0) for r in parts]
    return tuple(items) if isinstance(result, tuple) else type(result)(*items)


def accepts_point(name: str):
    """Decorator: the formula, written for a 1-D array as its argument
    `name` (passed positionally), also takes a point there.  A point is
    evaluated as np.array([point]) and element 0 of each result returned; an
    array of one or more dimensions goes to the formula as it is, and any
    other sequence is rejected."""

    def decorate(formula):
        at = formula.__code__.co_varnames.index(name)

        @functools.wraps(formula)
        def evaluate(*args, **kwargs):
            x = args[at]
            if type(x) is np.ndarray and x.ndim:
                return formula(*args, **kwargs)
            point = np.array([x])
            if point.ndim != 1:  # a list or tuple of points is neither
                raise TypeError(f"{name} must be a number or a numpy array")
            return _element0(formula(*args[:at], point, *args[at + 1:], **kwargs))

        return evaluate

    return decorate


def _element(z, shape: tuple, i: int):
    """Element i, in row-major order, of z broadcast to `shape`, as a Python
    number."""
    if np.shape(z) != shape:
        z = np.broadcast_to(z, shape)
    return z.flat[i].item()


def first_where(bad: np.ndarray, z: np.ndarray):
    """The first point of z, in input order, at which the mask `bad` holds,
    as a Python number (None if there is none)."""
    if not np.count_nonzero(bad):
        return None
    return _element(z, bad.shape, int(np.argmax(bad)))


EXTREMUM_RTOL = 1e-12


def extremum(scores: np.ndarray, z, least: bool = False):
    """(value, point): the max of `scores` (the min with `least`), exactly,
    and the first point of z, in input order, whose score lies within
    EXTREMUM_RTOL * max(1, |value|) of that value, as a Python number.  z is
    broadcast against the scores; a tuple of such arrays names a point by a
    tuple of their elements there.  An infinite value names the first point
    that attains it.

    The one tie rule of the package: points whose scores tie up to rounding
    (conjugate twins, the times of a chain whose p does not depend on t)
    are named by their order, not by the last bit of their scores.  The
    scores must be non-empty and comparable (no NaN)."""
    best = float(scores.min() if least else scores.max())
    slack = EXTREMUM_RTOL * max(1.0, abs(best)) if math.isfinite(best) else 0.0
    # the extremum itself is near it, so argmax finds the first near score
    i = int(np.argmax(scores <= best + slack if least else scores >= best - slack))
    if isinstance(z, tuple):
        return best, tuple(_element(part, scores.shape, i) for part in z)
    return best, _element(z, scores.shape, i)


def piecewise(cond: np.ndarray, if_true, if_false, x: np.ndarray) -> np.ndarray:
    """if_true(x) where `cond` holds, if_false(x) elsewhere.  Each function
    sees only its own points, so neither is evaluated outside the region it
    is defined on."""
    out = np.empty(x.shape, complex)
    for mask, fn in ((cond, if_true), (~cond, if_false)):
        if mask.any():
            out[mask] = fn(x[mask])
    return out


def finite_where(ok, formula, *args):
    """formula(*args) where the mask `ok` holds, all the formula sees of each
    argument (an array of ok's shape, or a number where ok is one), and
    complex inf elsewhere: a quotient where its denominator vanishes."""
    ok = np.asarray(ok)
    if ok.all():
        return formula(*args)
    out = np.full(ok.shape, complex(np.inf, 0))
    out[ok] = formula(*(np.asarray(a)[ok] for a in args))
    return out


@dataclass(frozen=True)
class Jet2:
    """Value and first two complex derivatives of an analytic map,
    elementwise at an array of points (Python numbers at a point)."""

    value: np.ndarray | complex
    d1: np.ndarray | complex
    d2: np.ndarray | complex

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
        if (other.value == 0).any():
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
