"""Jet arithmetic against finite differences and closed-form oracles."""

import cmath
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcx import (
    CayleyMap,
    DomainError,
    IdentityMap,
    Jet2,
    KoebeMap,
    PolynomialMap,
    ScaledMap,
    SpiralMap,
)
from qcx.jets import EXTREMUM_RTOL, extremum, principal_log

CATALOG_MAPS = [
    ("identity", IdentityMap()),
    ("koebe", KoebeMap()),
    ("cayley", CayleyMap()),
    ("spiral", SpiralMap(0.7)),
    ("poly", PolynomialMap([1, 0.2 - 0.1j, 0.05j])),
    ("scaled_koebe", ScaledMap(KoebeMap(), 2.5)),
]


def fd_jet(f, z, h=1e-5):
    """Central finite differences: the independent derivative oracle."""
    fp = f(z + h)
    fm = f(z - h)
    return (fp - fm) / (2 * h), (fp - 2 * f(z) + fm) / (h * h)


def test_identity_jet():
    j = IdentityMap().jet(0.3 + 0.1j)
    assert j == Jet2(0.3 + 0.1j, 1, 0)


def test_koebe_jet_at_origin():
    # series z + 2z^2 + 3z^3 + ... gives f''(0) = 2 * 2 = 4
    j = KoebeMap().jet(0j)
    assert j.value == 0
    assert j.d1 == 1
    assert j.d2 == 4


def test_polynomial_jet_direct():
    # f(z) = z + 0.1 z^2 at z = 1: (1.1, 1.2, 0.2)
    j = PolynomialMap([1, 0.1]).jet(1 + 0j)
    assert abs(j.value - 1.1) < 1e-15
    assert abs(j.d1 - 1.2) < 1e-15
    assert abs(j.d2 - 0.2) < 1e-15


def _horner_from_zero(coefficients, z, product=operator.mul):
    """The polynomial jet as Horner's loop gives it when it starts from
    v = d1 = d2 = 0 rather than at the leading coefficient, every complex
    product taken by `product`: the reference for PolynomialMap.jet."""
    v = d1 = d2 = 0j
    for c in reversed(coefficients):
        d2 = product(d2, z) + 2 * d1
        d1 = product(d1, z) + v
        v = product(v, z) + c
    return product(v, z), product(d1, z) + v, product(d2, z) + 2 * d1


# + 0.0 turns a -0.0 part into +0.0: a signed zero in a coefficient is the
# one input whose result bits depend on where Horner's loop starts
_finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)
_coefficient = st.builds(complex, _finite, _finite)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coefficients=st.lists(_coefficient, min_size=1, max_size=6),
       z=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=8))
def test_polynomial_jet_matches_horner_from_zero(coefficients, z):
    z = np.array(z)
    with np.errstate(all="ignore"):
        jet = PolynomialMap(coefficients, class_a=False).jet(z)
        expected = _horner_from_zero(coefficients, z)
    for got, want in zip((jet.value, jet.d1, jet.d2), expected):
        np.testing.assert_array_equal(got, want)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got, part)),
                                  np.signbit(getattr(want, part)))


def _fused(x: float, y: float, r: float) -> float:
    """x * y + r rounded once, as a fused multiply-add rounds it."""
    return float(Fraction(x) * Fraction(y) + Fraction(r))


def _fused_product(a: complex, b: complex) -> complex:
    """a * b with each part rounded once after its first product is
    rounded: Re = ar br - (ai bi), Im = ar bi + (ai br), the way numpy's
    SIMD loops round a complex product on a CPU with fused multiply-add.
    Python's own a * b rounds all four products."""
    return complex(_fused(a.real, b.real, -(a.imag * b.imag)),
                   _fused(a.real, b.imag, a.imag * b.real))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_polynomial_jet_bit_equals_scalar_horner(degree):
    # the jet's closed-form first step, from d1 = d2 = 0, must change no
    # bit; degree 1, PolynomialMap([1]), has no first step to skip
    rng = np.random.default_rng(degree)
    for _ in range(4):
        tail = rng.normal(size=degree - 1) + 1j * rng.normal(size=degree - 1)
        coefficients = [1 + 0j, *tail.tolist()]
        z = rng.uniform(0, 1.2, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
        jet = PolynomialMap(coefficients).jet(z)
        got = np.stack([jet.value, jet.d1, jet.d2], axis=1)
        # numpy rounds a complex product either once per part (fused
        # multiply-add) or as Python does, depending on the CPU it runs on;
        # the reference runs point by point in Python complex
        assert any(got.tobytes() == np.array([_horner_from_zero(coefficients, complex(x), product)
                                              for x in z]).tobytes()
                   for product in (_fused_product, operator.mul))


# |w| from 1e-300 to 1e300, or within 1e-8 of the unit circle
_moduli = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                    st.floats(-1e-8, 1e-8).map(lambda d: 1 + d))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(w=st.lists(st.builds(cmath.rect, _moduli, st.floats(-math.pi, math.pi)),
                  min_size=1, max_size=16))
def test_principal_log_matches_cmath(w):
    got = principal_log(np.array(w))
    for g, x in zip(got, w):
        want = cmath.log(x)
        # a double near log 1e300 = 690.8 carries ulps of 1.1e-13: past
        # |log|w|| = 1 the real part is held to 1e-15 relative
        assert abs(g.real - want.real) <= 1e-15 * max(1.0, abs(want.real)), (x, g, want)
        assert abs(g.imag - want.imag) <= 1e-15, (x, g, want)


def test_principal_log_takes_np_logs_branch_cut():
    # Arg(-1 +- 0i) = +-pi, the sign of the zero deciding, as np.log does
    w = np.array([complex(-1, 0.0), complex(-1, -0.0), complex(-2.5, 0.0), complex(-2.5, -0.0)])
    got = principal_log(w)
    np.testing.assert_array_equal(got.imag, [math.pi, -math.pi, math.pi, -math.pi])
    np.testing.assert_array_equal(got.imag, np.log(w).imag)
    with np.errstate(divide="ignore"):
        at_zero = principal_log(np.array([0j]))
    assert at_zero[0].real == -math.inf


# -- the one tie rule ------------------------------------------------------------


@pytest.mark.parametrize("value", [0.7, -3.25, 1e9, 1e-300])
def test_extremum_names_the_first_of_two_scores_one_ulp_apart(value):
    up = np.nextafter(value, math.inf)
    z = np.array([0.5j, -0.5j, 2.0])
    for scores in ([value, up, -5.0], [up, value, -5.0]):
        # the value is the exact extremum, the point the first within the
        # tolerance, whichever of the two rounds higher
        assert extremum(np.array(scores), z) == (up, 0.5j)
        assert extremum(np.array(scores) - 10, z, least=True) == (-5.0 - 10, 2.0)
        assert extremum(-np.array(scores), z, least=True) == (-up, 0.5j)


def test_extremum_tolerance_is_relative_past_one_and_absolute_below():
    z = np.array([1, 2, 3])
    rtol = EXTREMUM_RTOL
    assert rtol == 1e-12
    # within rtol * max(1, |extremum|) of it: the first point is named
    assert extremum(np.array([1e6 - 0.5e6 * rtol, 1e6, 0.0]), z) == (1e6, 1)
    assert extremum(np.array([0.5e-12 - 0.9 * rtol, 0.5e-12, 0.0]), z) == (0.5e-12, 1)
    # further than that: the extremum's own point
    assert extremum(np.array([1e6 - 2e6 * rtol, 1e6, 0.0]), z) == (1e6, 2)
    assert extremum(np.array([1e-3, 1e-3 + 2 * rtol, 0.0]), z) == (1e-3 + 2 * rtol, 2)
    low = -1.0 - 0.5 * rtol
    assert extremum(np.array([0.0, -1.0, low]), z, least=True) == (low, 2)
    # the extremum of a 2-D array, its point by the row-major order of z
    # broadcast against it
    scores = np.array([[0.0, 2.0, 1.0], [2.0, 2.0, 0.0]])
    assert extremum(scores, z) == (2.0, 2)
    assert extremum(scores, np.arange(6).reshape(2, 3) * 1.5, least=True) == (0.0, 0.0)
    # a tuple of arrays broadcast against the scores names a tuple
    assert extremum(scores, (z, np.array([[0.5], [1.5]]))) == (2.0, (2, 0.5))
    assert extremum(scores[::-1], (z, np.array([[0.5], [1.5]]))) == (2.0, (1, 0.5))
    # an infinite extremum: the first point that attains it
    assert extremum(np.array([1.0, math.inf, math.inf]), z) == (math.inf, 2)
    assert extremum(np.array([math.inf, -math.inf, -math.inf]), z, least=True) == (-math.inf, 2)
    assert extremum(np.full(3, math.inf), z, least=True) == (math.inf, 1)


@pytest.mark.parametrize("name,f", CATALOG_MAPS)
def test_jets_match_finite_differences(name, f):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        z = cmath.rect(rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi))
        j = f.jet(z)
        fd1, fd2 = fd_jet(f, z)
        assert abs(j.d1 - fd1) / (1 + abs(j.d1)) < 1e-6
        assert abs(j.d2 - fd2) / (1 + abs(j.d2)) < 1e-4


def test_evaluation_deterministic():
    f = PolynomialMap([1, 0.3 + 0.2j, -0.1j])
    z = 0.512 - 0.333j
    assert f.jet(z) == f.jet(z)


def test_arithmetic_tree_jets():
    f = (KoebeMap() + 2 * IdentityMap()) * CayleyMap() / (1 + IdentityMap())
    rng = random.Random(9)
    for _ in range(50):
        z = cmath.rect(rng.uniform(0, 0.7), rng.uniform(0, 2 * math.pi))
        j = f.jet(z)
        fd1, fd2 = fd_jet(f, z)
        assert abs(j.d1 - fd1) / (1 + abs(j.d1)) < 1e-6
        assert abs(j.d2 - fd2) / (1 + abs(j.d2)) < 1e-4


def test_composition_jets():
    inner = PolynomialMap([1, 0.2])
    f = KoebeMap().after(ScaledMap(inner, 4.0))
    rng = random.Random(11)
    for _ in range(50):
        z = cmath.rect(rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi))
        j = f.jet(z)
        fd1, fd2 = fd_jet(f, z)
        assert abs(j.d1 - fd1) / (1 + abs(j.d1)) < 1e-6
        assert abs(j.d2 - fd2) / (1 + abs(j.d2)) < 1e-4


def test_radius_enforced():
    with pytest.raises(DomainError):
        KoebeMap().jet(1.2 + 0j)


def test_quotient_pole():
    f = IdentityMap() / (IdentityMap() - 0.5)
    with pytest.raises(DomainError):
        f.jet(0.5 + 0j)


def test_scaled_map_raises_radius():
    f = ScaledMap(KoebeMap(), 3.0)
    assert f.analyticity_radius == 3.0
    # evaluable beyond the unit circle now
    j = f.jet(1.5 + 0j)
    k = KoebeMap().jet(0.5 + 0j)
    assert abs(j.value - 3 * k.value) < 1e-14
    assert abs(j.d1 - k.d1) < 1e-14


def test_class_a_rejects_bad_leading_coefficient():
    with pytest.raises(ValueError):
        PolynomialMap([0, 0.5])
    with pytest.raises(ValueError):
        PolynomialMap([2.0, 0.5])
    PolynomialMap([2.0, 0.5], class_a=False)  # allowed off the normalized class
