"""Jet arithmetic against finite differences and closed-form oracles."""

import cmath
import math
import random

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


def _horner_from_zero(coefficients, z):
    """The polynomial jet as Horner's loop gives it when it starts from
    v = d1 = d2 = 0 rather than at the leading coefficient: the reference
    for PolynomialMap.jet."""
    v = d1 = d2 = 0j
    for c in reversed(coefficients):
        d2 = d2 * z + 2 * d1
        d1 = d1 * z + v
        v = v * z + c
    return v * z, d1 * z + v, d2 * z + 2 * d1


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
