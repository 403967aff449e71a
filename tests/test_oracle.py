"""The array functionals and jets against an independent high-precision oracle.

`nw_value` and `gen_becker_value` are evaluated on arrays of points for
random class-A polynomials f and polynomial or Moebius companions Q, and
compared with the same formulas evaluated in mpmath at 30 digits, with the
derivatives of the polynomials taken exactly, term by term.  The spiral
map's jet is compared with its derivatives, taken by hand, in mpmath.
"""

import cmath
import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcx import CompanionMap, MoebiusMap, PolynomialMap, SpiralMap, gen_becker_value, nw_value

TOL = 1e-12
DIGITS = 30


def _coefficient(bound):
    """A complex coefficient of modulus at most `bound`."""
    return st.builds(lambda r, t: cmath.rect(r * bound, t),
                     st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))


# a2..a5 with sum k|a_k| <= 0.48, so |f'| >= 0.52 and |f| <= 1.3 on the disk
f_coefficients = st.tuples(*(_coefficient(0.12 / k) for k in range(2, 6)))
# b2..b4 with sum k|b_k| 1.3^(k-1) <= 0.3, so |Q'| >= 0.7 on f's image
q_coefficients = st.tuples(*(_coefficient(0.1 / (k * 1.3 ** (k - 1))) for k in range(2, 5)))
points = st.lists(st.builds(cmath.rect, st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi)),
                  min_size=1, max_size=24)
moebius = st.builds(lambda pole: MoebiusMap.with_pole(pole),
                    st.builds(cmath.rect, st.floats(1.5, 4.0), st.floats(0.0, 2 * math.pi)))


def _mp_poly(coefficients, z):
    """(p, p', p'') of sum a_k z^k (k from 1) at z, term by term."""
    v = d1 = d2 = mpmath.mpc(0)
    for k, a in enumerate(coefficients, start=1):
        a = mpmath.mpc(a)
        v += a * z ** k
        d1 += k * a * z ** (k - 1)
        if k >= 2:
            d2 += k * (k - 1) * a * z ** (k - 2)
    return v, d1, d2


def _mp_moebius(m, w):
    """(Q', Q'') of the det-1 Moebius map m at w."""
    den = mpmath.mpc(m.gamma) * w + mpmath.mpc(m.delta)
    return 1 / den ** 2, -2 * mpmath.mpc(m.gamma) / den ** 3


def _companion(q):
    """(CompanionMap, w -> (Q', Q'') in mpmath) for polynomial b2.. or a Moebius map."""
    if isinstance(q, MoebiusMap):
        return CompanionMap.from_moebius(q), lambda w: _mp_moebius(q, w)
    coefficients = (1,) + tuple(q)
    return (CompanionMap(PolynomialMap(coefficients), 0.0),
            lambda w: _mp_poly(coefficients, w)[1:])


def _check(name, got, expected, scale):
    """got within TOL of expected, relative to `scale` (at least |expected|),
    with an absolute floor of 1e-300 for subnormal results, which carry
    fewer digits."""
    assert abs(complex(got) - complex(expected)) <= TOL * scale + 1e-300, \
        (name, got, expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=f_coefficients, q=st.one_of(q_coefficients, moebius), zs=points)
def test_nw_value_matches_mpmath(a, q, zs):
    f_coefficients = (1,) + a
    f = PolynomialMap(f_coefficients)
    companion, mp_q = _companion(q)
    z = np.array(zs, complex)
    values = nw_value(f, companion, z)
    with mpmath.workdps(DIGITS):
        for zk, got in zip(z, np.broadcast_to(values, z.shape)):
            v, d1, _ = _mp_poly(f_coefficients, mpmath.mpc(zk))
            expected = d1 * mp_q(v)[0]
            _check("nw", got, expected, abs(expected))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=f_coefficients, q=st.one_of(q_coefficients, moebius), zs=points,
       c=_coefficient(0.5))
def test_gen_becker_value_matches_mpmath(a, q, zs, c):
    f_coefficients = (1,) + a
    f = PolynomialMap(f_coefficients)
    companion, mp_q = _companion(q)
    z = np.array(zs, complex)
    values = gen_becker_value(f, companion, c, z)
    with mpmath.workdps(DIGITS):
        for zk, got in zip(z, values):
            zm = mpmath.mpc(zk)
            v, d1, d2 = _mp_poly(f_coefficients, zm)
            q1, q2 = mp_q(v)
            r2 = abs(zm) ** 2
            terms = (mpmath.mpc(c) * r2, (1 - r2) * zm * d2 / d1,
                     (1 - r2) * zm * d1 * q2 / q1)
            # a sum: relative to the size of its terms, which may cancel
            _check("gen_becker", got, sum(terms), sum(abs(t) for t in terms))


def _mp_spiral(p, z):
    """The terms of f, f' and f'' of f(z) = z (1 - z)^p at z, principal
    powers: f = z w^p, f' = w^p - p z w^(p-1), f'' = -2p w^(p-1)
    + p(p-1) z w^(p-2) with w = 1 - z."""
    w = 1 - z
    return ((z * w ** p,),
            (w ** p, -p * z * w ** (p - 1)),
            (-2 * p * w ** (p - 1), p * (p - 1) * z * w ** (p - 2)))


# |z| <= 0.999, and points within 0.05 rad of z = 1, where log(1 - z) is
# largest
spiral_points = st.lists(
    st.one_of(st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(0.0, 2 * math.pi)),
              st.builds(cmath.rect, st.floats(0.99, 0.999), st.floats(-0.05, 0.05))),
    min_size=1, max_size=16)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lam=st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True), zs=spiral_points)
def test_spiral_jet_matches_mpmath(lam, zs):
    f = SpiralMap(lam)
    z = np.array(zs, complex)
    jet = f.jet(z)
    with mpmath.workdps(DIGITS):
        p = mpmath.mpc(f.p)  # the map is z (1 - z)^p of its own, rounded p
        for k, zk in enumerate(z):
            for name, got, terms in zip(("value", "d1", "d2"),
                                        (jet.value[k], jet.d1[k], jet.d2[k]),
                                        _mp_spiral(p, mpmath.mpc(zk))):
                # relative to the size of its terms: f' vanishes at the
                # spiral's critical point -e^(2i lam) on the unit circle,
                # and its two terms cancel on the way there
                scale = sum(abs(t) for t in terms)
                assert abs(complex(got) - complex(sum(terms))) <= 1e-13 * scale, \
                    (name, lam, zk, got, sum(terms))
