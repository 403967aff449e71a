"""Moebius transformations, companion maps, the U(k) disk, and grids."""

import cmath
import math
import random

import numpy as np
import pytest

from qcx import (
    AnnulusGrid,
    CompanionMap,
    ConstMap,
    DiskGrid,
    DomainError,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    u_disk_center_radius,
    u_disk_margin,
    u_disk_ratio,
)


# -- Moebius ---------------------------------------------------------------


def test_moebius_identity():
    m = MoebiusMap(1, 0, 0, 1)
    assert m(0.7 - 0.2j) == 0.7 - 0.2j


def test_moebius_roundtrip():
    m = MoebiusMap(2, 1, 1, 1)
    w = 2 + 1j
    assert abs(m.inverse(m(w)) - w) < 1e-12


def test_moebius_normalization_idempotent():
    m = MoebiusMap(2, 1, 1, 1)
    m2 = MoebiusMap(m.alpha, m.beta, m.gamma, m.delta)
    assert (m2.alpha, m2.beta, m2.gamma, m2.delta) == (m.alpha, m.beta, m.gamma, m.delta)


def test_moebius_half_value():
    # w/(w+1) normalized: at w = 1 the value is 1/2
    m = MoebiusMap(1, 0, 1, 1)
    assert abs(m(1 + 0j) - 0.5) < 1e-15


def test_moebius_pole_errors():
    m = MoebiusMap.with_pole(-1)
    assert m.gamma * -1 + m.delta == 0
    with pytest.raises(DomainError):
        m(-1 + 0j)


def test_moebius_degenerate_rejected():
    with pytest.raises(ValueError):
        MoebiusMap(1, 2, 2, 4)


def test_moebius_jet_vs_fd():
    m = MoebiusMap(1.5, 0.2j, 1, 2 + 0.5j)
    rng = random.Random(3)
    h = 1e-6
    for _ in range(40):
        w = cmath.rect(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        j = m.jet(w)
        fd1 = (m(w + h) - m(w - h)) / (2 * h)
        fd2 = (m(w + h) - 2 * m(w) + m(w - h)) / (h * h)
        assert abs(j.d1 - fd1) / (1 + abs(j.d1)) < 1e-7
        assert abs(j.d2 - fd2) / (1 + abs(j.d2)) < 1e-3


def test_moebius_log_derivative_matches_pole_form():
    # Q''/Q' = -2/(w + delta/gamma) for any normalized coefficients
    m = MoebiusMap(1.3, -0.4, 1, 0.8j)
    q = CompanionMap.from_moebius(m)
    for w in (0.3 + 0.1j, -0.2j, 1.1):
        w = complex(w)
        expected = -2 / (w + m.delta / m.gamma)
        j = q.jet(w)
        assert abs(j.d2 / j.d1 - expected) < 1e-12


# -- companions -------------------------------------------------------------


def test_companion_requires_nonzero_derivative_at_origin():
    with pytest.raises(ValueError):
        CompanionMap(ConstMap(1.0))  # Q' == 0
    bad = KoebeMap() * KoebeMap()  # derivative vanishes at 0
    with pytest.raises(ValueError):
        CompanionMap(bad)


def test_companion_after_is_the_composite_g():
    # G = Q o f: f itself for the identity companion, else Q's jet at f
    # composed with f's by the chain rule
    f = PolynomialMap([1, 0.2, -0.05j])
    assert CompanionMap.identity().after(f) is f
    m = CompanionMap.from_moebius(MoebiusMap.with_pole(-1))
    assert m.extension_dilatation == 0.0
    assert not m.fixes_infinity
    g = m.after(f)
    for z in (0j, 0.3 - 0.4j, -0.6):
        jf, jg = f.jet(z), g.jet(z)
        jq = m.jet(jf.value)
        assert jg.value == jq.value
        assert abs(jg.d1 - jq.d1 * jf.d1) <= 1e-15 * abs(jg.d1)
        assert abs(jg.d2 - (jq.d2 * jf.d1 ** 2 + jq.d1 * jf.d2)) <= 1e-14 * abs(jg.d2)


# -- U(k) disk ---------------------------------------------------------------


def test_u_disk_center():
    for k in (0.0, 0.3, 0.9):
        margin = u_disk_margin(1 + 0j, k)
        assert margin >= 0
        assert abs(margin - 2 * k) < 1e-15


def test_u_disk_boundary_point():
    # center + radius for k = 0.5 sits at w = 5/3 + 4/3 = 3 with margin 0
    c, r = u_disk_center_radius(0.5)
    w = c + r
    assert abs(w - 3) < 1e-12
    assert abs(u_disk_margin(w, 0.5)) < 1e-12
    assert abs(u_disk_ratio(w) - 0.5) < 1e-12


def test_u_disk_excluded_point():
    assert u_disk_margin(-1 + 0j, 0.9) == -2.0


def test_u_disk_monotone_in_k():
    rng = random.Random(17)
    for _ in range(200):
        w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        k1 = rng.uniform(0, 0.98)
        k2 = rng.uniform(k1, 0.99)
        if u_disk_margin(w, k1) >= 0:
            assert u_disk_margin(w, k2) >= 0


def test_u_disk_margin_and_ratio_on_arrays_match_point_calls():
    rng = random.Random(23)
    w = np.array([complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(50)]
                 + [-1, 1, 3, 1j, complex(math.inf, 0)], complex)
    with np.errstate(invalid="ignore"):  # inf - inf and inf/inf at w = inf
        margins = u_disk_margin(w, 0.5)
        ratios = u_disk_ratio(w)
    for x, m, r in zip(w, margins, ratios):
        x = complex(x)
        for got, expected in ((m, u_disk_margin(x, 0.5)), (r, u_disk_ratio(x))):
            if math.isnan(expected) or math.isinf(expected):
                assert got == expected or (math.isnan(got) and math.isnan(expected)), x
            else:  # numpy's complex abs rounds on its own
                assert abs(got - expected) <= 1e-12 * abs(expected), x
    assert ratios[50] == math.inf  # w = -1, where |w - 1| = 2 over |w + 1| = 0


def test_u_disk_rejects_bad_k():
    with pytest.raises(ValueError):
        u_disk_margin(1 + 0j, 1.0)
    with pytest.raises(ValueError):
        u_disk_margin(1 + 0j, -0.1)


# -- grids --------------------------------------------------------------------


def test_disk_grid_shape():
    g = DiskGrid()
    r = g.radii()
    assert len(r) == 64
    assert r[0] == 0.0
    assert abs(r[-1] - 0.999) < 1e-12
    assert np.all(np.diff(r) > 0)
    a = g.angles()
    assert len(a) == 128
    assert np.allclose(np.diff(a), 2 * np.pi / 128)
    assert len(g.points()) == 64 * 128


def test_annulus_grid_shape():
    g = AnnulusGrid(16, 32, 1.01, 4.0)
    r = g.radii()
    assert r[0] == 1.01
    assert abs(r[-1] - 4.0) < 1e-12
    assert np.all(np.diff(r) > 0)
    assert len(g.points()) == 16 * 32


@pytest.mark.parametrize("outer", [3.0, 1e40])
def test_annulus_grid_ends_exactly_at_outer(outer):
    # 1.5 * (1e40 / 1.5) ** 1 rounds to 1.0000000000000002e+40; the other
    # radii are the geometric sequence's
    g = AnnulusGrid(8, 4, 1.5, outer)
    i = np.arange(8)
    want = 1.5 * (outer / 1.5) ** (i / 7)
    r = g.radii()
    assert r[-1] == outer
    assert np.array_equal(r[:-1], want[:-1])


def test_grid_validation():
    with pytest.raises(ValueError):
        DiskGrid(1, 8)
    with pytest.raises(ValueError):
        AnnulusGrid(8, 8, 0.9, 2.0)


def test_u_disk_center_radius_consistent_with_margin():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.uniform(0.05, 0.95)
        c, r = u_disk_center_radius(k)
        w = complex(rng.uniform(-4, 6), rng.uniform(-5, 5))
        geometric = abs(w - c) <= r
        assert geometric == (u_disk_margin(w, k) >= 0)
