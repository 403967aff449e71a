"""Criterion functionals: closed-form oracles, specialization consistency,
precondition handling, and the grid scan machinery."""

import cmath
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcx import (
    ALL_CRITERIA,
    AnalyticMap,
    CayleyMap,
    CompanionMap,
    ConstMap,
    CriterionParams,
    DiskGrid,
    IdentityMap,
    Jet2,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    PreconditionError,
    ScaledMap,
    SpiralMap,
    check_starlike,
    evaluate_criterion,
    gen_bazilevic_value,
    gen_becker_value,
    nw_value,
    phi_like_value,
    sector_nw_value,
    sup_over_grid,
    tracked_ratio_log,
    u_disk_margin,
)
from qcx.branches import ratio_branch, tracked_log
from qcx.criteria import CRITERIA, _refined_neighborhood
from qcx.grids import BLOCK, blocks
from qcx.sector import SectorDomain, companion_from_sector

SMALL_GRID = DiskGrid(24, 48, 1e-3)


def random_disk_points(n, rmax=0.9, seed=0):
    rng = random.Random(seed)
    return [cmath.rect(rng.uniform(0, rmax), rng.uniform(0, 2 * math.pi))
            for _ in range(n)]


# -- phi-like -----------------------------------------------------------------


def test_phi_like_identity():
    q = CompanionMap.identity()  # Phi view Q/Q' = w
    for z in random_disk_points(20, seed=1):
        assert abs(phi_like_value(IdentityMap(), q, z) - 1) < 1e-14
    assert phi_like_value(IdentityMap(), q, 0j) == 1


def test_phi_like_koebe_is_starlike():
    # z k'/k = (1+z)/(1-z) has positive real part on the disk
    q = CompanionMap.identity()
    f = KoebeMap()
    for z in random_disk_points(50, rmax=0.95, seed=2):
        v = phi_like_value(f, q, z)
        expected = (1 + z) / (1 - z)
        assert abs(v - expected) < 1e-12
    rep = evaluate_criterion("phi_like", f, q, CriterionParams(), SMALL_GRID)
    assert rep.passed
    assert rep.sup_value < 0  # sup of -Re stays negative


def test_phi_like_spiral_rotation():
    # direct Phi(w) = e^{i pi/3} w gives the constant value e^{-i pi/3}
    lam = math.pi / 3
    phi = ConstMap(cmath.exp(1j * lam)) * IdentityMap()
    v0 = phi_like_value(IdentityMap(), phi, 0j)
    assert abs(v0 - cmath.exp(-1j * lam)) < 1e-14
    v = phi_like_value(IdentityMap(), phi, 0.5 + 0.2j)
    assert abs(v.real - 0.5) < 1e-14


def test_phi_like_strict_boundary_fails():
    # Phi(w) = i*w makes Re == 0 everywhere: the strict inequality must fail
    phi = ConstMap(1j) * IdentityMap()
    rep = evaluate_criterion("phi_like", IdentityMap(), phi, CriterionParams(),
                             SMALL_GRID)
    assert not rep.passed


def test_phi_like_value_takes_its_origin_limit_only_where_phi_vanishes():
    # with Q(0) != 0, G(0) = Q(0) != 0 and z G'/G is 0 at 0, not the limit
    # of a 0/0 quotient
    f = PolynomialMap([1, 0.2])
    moved = CompanionMap.from_moebius(MoebiusMap.with_pole(-3))
    assert phi_like_value(f, moved, 0j) == 0
    assert abs(phi_like_value(f, moved, 1e-9 + 0j)) < 1e-9
    values = phi_like_value(f, moved, np.array([0j, 1e-9 + 0j]))
    assert values[0] == 0 and values[1] == phi_like_value(f, moved, 1e-9 + 0j)
    # a direct Phi the same way; the limit stands where Phi(0) = 0
    assert phi_like_value(f, IdentityMap() + 1, 0j) == 0
    fixed = CompanionMap.from_moebius(MoebiusMap(1, 0, 1 / 3, 1))
    assert phi_like_value(f, fixed, 0j) == 1
    assert abs(phi_like_value(f, fixed, 1e-9 + 0j) - 1) < 1e-8


@pytest.mark.parametrize("criterion", ["phi_like", "phi_like_udisk"])
def test_phi_like_rows_need_phi_to_vanish_at_the_origin(criterion):
    # the scan read sup_value 1.0 at worst_point 0j from the origin limit
    f = PolynomialMap([1, 0.2])
    params = CriterionParams(k=0.5, k_prime=0.5)
    for phi in (CompanionMap.from_moebius(MoebiusMap.with_pole(-3)), IdentityMap() + 1):
        with pytest.raises(PreconditionError, match=r"phi_like needs Phi\(0\) = 0"):
            evaluate_criterion(criterion, f, phi, params, SMALL_GRID)


@pytest.mark.parametrize("d1", [2, 0.5j], ids=["2", "0.5i"])
def test_phi_like_value_at_the_origin_is_its_limit(d1):
    # z f'/Phi(f) tends to 1/Phi'(0) whatever f'(0) is; the origin read
    # f'(0)/Phi'(0), 2 for f'(0) = 2 where z = 1e-9 gives 1.00000000015
    f = PolynomialMap([d1, 0.3], class_a=False)
    for phi in (IdentityMap(), ConstMap(cmath.exp(0.4j)) * IdentityMap(),
                CompanionMap.from_moebius(MoebiusMap(1, 0, 1 / 3, 1))):
        at0 = phi_like_value(f, phi, 0j)
        assert abs(at0 - phi_like_value(f, phi, 1e-9 + 0j)) <= 1e-8, phi
        assert phi_like_value(f, phi, np.array([0j, 0.5]))[0] == at0


def test_phi_like_value_is_inf_at_an_origin_where_f_prime_vanishes():
    # f = z^2 reads 2 next to the origin, and the origin read 1/Phi'(0) = 1:
    # the limit m/Phi'(0) needs the order m of the zero, which the jet does
    # not give, so the origin is inf and the scan fails there (z^2 is not
    # univalent)
    f = PolynomialMap([0, 1], class_a=False)
    assert phi_like_value(f, IdentityMap(), 0j) == complex(math.inf, 0)
    assert abs(phi_like_value(f, IdentityMap(), 1e-9 + 0j) - 2) < 1e-12
    values = phi_like_value(f, IdentityMap(), np.array([0.5, 0j]))
    assert values[1] == complex(math.inf, 0) and abs(values[0] - 2) < 1e-12
    rep = evaluate_criterion("phi_like", f, IdentityMap(), CriterionParams(),
                             DiskGrid(16, 32))
    assert not rep.passed
    assert (rep.sup_value, rep.worst_point) == (math.inf, 0)


def test_a_companion_whose_q_prime_vanishes_gives_phi_like_zero_there():
    # z G'/G = 0 where Q'(f) = 0, which fails the strict Re > 0 condition;
    # Phi = Q/Q' raised "Q' vanishes" there
    q = CompanionMap(PolynomialMap([1, -1.0]), 0.0)  # Q' = 1 - 2w, 0 at 1/2
    assert phi_like_value(IdentityMap(), q, 0.5 + 0j) == 0


# -- generalized Becker --------------------------------------------------------


def test_gen_becker_identity_zero():
    q = CompanionMap.identity()
    for z in random_disk_points(20, seed=3):
        assert gen_becker_value(IdentityMap(), q, 0j, z) == 0
    rep = evaluate_criterion("gen_becker", IdentityMap(), q,
                             CriterionParams(k=0.0, k_prime=0.0), SMALL_GRID)
    assert rep.passed and rep.sup_value == 0.0


def test_gen_becker_koebe_closed_form():
    # with Omega = 0, c = 0 the functional is (1-|z|^2)(4z+2z^2)/(1-z^2)
    q = CompanionMap.identity()
    f = KoebeMap()
    for z in random_disk_points(50, rmax=0.95, seed=4):
        v = gen_becker_value(f, q, 0j, z)
        expected = (1 - abs(z) ** 2) * (4 * z + 2 * z * z) / (1 - z * z)
        assert abs(v - expected) < 1e-10


def test_gen_becker_koebe_rejected_every_k():
    q = CompanionMap.identity()
    for kp in (0.0, 0.25, 0.5, 0.75, 0.99):
        rep = evaluate_criterion("gen_becker", KoebeMap(), q,
                                 CriterionParams(k=kp, k_prime=kp), SMALL_GRID)
        assert not rep.passed
        assert rep.sup_value >= 5.9


def test_gen_becker_cancellation():
    # f = z/(1-z) against the pole companion at -1: the two terms cancel
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(-1))
    f = CayleyMap()
    rep = evaluate_criterion("gen_becker", f, q,
                             CriterionParams(k=0.5, k_prime=0.5), SMALL_GRID)
    assert rep.passed
    assert rep.sup_value < 1e-10


def test_gen_becker_classical_reduction():
    # c = 0 and Omega = 0 leave exactly (1-|z|^2) z f''/f'
    f = PolynomialMap([1, 0.3, -0.1j])
    q = CompanionMap.identity()
    for z in random_disk_points(30, seed=5):
        j = f.jet(z)
        classical = (1 - abs(z) ** 2) * z * j.d2 / j.d1
        assert abs(gen_becker_value(f, q, 0j, z) - classical) < 1e-13


def test_gen_becker_vanishing_derivative_is_failure_not_crash():
    f = PolynomialMap([1, 1.0])  # f' = 1 + 2z vanishes at -1/2
    q = CompanionMap.identity()
    v = gen_becker_value(f, q, 0j, -0.5 + 0j)
    assert not math.isfinite(v.real)
    rep = evaluate_criterion("gen_becker", f, q,
                             CriterionParams(k=0.9, k_prime=0.9), SMALL_GRID)
    assert not rep.passed


# -- derivative condition (nw) -------------------------------------------------


def test_nw_identity():
    q = CompanionMap.identity()
    assert nw_value(IdentityMap(), q, 0.4j) == 1
    rep = evaluate_criterion("nw", IdentityMap(), q,
                             CriterionParams(k=0.0, k_prime=0.0), SMALL_GRID)
    assert rep.passed


def test_nw_small_perturbation_inside():
    f = PolynomialMap([1, 0.25])  # f' = 1 + 0.5 z
    q = CompanionMap.identity()
    rep = evaluate_criterion("nw", f, q, CriterionParams(k=0.5, k_prime=0.5),
                             SMALL_GRID)
    assert rep.passed
    # smallest enclosing bound: sup |0.5 z| / |2 + 0.5 z| = 1/3 at z -> -1
    assert abs(rep.smallest_bound - 1 / 3) < 2e-3


def test_nw_large_perturbation_fails():
    f = PolynomialMap([1, 0.95])  # f' = 1 + 1.9 z leaves U(0.5) near z = -1
    q = CompanionMap.identity()
    rep = evaluate_criterion("nw", f, q, CriterionParams(k=0.5, k_prime=0.5),
                             SMALL_GRID)
    assert not rep.passed
    assert rep.worst_point.real < -0.9


# -- Bazilevic-type --------------------------------------------------------------


def test_bazilevic_trivial():
    v = gen_bazilevic_value(IdentityMap(), ConstMap(1.0), 1 + 0j, IdentityMap(), 0.3 + 0.2j)
    assert abs(v - 1) < 1e-14


def test_bazilevic_constant_rotation():
    psi = ConstMap(cmath.exp(1j * math.pi / 4))
    v = gen_bazilevic_value(IdentityMap(), psi, 1 + 0j, IdentityMap(), 0.5j)
    assert abs(v.real - math.cos(math.pi / 4)) < 1e-14
    assert v.real > 0


def test_bazilevic_koebe_pair():
    # f = p = koebe, s = 1, Psi = 1: the value collapses to z k'/k = (1+z)/(1-z)
    f = KoebeMap()
    for z in random_disk_points(30, rmax=0.9, seed=6):
        v = gen_bazilevic_value(f, ConstMap(1.0), 1 + 0j, f, z)
        expected = (1 + z) / (1 - z)
        assert abs(v - expected) < 1e-9
    rep = evaluate_criterion("bazilevic", f, ConstMap(1.0),
                             CriterionParams(s=1 + 0j, p=f), SMALL_GRID)
    assert rep.passed  # grid minimum of the real part stays positive


def test_bazilevic_complex_exponent_matches_companion_route():
    # direct Psi derived from Q must agree with the companion evaluation
    s = 1.3 + 0.4j
    f = PolynomialMap([1, 0.2])
    q = CompanionMap.identity()  # Psi = (w/w)^{s-1} * 1 = 1
    for z in random_disk_points(20, rmax=0.8, seed=7):
        via_q = gen_bazilevic_value(f, q, s, IdentityMap(), z)
        direct = gen_bazilevic_value(f, ConstMap(1.0), s, IdentityMap(), z)
        assert abs(via_q - direct) < 1e-11


class _TwistMap(AnalyticMap):
    """f(z) = z * exp(i c z): class A with a winding ratio f/z."""

    def __init__(self, c: float):
        self.c = c

    def jet(self, z):
        c = self.c
        e = cmath.exp(1j * c * z)
        return Jet2(z * e, e * (1 + 1j * c * z), e * (2j * c - c * c * z))


def test_branch_tracking_beats_principal_branch():
    f = _TwistMap(10.0)
    z = 0.9 + 0j  # arg(f/z) = 9, two principal-branch wraps away
    lg = tracked_ratio_log(f, z)
    assert abs(lg - 1j * 10 * z) < 1e-9
    principal = cmath.log(f.jet(z).value / z)
    assert abs(principal - 1j * 10 * z) > 1  # the naive branch really is wrong


def test_bazilevic_requires_starlike_p():
    bad_p = PolynomialMap([1, 0.9])  # not starlike: Re(zp'/p) < 0 near z = -1
    with pytest.raises(PreconditionError):
        evaluate_criterion("bazilevic", IdentityMap(), ConstMap(1.0),
                           CriterionParams(s=1 + 0j, p=bad_p), SMALL_GRID)


def test_params_validation():
    with pytest.raises(PreconditionError):
        CriterionParams(k=0.5, k_prime=0.6)
    with pytest.raises(PreconditionError):
        CriterionParams(k=0.5, k_prime=0.2, c=0.3 + 0j)
    with pytest.raises(PreconditionError):
        CriterionParams(s=-1 + 2j)
    with pytest.raises(PreconditionError):
        CriterionParams(a=2.5)


# -- specializations ------------------------------------------------------------


def test_moebius_becker_matches_general():
    f = PolynomialMap([1, 0.15, 0.05j])
    c2 = -2.5 + 0.3j
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(c2))
    c1 = 0.1 - 0.05j
    row = CRITERIA["moebius_becker"].build(f, None, CriterionParams(c=c1, c2=c2))
    for z in random_disk_points(40, seed=8):
        direct = row(z)
        general = gen_becker_value(f, q, c1, z)
        assert abs(direct - general) < 1e-10


def test_moebius_nw_matches_general():
    f = PolynomialMap([1, 0.2])
    m = MoebiusMap(1.2, 0.3, 1, 3 + 0.5j)
    q = CompanionMap.from_moebius(m)
    row = CRITERIA["moebius_nw"].build(f, None, CriterionParams(gamma=m.gamma,
                                                                delta=m.delta))
    for z in random_disk_points(40, seed=9):
        direct = row(z)
        general = nw_value(f, q, z)
        assert abs(direct - general) < 1e-10


def test_sector_becker_matches_general():
    sec = SectorDomain(-2, 11 / 6, 1 / 3)
    q = companion_from_sector(sec, normalized=True)
    f = ScaledMap(IdentityMap(), 1.0)
    row = CRITERIA["sector_becker"].build(f, None, CriterionParams(
        c=0.05j, w0=sec.w0, lambda0=sec.lambda0, a=sec.a))
    for z in random_disk_points(40, rmax=0.9, seed=10):
        direct = row(z)
        general = gen_becker_value(f, q, 0.05j, z)
        assert abs(direct - general) < 1e-10


def test_moebius_criteria_preconditions():
    f = CayleyMap()
    # an omitted value sitting exactly on the sampled image trips the check
    z0 = complex(SMALL_GRID.points()[500])
    c2 = f.jet(z0).value
    with pytest.raises(PreconditionError):
        evaluate_criterion("moebius_becker", f, None,
                           CriterionParams(k=0.5, c2=c2), SMALL_GRID)
    with pytest.raises(PreconditionError):
        evaluate_criterion("moebius_nw", f, None,
                           CriterionParams(k=0.5, gamma=0j, delta=1 + 0j),
                           SMALL_GRID)


def test_sector_containment_precondition():
    with pytest.raises(PreconditionError):
        evaluate_criterion("sector_nw", IdentityMap(), None,
                           CriterionParams(k=0.5, w0=1 + 0j, lambda0=0.75, a=0.5),
                           SMALL_GRID)


def test_sector_containment_of_a_constant_map():
    # a constant map's jet holds its one value at every point of a block,
    # which the guard tests as fit_sector does
    params = CriterionParams(k=0.65, w0=-2 + 0j, lambda0=11 / 6, a=1 / 3)
    grid = DiskGrid(8, 16)
    rep = evaluate_criterion("sector_becker", ConstMap(0.3), None, params, grid)
    assert not rep.passed and rep.sup_value == math.inf  # f' = 0 scores inf
    with pytest.raises(PreconditionError, match="escapes the sector domain"):
        evaluate_criterion("sector_becker", ConstMap(-3.0), None, params, grid)


def test_sector_nw_identity_passes_fitted_sector():
    rep = evaluate_criterion("sector_nw", IdentityMap(), None,
                             CriterionParams(k=0.65, w0=-2 + 0j, lambda0=11 / 6,
                                             a=1 / 3), SMALL_GRID)
    assert rep.passed
    # conclusion composes the bound with the sector dilatation |1 - a| = 2/3
    expected = (0.65 + 2 / 3) / (1 + 0.65 * 2 / 3)
    assert abs(rep.concluded_dilatation - expected) < 1e-12


@pytest.mark.parametrize("criterion, params", [
    ("moebius_nw", CriterionParams(k=0.6, gamma=0.2 + 0j, delta=1 + 0j)),
    ("moebius_becker", CriterionParams(k=0.9, c2=-3 + 0j)),
], ids=["moebius_nw", "moebius_becker"])
def test_moebius_rows_conclude_from_their_own_companion(criterion, params):
    # the value reads a Moebius Q from the params, whose dilatation is 0: the
    # scenario companion's 0.5 does not enter (it gave compose(k, 0.5))
    catalog = CompanionMap(IdentityMap(), 0.5, True, "custom")
    rep = evaluate_criterion(criterion, PolynomialMap([1, 0.2]), catalog, params,
                             SMALL_GRID)
    assert rep.passed
    assert rep.concluded_dilatation == params.k


def _sector_nw_scan_and_oracle(f, w0, lambda0, a, grid):
    """The sector_nw value on the grid's points, and the oracle's there."""
    value = CRITERIA["sector_nw"].build(
        f, None, CriterionParams(k=0.5, w0=w0, lambda0=lambda0, a=a))
    points = grid.points()
    return value(points), [sector_nw_value(f, w0, a, complex(z)) for z in points]


def _holds_every_path(f, sector, points, steps=192):
    """Whether the sector holds f's image of [0, z] at `steps` points, for
    each z: the segments the oracle continues along."""
    path = (np.arange(1, steps + 1) / steps)[:, None] * points[None, :]
    return bool(sector.contains(f.jet(path.ravel()).value).all())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a2=st.complex_numbers(max_magnitude=0.3), a3=st.complex_numbers(max_magnitude=0.1),
       a=st.floats(0.1, 1.95), heading=st.floats(0, 2 * math.pi),
       tilt=st.floats(-0.8, 0.8), slack=st.floats(1.02, 2.0))
def test_sector_nw_closed_form_matches_the_tracked_oracle(a2, a3, a, heading, tilt, slack):
    # a sector of opening pi*a whose bisector from w0 misses the origin by
    # the angle tilt*pi*a/2, w0 far enough away that the sector holds the
    # disk the image lies in
    f = PolynomialMap([1, a2, a3])
    grid = DiskGrid(6, 12, 1e-2)
    radius = np.abs(f.jet(grid.max_radius * np.exp(2j * np.pi * np.arange(64) / 64)).value)
    half = math.pi * a / 2
    w0 = cmath.rect(slack * 1.2 * radius.max() / math.sin(min((1 - abs(tilt)) * half,
                                                                 math.pi / 2)), heading)
    lambda0 = (heading + math.pi - (1 - tilt) * half) / math.pi % 2
    assume(lambda0 < 2)
    assume(_holds_every_path(f, SectorDomain(w0, lambda0, a), grid.points()))
    got, want = _sector_nw_scan_and_oracle(f, w0, lambda0, a, grid)
    for v, w in zip(got, want):
        assert abs(v - w) <= 1e-12 * abs(w), (v, w)


def test_sector_nw_closed_form_turns_with_a_cone_past_a_half_turn():
    # a = 1.9: 1 - f/w0 winds past the negative axis inside its cone, where
    # the principal Log is off by 2 pi i and the turned one is not
    f = PolynomialMap([1, -0.12 + 0.19j, -0.024 + 0.093j])
    w0, lambda0, a = 0.375 + 0.223j, 0.368, 1.9
    grid = DiskGrid(8, 16)
    assert _holds_every_path(f, SectorDomain(w0, lambda0, a), grid.points(), 1000)
    got, want = _sector_nw_scan_and_oracle(f, w0, lambda0, a, grid)
    jf = f.jet(grid.points())
    principal = jf.d1 * np.exp((1 / a - 1) * np.log(1 - jf.value / w0))
    assert np.sum(np.abs(principal - want) > 0.1 * np.abs(want)) == 6
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


_LEAVES_THE_SECTOR = r"image point f\(1.2j\) = 1.2j escapes the sector domain"
_SECTOR_PARAMS = dict(w0=-2 + 0j, lambda0=11 / 6, a=1 / 3)


@pytest.mark.parametrize("criterion, params, error", [
    ("moebius_becker", CriterionParams(k=0.9, c2=1.2j),
     r"c2 = 1.2j is not separated from the image \(min distance 0\)"),
    ("moebius_nw", CriterionParams(k=0.6, gamma=1 + 0j, delta=-1.2j),
     r"-delta/gamma = 1.2j is not separated from the image \(min distance 0\)"),
    ("sector_becker", CriterionParams(k=0.65, **_SECTOR_PARAMS), _LEAVES_THE_SECTOR),
    ("sector_nw", CriterionParams(k=0.65, **_SECTOR_PARAMS), _LEAVES_THE_SECTOR),
])
def test_image_reading_values_raise_where_the_image_breaks_the_hypothesis(
        criterion, params, error):
    # the identity's image of [0.5j, 0.9] keeps the hypothesis on f(D), that
    # of 1.2j breaks it: each block the value evaluates, a refinement patch
    # as much as a grid block, is held to it, at its first offending point
    value = CRITERIA[criterion].build(IdentityMap(), None, params)
    value(np.array([0.5j, 0.9]))
    with pytest.raises(PreconditionError, match=error):
        value(np.array([0.5j, 1.2j, 1.3j]))
    with pytest.raises(PreconditionError, match=error):
        value(1.2j)


def test_special_case_vertex_one_fails_for_identity():
    # value 1 - z tends to 0 as z -> 1, and 0 is outside every U(k):
    # the worst point sits near z = +1, not z = -1
    f = IdentityMap()
    worst = min(u_disk_margin(1 - z, 0.5) for z in SMALL_GRID.points())
    assert worst < -0.4  # independent oracle: margin at z = 0.999 is about -0.5
    with pytest.raises(PreconditionError):
        # the sector hypothesis cannot hold either: the disk pokes out
        evaluate_criterion("sector_nw", f, None,
                           CriterionParams(k=0.5, w0=1 + 0j, lambda0=0.75, a=0.5),
                           SMALL_GRID)


# -- monotonicity and report mechanics -------------------------------------------


def test_report_monotone_in_threshold():
    f = PolynomialMap([1, 0.25])
    q = CompanionMap.identity()
    passing = []
    for kp in (0.2, 0.34, 0.5, 0.8):
        rep = evaluate_criterion("nw", f, q, CriterionParams(k=kp, k_prime=kp),
                                 SMALL_GRID)
        passing.append(rep.passed)
    # once it passes it keeps passing for larger bounds
    assert passing == sorted(passing)


def test_sup_over_grid_constant():
    rep = sup_over_grid(lambda z: np.zeros(z.shape), SMALL_GRID, 0.3,
                        criterion="const")
    assert rep.passed
    assert rep.sup_value == 0.0
    assert abs(rep.margin - 0.3) < 1e-15


def test_sup_over_grid_nonfinite_fails():
    def fn(z):
        return np.where(abs(z - 0.5) < 0.05, math.inf, 0.0)

    rep = sup_over_grid(fn, SMALL_GRID, 10.0, criterion="bad")
    assert not rep.passed
    assert rep.sup_value == math.inf


def test_sup_over_grid_smallest_bound_on_failure():
    grid = DiskGrid(6, 12, 1e-2)
    on_grid = set(complex(z) for z in grid.points())

    def off_grid_fails(z):
        return np.where(np.isin(z, grid.points()), abs(z), math.inf)

    # the refinement patch leaves the grid: the grid pass's bound stays
    rep = sup_over_grid(off_grid_fails, grid, 10.0, ratio=abs)
    assert not rep.passed and rep.sup_value == math.inf
    assert rep.smallest_bound == max(abs(z) for z in on_grid)

    # a failure in the grid pass leaves no bound
    rep = sup_over_grid(lambda z: np.where(abs(z - 0.5) < 0.2, math.inf, 0.0),
                        grid, 10.0, ratio=abs)
    assert not rep.passed and rep.smallest_bound is None
    assert rep.samples == len(grid.points())


def test_refinement_improves_koebe_sup():
    q = CompanionMap.identity()
    f = KoebeMap()

    def score(z):  # a point or, elementwise, a block
        return abs(gen_becker_value(f, q, 0j, z))

    coarse = DiskGrid(12, 16, 1e-3)
    grid_sup = max(score(complex(z)) for z in coarse.points())
    with_ref = sup_over_grid(score, coarse, 1.0)
    assert with_ref.sup_value >= grid_sup


def test_evaluate_deterministic_and_collect():
    f = PolynomialMap([1, 0.25])
    q = CompanionMap.identity()
    r1 = evaluate_criterion("nw", f, q, CriterionParams(k=0.4, k_prime=0.4), SMALL_GRID)
    r2, rows = evaluate_criterion("nw", f, q, CriterionParams(k=0.4, k_prime=0.4),
                                  SMALL_GRID, collect=True)
    assert r1 == r2
    assert len(rows) == r1.samples


# -- the criterion table ---------------------------------------------------------

GOLDEN_GRID = DiskGrid(6, 12, 1e-2)
GOLDEN_SECTOR = dict(w0=-2 + 0j, lambda0=1.8333333333333333, a=0.3333333333333333)
GOLDEN_Q = CompanionMap(PolynomialMap([1, 0.05]), 0.2)

# One fixed case per criterion id.  moebius_nw and sector_becker take
# k_prime < k and must conclude from k; phi_like concludes no dilatation;
# gen_becker and nw compose their bound with the companion's 0.2.
GOLDEN_CASES = {
    "phi_like": (PolynomialMap([1, 0.25]), CompanionMap.identity(),
                 CriterionParams()),
    "bazilevic": (PolynomialMap([1, 0.25]), CompanionMap.identity(),
                  CriterionParams(s=1 + 0.5j)),
    "gen_becker": (PolynomialMap([1, 0.25]), GOLDEN_Q,
                   CriterionParams(k=0.7, k_prime=0.6, c=0.1)),
    "moebius_becker": (PolynomialMap([1, 0.2]), None,
                       CriterionParams(k=0.9, k_prime=0.5, c2=-3 + 0j)),
    "sector_becker": (PolynomialMap([1, 0.1]), None,
                      CriterionParams(k=0.65, k_prime=0.3, **GOLDEN_SECTOR)),
    "nw": (PolynomialMap([1, 0.25]), GOLDEN_Q,
           CriterionParams(k=0.6, k_prime=0.45)),
    "moebius_nw": (PolynomialMap([1, 0.2]), None,
                   CriterionParams(k=0.6, k_prime=0.3, gamma=0.2 + 0j,
                                   delta=1 + 0j)),
    "sector_nw": (PolynomialMap([1, 0.1]), None,
                  CriterionParams(k=0.75, k_prime=0.5, **GOLDEN_SECTOR)),
    "phi_like_udisk": (PolynomialMap([1, 0.25]), CompanionMap.identity(),
                       CriterionParams(k=0.5, k_prime=0.5)),
    "bazilevic_udisk": (PolynomialMap([1, 0.1]), ConstMap(1.0),
                        CriterionParams(k=0.5, k_prime=0.5)),
}

GOLDEN_FIELDS = ("passed", "sup_value", "threshold", "strict", "margin",
                 "worst_re", "worst_im", "samples", "smallest_bound",
                 "concluded_dilatation")
GOLDEN_REPORTS = {
    "phi_like": (True, -0.67109634551495, 0.0, True, 0.67109634551495, -0.99, 1.2124003311558797e-16, 153, None, None),
    "bazilevic": (True, -0.49990447152719536, 0.0, True, 0.49990447152719536, -0.99, 1.2124003311558797e-16, 153, None, None),
    "gen_becker": (True, 0.2665952053014155, 0.6, False, 0.3334047946985845, -0.6018928294465028, 7.371061270114035e-17, 153, 0.2665952053014155, 0.7142857142857143),
    "moebius_becker": (True, 0.13549512310935924, 0.9, False, 0.7645048768906408, 0.5813838286205785, -0.15578132737139824, 153, 0.13549512310935924, 0.9),
    "sector_becker": (True, 0.5580651491726969, 0.65, False, 0.09193485082730313, -0.6018928294465028, 7.371061270114035e-17, 153, 0.5580651491726969, 0.9186046511627909),
    "nw": (True, -0.1276992056249998, 0.0, False, 0.1276992056249998, -0.99, 1.2124003311558797e-16, 153, 0.36297461235745543, 0.5963302752293578),
    "moebius_nw": (True, -0.9656967094897674, 0.0, False, 0.9656967094897674, -0.99, 1.2124003311558797e-16, 153, 0.07900446790816419, 0.6),
    # sector_nw's worst point is one of a pair of grid points that are
    # conjugate up to the rounding of their angles, and f has real
    # coefficients in a sector symmetric about the real axis: in exact
    # arithmetic their scores tie, in floating point they differ by 1e-16,
    # and the tie rule (`jets.extremum`) names the first of the two in grid
    # order, the point above the axis, whichever scores higher
    "sector_nw": (True, -0.08284064816463754, 0.0, False, 0.08284064816463754, -0.4949999999999998, 0.8573651497465943, 153, 0.6921888235674949, 0.9444444444444445),
    "phi_like_udisk": (True, -0.506644518272425, 0.0, False, 0.506644518272425, -0.99, 1.2124003311558797e-16, 153, 0.19681908548707766, 0.5),
    "bazilevic_udisk": (True, -0.7030000000000001, 0.0, False, 0.7030000000000001, -0.99, 1.2124003311558797e-16, 153, 0.10987791342952273, 0.5),
}


def test_a_real_coefficient_scan_names_the_same_twin_after_a_one_ulp_change():
    # |f| of f = z - 0.3 z^3 peaks on the outer ring at +-i r, a pair of grid
    # points conjugate up to the rounding of their angles: one ulp either
    # way moves the sup, not the point named, the upper twin, first in grid
    # order
    grid = DiskGrid(8, 16, 1e-2)

    def scan(nudged, toward):
        rows = []

        def value(z):
            v = np.abs(z - 0.3 * z ** 3)
            return np.where(nudged(z), np.nextafter(v, toward), v)

        report = sup_over_grid(value, grid, 2.0, rows=rows)
        assert report.sup_value == max(r[:, 1].real.max() for r in rows)
        return report.worst_point

    upper = scan(lambda z: z.imag < 0, 0.0)  # the lower twin a ulp lower
    assert upper.imag > 0 and abs(abs(upper) - grid.max_radius) < 1e-15
    assert abs(upper.real) < 1e-15
    assert scan(lambda z: z.imag < 0, math.inf) == upper  # the lower twin a ulp higher
    assert scan(lambda z: z.imag > 0, 0.0) == upper  # the upper twin a ulp lower
    assert scan(lambda z: z.imag > 0, math.inf) == upper


@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_criterion_table_reports_are_pinned(criterion):
    f, q, params = GOLDEN_CASES[criterion]
    report = evaluate_criterion(criterion, f, q, params, GOLDEN_GRID)
    expected = dict(zip(GOLDEN_FIELDS, GOLDEN_REPORTS[criterion]))
    assert report.as_dict() == {"criterion": criterion, "note": "", **expected}


# -- U(k')-strengthened variants ----------------------------------------------------


def test_phi_like_udisk_variant():
    # value 1 sits at the center of every U(k'): margin 2k'
    q = CompanionMap.identity()
    rep = evaluate_criterion("phi_like_udisk", IdentityMap(), q,
                             CriterionParams(k=0.3, k_prime=0.3), SMALL_GRID)
    assert rep.passed
    assert abs(rep.margin - 0.6) < 1e-12
    # koebe's ratio (1+z)/(1-z) sweeps the whole right half-plane: no U(k')
    rep2 = evaluate_criterion("phi_like_udisk", KoebeMap(), q,
                              CriterionParams(k=0.9, k_prime=0.9), SMALL_GRID)
    assert not rep2.passed


def test_bazilevic_udisk_variant():
    rep = evaluate_criterion("bazilevic_udisk", PolynomialMap([1, 0.1]),
                             ConstMap(1.0),
                             CriterionParams(k=0.5, k_prime=0.5, s=1 + 0j),
                             SMALL_GRID)
    assert rep.passed
    assert rep.smallest_bound < 0.2


def test_branch_tracking_extreme_winding():
    # nine full turns of arg(f/z) across the ray: the tracker must subdivide
    f = _TwistMap(60.0)
    z = 0.95 + 0j
    lg = tracked_ratio_log(f, z)
    assert abs(lg - 1j * 60 * z) < 1e-9


def test_nw_identity_margin_is_twice_the_bound():
    # the value sits at 1, the center of the family: margin k'|1+1| - 0 = 2k'
    rep = evaluate_criterion("nw", IdentityMap(), CompanionMap.identity(),
                             CriterionParams(k=0.3, k_prime=0.3), SMALL_GRID)
    assert rep.passed
    assert abs(rep.margin - 0.6) < 1e-12


# -- the array path: functionals, block closures, prechecks and the block scan -------


def _close(a, b, tol=1e-12):
    """a matches b to `tol` relative (a non-finite b must be matched exactly)."""
    a, b = complex(a), complex(b)
    if not math.isfinite(abs(b)):
        return a == b
    return abs(a - b) <= tol * abs(b) + 1e-300


def _assert_matches_per_point(fn, points):
    """fn on the array of points against fn called at one point at a time."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        values = np.broadcast_to(fn(points), points.shape)
        expected = [fn(complex(z)) for z in points]
    for i, (a, b) in enumerate(zip(values, expected)):
        assert _close(a, b), (i, points[i], a, b)


def _array_points():
    """The golden grid, the refinement patches around an interior and an
    outer-ring point, and the origin once more."""
    pts = GOLDEN_GRID.points()
    return np.concatenate([pts, _refined_neighborhood(GOLDEN_GRID, complex(pts[40])),
                           _refined_neighborhood(GOLDEN_GRID, complex(pts[-5])), [0j]])


ARRAY_F = {"poly": PolynomialMap([1, 0.25, -0.05j]), "cayley": ScaledMap(CayleyMap(), 3.0),
           "spiral": SpiralMap(0.6)}
ARRAY_Q = {"identity": CompanionMap.identity(),
           "moebius": CompanionMap.from_moebius(MoebiusMap.with_pole(-3 + 0.5j)),
           "catalog": GOLDEN_Q}
SECTOR_Q = companion_from_sector(SectorDomain(-2, 11 / 6, 1 / 3), normalized=True)


def _row(criterion, f, **params):
    """The value of a row that reads no companion, built on f and the params."""
    return CRITERIA[criterion].build(f, None, CriterionParams(**params))


def _functional_cases():
    cases = []
    for fn_name, f in ARRAY_F.items():
        for q_name, q in ARRAY_Q.items():
            cases += [
                pytest.param(lambda z, f=f, q=q: nw_value(f, q, z),
                             id=f"nw-{fn_name}-{q_name}"),
                pytest.param(lambda z, f=f, q=q: gen_becker_value(f, q, 0.1 - 0.05j, z),
                             id=f"gen_becker-{fn_name}-{q_name}"),
                pytest.param(lambda z, f=f, q=q: phi_like_value(f, q, z),
                             id=f"phi_like-{fn_name}-{q_name}"),
            ]
        cases += [
            pytest.param(lambda z, f=f: phi_like_value(
                f, ConstMap(cmath.exp(0.4j)) * IdentityMap(), z),
                id=f"phi_like-{fn_name}-direct"),
            pytest.param(_row("moebius_becker", f, c=0.1 - 0.05j, c2=-3 + 0.3j),
                         id=f"moebius_becker-{fn_name}"),
            pytest.param(_row("moebius_nw", f, gamma=0.2 + 0j, delta=1 + 0j),
                         id=f"moebius_nw-{fn_name}"),
        ]
    small = PolynomialMap([1, 0.1])
    cases += [
        pytest.param(_row("sector_becker", small, c=0.05j, **GOLDEN_SECTOR),
                     id="sector_becker-poly"),
        pytest.param(lambda z: nw_value(small, SECTOR_Q, z), id="nw-poly-sector"),
        pytest.param(lambda z: gen_becker_value(small, SECTOR_Q, 0.05j, z),
                     id="gen_becker-poly-sector"),
    ]
    return cases


@pytest.mark.parametrize("fn", _functional_cases())
def test_array_functionals_match_per_point_calls(fn):
    _assert_matches_per_point(fn, _array_points())


def _closure_cases():
    poly = PolynomialMap([1, 0.25, -0.05j])
    return [
        pytest.param("bazilevic", poly, CompanionMap.identity(),
                     CriterionParams(s=1.2 + 0.5j, p=KoebeMap()), id="bazilevic-identity"),
        pytest.param("bazilevic", ScaledMap(CayleyMap(), 3.0),
                     CompanionMap.from_moebius(MoebiusMap(5, 0, -1, 5)),  # Q(0) = 0
                     CriterionParams(s=1 + 0.5j), id="bazilevic-moebius"),
        pytest.param("bazilevic", SpiralMap(0.6), ConstMap(1.0),
                     CriterionParams(s=0.9 - 0.3j), id="bazilevic-direct"),
        pytest.param("bazilevic_udisk", poly, CompanionMap.identity(),
                     CriterionParams(k=0.6, k_prime=0.6, s=0.9 - 0.3j, p=KoebeMap()),
                     id="bazilevic_udisk"),
        pytest.param("sector_nw", PolynomialMap([1, 0.1]), None,
                     CriterionParams(k=0.75, **GOLDEN_SECTOR), id="sector_nw"),
    ]


@pytest.mark.parametrize("criterion, f, psi, params", _closure_cases())
def test_block_closures_match_per_point_calls(criterion, f, psi, params):
    value = CRITERIA[criterion].build(f, psi, params)
    points = _array_points()
    _assert_matches_per_point(value, points)
    # and the branch tracked from the origin at each point, with no lattice
    if criterion == "sector_nw":
        def oracle(z):
            return sector_nw_value(f, params.w0, params.a, z)
    else:
        def oracle(z):
            return gen_bazilevic_value(f, psi, params.s, params.p or IdentityMap(), z)
    for z, v in zip(points, value(points)):
        assert _close(v, oracle(complex(z))), z


def _on(f, z):
    """f(z) from the point's own jet: a value the masks below hit exactly."""
    return f.jet(complex(z)).value


POLY = PolynomialMap([1, 0.2])
MASKED_CASES = {
    # value function, the point where the criterion has no finite value
    "f' = 0": (lambda z: gen_becker_value(PolynomialMap([1, 1.0]),
                                          CompanionMap.identity(), 0.1j, z), -0.5),
    "Q' = 0": (lambda z: gen_becker_value(
        IdentityMap(), CompanionMap(PolynomialMap([1, 1.0]), 0.0), 0.1j, z), -0.5),
    "f' = 0, moebius_becker": (_row("moebius_becker", PolynomialMap([1, 1.0]), c2=5 + 0j),
                               -0.5),
    "f' = 0, sector_becker": (_row("sector_becker", PolynomialMap([1, 1.0]), **GOLDEN_SECTOR),
                              -0.5),
    "Phi(f) = 0": (lambda z: phi_like_value(PolynomialMap([1, 2.0]), IdentityMap(), z), -0.5),
    "Phi'(0) = 0": (lambda z: phi_like_value(
        IdentityMap(), PolynomialMap([0, 1], class_a=False), z), 0),
}


@pytest.mark.parametrize("case", MASKED_CASES)
def test_masked_points_are_inf_where_the_point_path_is(case):
    fn, bad = MASKED_CASES[case]
    points = np.array([0.3 + 0.1j, bad, -0.2j, 0.7, bad, 0.1 - 0.6j], complex)
    values = np.broadcast_to(fn(points), points.shape)
    assert [not np.isfinite(v) for v in values] == [z == bad for z in points]
    assert all(values[points == bad] == complex(math.inf, 0))
    _assert_matches_per_point(fn, points)


POLE_CASES = {
    # the row and its params, with f(0.5) on the value the row's formula
    # divides by f - pole (or gamma f + delta) at: the guard refuses it
    "f = c2": ("moebius_becker", dict(c=0.1j, c2=_on(POLY, 0.5))),
    "f = w0": ("sector_becker", dict(c=0.1j, w0=_on(POLY, 0.5), lambda0=0.0, a=1 / 3)),
    "gamma f + delta = 0": ("moebius_nw", dict(gamma=2 + 0j, delta=-2 * _on(POLY, 0.5))),
}


@pytest.mark.parametrize("case", POLE_CASES)
def test_an_image_point_on_the_rows_pole_is_refused_by_name(case):
    criterion, params = POLE_CASES[case]
    value = _row(criterion, POLY, **params)
    named = re.escape(f"f({0.5 + 0j!r}) = {_on(POLY, 0.5)!r}")
    for points in (np.array([0.5, 0.3 + 0.1j, 0.5]), 0.5 + 0j):
        with pytest.raises(PreconditionError, match=named):
            value(points)


def test_prechecks_name_the_first_failing_point():
    """One array evaluation each, and the text a per-point loop gives."""
    grid = DiskGrid(24, 48, 1e-3)
    bad_p = PolynomialMap([1, 0.9])
    first = next(z for z in grid.points()[1:]
                 if z != 0 and (z * bad_p.jet(z).d1 / bad_p.jet(z).value).real <= 0)
    with pytest.raises(PreconditionError) as err:
        check_starlike(bad_p, grid)
    assert str(err.value) == ("comparison map is not starlike on the grid "
                              f"(violation at {complex(first)!r})")

    sector = SectorDomain(-2 + 0j, 11 / 6, 1 / 3)
    f = PolynomialMap([1, 0.3])
    first = next(z for z in grid.points() if not sector.contains(f.jet(z).value))
    with pytest.raises(PreconditionError) as err:
        evaluate_criterion("sector_becker", f, None,
                           CriterionParams(k=0.65, w0=sector.w0, lambda0=sector.lambda0,
                                           a=sector.a), grid)
    # the message prints the point and its image as Python numbers
    w = f.jet(np.array([first])).value[0]
    assert str(err.value) == (f"image point f({complex(first)!r}) = {complex(w)!r} "
                              "escapes the sector domain")

    c2 = complex(CayleyMap().jet(grid.points()[500]).value)
    with pytest.raises(PreconditionError) as err:
        evaluate_criterion("moebius_becker", CayleyMap(), None,
                           CriterionParams(k=0.5, c2=c2), grid)
    assert str(err.value) == (f"c2 = {c2!r} is not separated from the image (min distance 0) "
                              f"at image point f({complex(grid.points()[500])!r}) = {c2!r}")


# a grid of two blocks: points 0 to B - 1 and B to B + 127, B = BLOCK
TWO_BLOCKS = DiskGrid(BLOCK // 64 + 2, 64, 1e-2)
B = BLOCK


def test_scan_fails_at_the_earlier_of_two_non_finite_points():
    pts = TWO_BLOCKS.points()
    assert len(pts) == B + 128 and [len(b) for b in blocks(pts)] == [B, 128]
    for early, late in ((pts[100], pts[B + 88]), (pts[B + 8], pts[B + 118])):
        def fn(z):
            return np.where(z == late, math.inf, np.where(z == early, math.nan, abs(z)))

        rep = sup_over_grid(fn, TWO_BLOCKS, 10.0, ratio=abs)
        assert not rep.passed and rep.sup_value == math.inf
        assert rep.worst_point == complex(early)
        assert rep.samples == B + 128 and rep.smallest_bound is None
    # a larger finite score in the first block does not outrank a failure
    rep = sup_over_grid(lambda z: np.where(z == pts[B + 88], math.inf, 5.0 * (z == pts[3])),
                        TWO_BLOCKS, 10.0)
    assert not rep.passed and rep.worst_point == complex(pts[B + 88])


def test_equal_maximum_scores_report_the_earliest_point():
    pts = TWO_BLOCKS.points()
    top = {130, 140, B + 68}  # two in the first block, one in the second

    def fn(z):
        return np.where(np.isin(z, pts[sorted(top)]), 5.0, 0.5 * abs(z))

    rep = sup_over_grid(fn, TWO_BLOCKS, 10.0)
    assert rep.sup_value == 5.0 and rep.worst_point == complex(pts[130])
    # only the second block holds the maximum: its first occurrence wins
    rep = sup_over_grid(lambda z: np.where(np.isin(z, pts[[B + 88, B + 68]]), 5.0, 0.0),
                        TWO_BLOCKS, 10.0)
    assert rep.worst_point == complex(pts[B + 68])
    # a constant: the first grid point, which the refinement patch's tie keeps
    rep = sup_over_grid(lambda z: np.ones(z.shape), TWO_BLOCKS, 10.0)
    assert rep.sup_value == 1.0 and rep.worst_point == complex(pts[0])


def test_smallest_bound_contracts_hold_across_blocks():
    pts = TWO_BLOCKS.points()
    # the refinement patch leaves the grid: the bound is the whole grid's
    rep = sup_over_grid(lambda z: np.where(np.isin(z, pts), abs(z), math.inf),
                        TWO_BLOCKS, 10.0, ratio=abs)
    assert not rep.passed and rep.sup_value == math.inf
    assert rep.smallest_bound == np.abs(pts).max() == np.abs(pts[B:]).max()
    assert rep.samples == B + 128 + 81
    # a failure in the second block of the grid pass leaves no bound
    rep = sup_over_grid(lambda z: np.where(z == pts[B + 127], math.inf, abs(z)),
                        TWO_BLOCKS, 10.0, ratio=abs)
    assert not rep.passed and rep.smallest_bound is None and rep.samples == B + 128
    # passing: the sup of the ratio over both blocks and the patch
    rep = sup_over_grid(lambda z: abs(z), TWO_BLOCKS, 10.0, ratio=lambda v: 2 * v)
    assert rep.passed and rep.smallest_bound == 2 * rep.sup_value


def test_collected_rows_are_every_block_in_scan_order():
    f, q = PolynomialMap([1, 0.25]), CompanionMap.identity()
    rep, rows = evaluate_criterion("nw", f, q, CriterionParams(k=0.4, k_prime=0.4),
                                   TWO_BLOCKS, collect=True)
    patch = _refined_neighborhood(TWO_BLOCKS, rep.worst_point)
    assert rows.shape == (rep.samples, 2)
    assert np.array_equal(rows[:, 0], np.concatenate([TWO_BLOCKS.points(), patch]))
    assert np.array_equal(rows[:, 1], nw_value(f, q, rows[:, 0]))


# -- a criterion through Q is the classical criterion on G = Q o f -------------
#
# The two-jet formulas the functionals wrote before they read G = Q o f.


def _two_jet_gen_becker(f, q, c, z):
    jf = f.jet(z)
    jq = q.jet(jf.value)
    r2 = abs(z) ** 2
    bracket = z * jf.d2 / jf.d1 + z * jf.d1 * (jq.d2 / jq.d1)
    return c * r2 + (1 - r2) * bracket


def _two_jet_nw(f, q, z):
    jf = f.jet(z)
    return jf.d1 * q.jet(jf.value).d1


def _two_jet_phi_like(f, q, z):
    jf = f.jet(z)
    jq = q.jet(jf.value)
    return z * jf.d1 / (jq.value / jq.d1)


def _two_jet_bazilevic(f, q, s, z, lg):
    """Q'(f) f' (G/z)^{s-1} (p the identity) with lg = log(G/z)."""
    jf = f.jet(z)
    return q.jet(jf.value).d1 * jf.d1 * np.exp((s - 1) * lg)


G_COMPANIONS = {
    "polynomial": CompanionMap(PolynomialMap([1, 0.05, 0.01j]), 0.1),
    "moebius": CompanionMap.from_moebius(MoebiusMap(1, 0, 1 / 3, 1)),  # pole -3
    "catalog": CompanionMap(ScaledMap(KoebeMap(), 4.0), 0.2),
}
G_POINTS = DiskGrid(4, 8, 1e-2).points()[8:]  # off the origin ring
G_S = 1.2 + 0.5j


def _two_jet_log(f, q, z):
    """log(G/z) continued along [0, z] by the two-jet ratio Q(f(w))/w."""
    jf0 = f.jet(0j)
    anchor = cmath.log(q.jet(jf0.value).d1 * jf0.d1)
    return np.array([tracked_log(lambda w: q.jet(f.jet(w).value).value / w, x, anchor)
                     for x in z.tolist()])


def _g_route(f, q, c, z, lg):
    """(name, G-route value, two-jet value) of every functional at z, the
    Bazilevic value's log(G/z) given as lg."""
    bazilevic = CRITERIA["bazilevic"].build(f, q, CriterionParams(s=G_S))
    return [("gen_becker", gen_becker_value(f, q, c, z), _two_jet_gen_becker(f, q, c, z)),
            ("nw", nw_value(f, q, z), _two_jet_nw(f, q, z)),
            ("phi_like", phi_like_value(f, q, z), _two_jet_phi_like(f, q, z)),
            ("bazilevic", bazilevic(z), _two_jet_bazilevic(f, q, G_S, z, lg))]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(a2=st.complex_numbers(max_magnitude=0.3), a3=st.complex_numbers(max_magnitude=0.1),
       c=st.complex_numbers(max_magnitude=0.3), name=st.sampled_from(sorted(G_COMPANIONS)))
def test_criteria_through_q_are_the_classical_criteria_on_g(a2, a3, c, name):
    # |2 a2 z + 3 a3 z^2| < 0.9 keeps f' and f/z off 0 on the disk
    f, q = PolynomialMap([1, a2, a3]), G_COMPANIONS[name]
    for what, got, want in _g_route(f, q, c, G_POINTS, _two_jet_log(f, q, G_POINTS)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), what


@pytest.mark.parametrize("f", list(ARRAY_F.values()), ids=list(ARRAY_F))
def test_the_identity_companions_g_is_f_to_the_bit(f):
    # the Bazilevic value takes the same branch both ways, to isolate the product
    z = np.concatenate([G_POINTS, [0.5, -0.25j]])
    routes = _g_route(f, CompanionMap.identity(), 0.1 - 0.05j, z, ratio_branch(f).log(z))
    for what, got, want in routes:
        assert np.array_equal(got.view(float), want.view(float)), what
