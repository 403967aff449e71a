"""Sector domains, the half-plane power map, its plane extension, fitting."""

import cmath
import math
import random

import numpy as np
import pytest

from qcx import (
    CayleyMap,
    ConstMap,
    ContainmentError,
    PolynomialMap,
    DiskGrid,
    DomainError,
    IdentityMap,
    PreconditionError,
    ScaledMap,
    SectorDomain,
    SectorPowerMap,
    SpiralMap,
    beltrami_on_grid,
    companion_from_sector,
    extend_q2,
    fit_sector,
    p_extension,
    p_extension_inverse,
    sup_abs_on_boundary,
)


def sector_points(sec, n, seed=0, rmin=0.05, rmax=3.0, inset=0.02):
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        r = rng.uniform(rmin, rmax)
        u = rng.uniform(inset, 1 - inset)
        pts.append(sec.w0 + r * cmath.exp(1j * math.pi * (sec.lambda0 + u * sec.a)))
    return pts


# -- membership ----------------------------------------------------------------


def test_membership_basic():
    sec = SectorDomain(0, 0, 0.5)
    assert sec.contains(cmath.exp(0.3j))
    assert not sec.contains(cmath.exp(-0.3j))
    assert not sec.contains(0j)  # vertex excluded
    assert not sec.contains(1 + 0j)  # boundary ray excluded


def test_membership_wraps_cut():
    # sector straddling the negative real axis of the local frame
    sec = SectorDomain(0, 1.75, 0.5)
    assert sec.contains(cmath.exp(1j * math.pi * 1.9))
    assert sec.contains(cmath.exp(1j * math.pi * 0.1))
    assert not sec.contains(cmath.exp(1j * math.pi * 0.5))


def test_sector_validation():
    with pytest.raises(PreconditionError):
        SectorDomain(0, 0, 2.5)
    with pytest.raises(PreconditionError):
        SectorDomain(0, -0.5, 1.0)


# -- the conformal power map -----------------------------------------------------


def test_q2_identity_on_upper_half_plane():
    sec = SectorDomain(0, 0, 1.0)
    for w in (1j, -2 + 0.5j, 3 + 4j):
        w = complex(w)
        assert abs(SectorPowerMap(sec).jet(w).value - w) < 1e-14


def test_q2_quarter_plane_square():
    sec = SectorDomain(0, 0, 0.5)
    w = cmath.exp(1j * math.pi / 4)
    assert abs(SectorPowerMap(sec).jet(w).value - 1j) < 1e-14


def test_q2_maps_into_upper_half_plane():
    sec = SectorDomain(1 + 1j, 0.3, 1.4)
    for w in sector_points(sec, 100, seed=1):
        assert SectorPowerMap(sec).jet(w).value.imag > 0


def test_q2_jet_log_derivative():
    # Q2''/Q2' = (1/a - 1)/(w - w0)
    sec = SectorDomain(-2, 11 / 6, 1 / 3)
    for w in sector_points(sec, 40, seed=2, rmax=4.0):
        j = SectorPowerMap(sec).jet(w)
        expected = (1 / sec.a - 1) / (w - sec.w0)
        assert abs(j.d2 / j.d1 - expected) < 1e-12


def test_q2_jet_vs_finite_differences():
    sec = SectorDomain(-2, 11 / 6, 1 / 3)
    q2 = SectorPowerMap(sec)
    h = 1e-6
    for w in sector_points(sec, 30, seed=3, rmin=0.5, rmax=3.0, inset=0.1):
        j = q2.jet(w)
        fd1 = (q2.jet(w + h).value - q2.jet(w - h).value) / (2 * h)
        assert abs(j.d1 - fd1) / (1 + abs(j.d1)) < 1e-8


def test_q2_outside_domain():
    sec = SectorDomain(0, 0, 0.5)
    with pytest.raises(DomainError):
        SectorPowerMap(sec).jet(-1 + 0j)


def test_normalized_companion_unit_derivative():
    # f'(0) * Q3'(0) = 1 for the rescaled map
    sec = SectorDomain(-2, 11 / 6, 1 / 3)
    q = companion_from_sector(sec, normalized=True)
    assert abs(q.jet(0j).d1 - 1) < 1e-14
    assert abs(q.extension_dilatation - 2 / 3) < 1e-15
    assert q.fixes_infinity


# -- the plane extension -----------------------------------------------------------


def test_p_extension_identity_when_a_is_one():
    for z in (0.5 + 0.2j, -1j, 2 - 3j, 0j):
        z = complex(z)
        assert abs(p_extension(1.0, z) - z) < 1e-12


def test_p_extension_square_on_sector():
    z = cmath.exp(1j * math.pi / 4)
    assert abs(p_extension(0.5, z) - 1j) < 1e-14


def test_p_extension_continuity_across_rays():
    delta = 1e-11
    for a in (0.25, 0.5, 0.75, 1.0, 1.25):
        for rho in (0.3, 0.7, 1.2):
            for base in (0.0, math.pi * a):
                minus = p_extension(a, rho * cmath.exp(1j * ((base - delta) % (2 * math.pi))))
                plus = p_extension(a, rho * cmath.exp(1j * (base + delta)))
                assert abs(minus - plus) < 1e-9


def test_p_extension_on_the_rays_is_the_limit_from_either_side():
    # exactly on a boundary ray the stretch branch's angle may round past
    # (2 - a) pi; only an angle rounded below 0 (reduced to near 2 pi) is
    # folded back to 0, so the ray keeps the value of its neighbours
    for a in np.linspace(0.05, 1.95, 39):
        for rho in (0.3, 0.95, 2.5):
            for base in (0.0, math.pi * a):
                on = p_extension(a, cmath.rect(rho, base))
                for side in (-1e-11, 1e-11):
                    near = p_extension(a, cmath.rect(rho, base + side))
                    assert abs(on - near) <= 1e-8 * abs(on), (a, rho, base)


def test_p_extension_roundtrip():
    rng = random.Random(4)
    for a in (0.25, 0.5, 0.75, 1.25, 1.75):
        for _ in range(100):
            z = cmath.rect(rng.uniform(0.05, 3), rng.uniform(0, 2 * math.pi))
            v = p_extension(a, z)
            assert abs(p_extension_inverse(a, v) - z) < 1e-12 * (1 + abs(z))


def test_p_extension_stretch_beltrami():
    # radial power stretch: |mu| = |(alpha-1)/(alpha+1)| with alpha = (2-a)/a,
    # which collapses to |1 - a|
    a = 0.5
    alpha = (2 - a) / a
    assert abs(abs(alpha - 1) / (alpha + 1) - abs(1 - a)) < 1e-15
    pts = [r * cmath.exp(1j * th)
           for r in np.linspace(0.4, 2.0, 6)
           for th in np.linspace(math.pi * a * 1.1, 2 * math.pi * 0.95, 12)]
    est = beltrami_on_grid(lambda z: p_extension(a, z), pts)
    assert abs(est.sup_abs_mu - abs(1 - a)) < 2e-3


def test_extend_q2_restriction_matches_q2():
    sec = SectorDomain(1 + 1j, 0.25, 0.5)
    ext = extend_q2(sec)
    for w in sector_points(sec, 100, seed=5):
        assert abs(ext(w) - SectorPowerMap(sec).jet(w).value) < 1e-9


def test_extend_q2_inverse_roundtrip():
    # normalization needs the origin inside the sector for the derivative scale
    sec = SectorDomain(-2, 11 / 6, 1 / 3)
    for normalized in (False, True):
        ext = extend_q2(sec, normalized=normalized)
        rng = random.Random(6)
        for _ in range(100):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(w - sec.w0) < 0.05:
                continue
            assert abs(ext.inverse(ext(w)) - w) < 1e-10 * (1 + abs(w))


def test_extend_q2_normalization_requires_origin_inside():
    off = SectorDomain(1 + 1j, 0.25, 0.5)  # origin outside this sector
    with pytest.raises(PreconditionError):
        extend_q2(off, normalized=True)


def test_extend_q2_injective_on_mesh():
    sec = SectorDomain(0.5j, 0.1, 0.8)
    ext = extend_q2(sec)
    pts = [sec.w0 + r * cmath.exp(1j * th)
           for r in (0.4, 1.0, 2.2)
           for th in np.linspace(0.05, 2 * math.pi - 0.05, 24)]
    images = [ext(w) for w in pts]
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            assert abs(images[i] - images[j]) > 1e-9


def test_extend_q2_measured_dilatation():
    sec = SectorDomain(-2, 11 / 6, 1 / 3)
    ext = extend_q2(sec)
    # mesh on the stretch side, insets keep the stencil off the rays
    lo = math.pi * sec.a
    pts = [sec.w0 + r * cmath.exp(1j * (math.pi * sec.lambda0 + th))
           for r in np.linspace(0.4, 2.2, 6)
           for th in np.linspace(lo + 0.1, 2 * math.pi - 0.1, 16)]
    est = beltrami_on_grid(ext, pts)
    assert est.sup_abs_mu <= abs(1 - sec.a) + 2e-3


# -- fitting --------------------------------------------------------------------


def test_sup_abs_estimate():
    assert abs(sup_abs_on_boundary(IdentityMap()) - 0.999) < 1e-12
    assert abs(sup_abs_on_boundary(ScaledMap(IdentityMap(), 1.0)) - 0.999) < 1e-12


def _sup_abs_per_point(f, n_angles=1024):
    """sup_abs_on_boundary point by point: the ring's first maximizer, then
    the 64-point window around it.  Returns (estimate, window points)."""
    radius = min(1 - 1e-3, 0.999 * f.analyticity_radius)
    best, best_j = -1.0, 0
    for j in range(n_angles):
        v = abs(f.jet(radius * cmath.exp(2j * math.pi * j / n_angles)).value)
        if v > best:
            best, best_j = v, j
    step = 2 * math.pi / n_angles
    window = [radius * cmath.exp(1j * (best_j * step - step + 2 * step * j / 63))
              for j in range(64)]
    return max([best] + [abs(f.jet(w).value) for w in window]), window


@pytest.mark.parametrize("f", [
    IdentityMap(),
    PolynomialMap([1, 0.1]),
    PolynomialMap([1, 0.3 - 0.2j, 0.05j]),  # the maximizer off the real axis
    ScaledMap(CayleyMap(), 3.0),
    SpiralMap(0.6),
], ids=["identity", "poly", "poly_complex", "cayley", "spiral"])
def test_boundary_scan_matches_a_per_point_loop(f):
    got, (want, _) = sup_abs_on_boundary(f), _sup_abs_per_point(f)
    assert type(got) is float
    assert abs(got - want) <= 1e-12 * want


class _RecordedConst(ConstMap):
    """A constant map that records the points it is asked for."""

    def __init__(self, c):
        super().__init__(c)
        self.calls = []

    def jet(self, z):
        self.calls.append(z)
        return super().jet(z)


def test_boundary_scan_refines_around_the_first_of_tied_maxima():
    # |f| ties exactly all around the circle: the window is the one around
    # the first sample, as point by point
    f = _RecordedConst(0.3)
    assert sup_abs_on_boundary(f) == 0.3
    _, window = _sup_abs_per_point(ConstMap(0.3))
    assert np.allclose(f.calls[-1], window, rtol=0, atol=1e-15)
    # a constant map is one value for the whole array
    assert fit_sector(ConstMap(0.3), -2)[1] == 0.3


def test_failing_fit_names_the_point_a_per_point_loop_names():
    f = PolynomialMap([1, 0.1])
    # the sector fitted around R = 0.6 < sup |f|; a one-point grid passes
    sector, _ = fit_sector(f, -2, radius=0.6, grid=DiskGrid(2, 1, 0.99))
    want = None
    for z in DiskGrid().points():
        w = f.jet(z).value
        if not sector.contains(w):
            want = f"fitted sector misses image point f({z!r}) = {w!r}"
            break
    assert want is not None
    with pytest.raises(ContainmentError) as info:
        fit_sector(f, -2, radius=0.6)
    assert str(info.value) == want


def test_fit_identity_vertex_minus_two():
    # enclosing radius 1 against |w0| = 2: opening 2*arcsin(1/2) = pi/3, a = 1/3
    sec, r_used = fit_sector(IdentityMap(), -2, radius=1.0)
    assert r_used == 1.0
    assert abs(sec.a - 1 / 3) < 1e-12
    assert abs(sec.lambda0 - 11 / 6) < 1e-12


def test_fit_half_scale_identity():
    # f(z) = z/2 against |w0| = 1: same arcsin(1/2) geometry, a = 1/3
    half = PolynomialMap([0.5], class_a=False)
    sec, r_used = fit_sector(half, -1, radius=0.5)
    assert abs(sec.a - 1 / 3) < 1e-12
    # the estimated enclosing radius is also accepted in place of an exact one
    sec2, r2 = fit_sector(half, -1)
    assert abs(r2 - 0.4995) < 1e-12
    assert abs(sec2.a - 1 / 3) < 1e-3


def test_fit_half_plane_limit():
    # R close to |w0|: the opening tends to pi (a -> 1)
    sec, _ = fit_sector(ScaledMap(IdentityMap(), 1.0), -1, radius=1 - 1e-9,
                        grid=DiskGrid(8, 16, 0.2))
    assert sec.a > 0.99997


def test_fit_tangency():
    sec, r_used = fit_sector(IdentityMap(), -2 + 1.5j, radius=1.0)
    # each boundary ray is tangent to the enclosing circle: distance from the
    # center (0) to the ray line equals R
    for lam in (sec.lambda0, sec.lambda0 + sec.a):
        phi = math.pi * lam
        d = abs(((0 - sec.w0) * cmath.exp(-1j * phi)).imag)
        assert abs(d - r_used) < 1e-6


def test_fit_contains_image():
    sec, _ = fit_sector(IdentityMap(), -2, radius=1.0)
    for z in DiskGrid(16, 32, 1e-3).points():
        assert sec.contains(complex(z))


def test_fit_vertex_inside_rejected():
    with pytest.raises(PreconditionError):
        fit_sector(IdentityMap(), 0.5 + 0j, radius=1.0)


# -- composed end-to-end -----------------------------------------------------------


def test_sector_composed_end_to_end():
    """Catalog map passing the sector derivative condition at bound k: the
    composed extension (sector inverse after the chain extension) measures
    below (k + |1-a|)/(1 + k|1-a|) + 5e-3."""
    from qcx import (
        AnnulusGrid,
        CriterionParams,
        build_chain,
        build_extension,
        companion_from_sector,
        compose_dilatation,
        composed_extension,
        evaluate_criterion,
        stable_beltrami,
    )

    sec, _ = fit_sector(IdentityMap(), -2, radius=1.0)
    k = 0.65
    params = CriterionParams(k=k, w0=sec.w0, lambda0=sec.lambda0, a=sec.a)
    rep = evaluate_criterion("sector_nw", IdentityMap(), None, params,
                             DiskGrid(24, 48, 1e-3))
    assert rep.passed

    q = companion_from_sector(sec, normalized=True)
    ext = build_extension(build_chain("nw", IdentityMap(), q, params))
    # the chain extension itself stays within the criterion bound
    est_f, _, stable_f, _ = stable_beltrami(ext, AnnulusGrid(16, 32, 1.001, 3.0))
    assert stable_f
    assert est_f.sup_abs_mu <= k + 2e-3

    sext = extend_q2(sec, normalized=True)
    comp = composed_extension(ext, sext.inverse)
    bound = compose_dilatation(k, abs(1 - sec.a))
    est, _, stable, _ = stable_beltrami(
        comp, AnnulusGrid(16, 32, 1.001, 3.0), 1e-5,
        seam=lambda w: sext.image_seam(ext(w)))
    assert stable
    assert est.sup_abs_mu <= bound + 5e-3
    # inside the disk the composition restores the original map
    for z in (0.3 + 0.2j, -0.6j, 0.8):
        z = complex(z)
        assert abs(comp(z) - z) < 1e-12
