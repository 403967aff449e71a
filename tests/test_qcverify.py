"""Wirtinger stencil, Beltrami estimation, and dilatation composition."""

import cmath
import math
import random

import numpy as np
import pytest

from qcx import (
    AnnulusGrid,
    CompanionMap,
    CriterionParams,
    DiskGrid,
    ExtensionMap,
    IdentityMap,
    MoebiusMap,
    PolynomialMap,
    beltrami_on_grid,
    build_chain,
    compose_dilatation,
    evaluate_criterion,
    stable_beltrami,
    wirtinger,
)


# -- wirtinger ----------------------------------------------------------------


# The stencil has no truncation error on affine maps, so its exactness is
# h-independent; a well-conditioned h keeps float cancellation below 1e-12
# (at h = 1e-5 the subtraction a*(z+h) - a*(z-h) loses ~|az|/h * eps).
EXACT_H = 1e-2


def test_wirtinger_analytic():
    dz, dzb = wirtinger(lambda z: z, 0.3 + 0.2j, EXACT_H)
    assert abs(dz - 1) < 1e-12
    assert abs(dzb) < 1e-12


def test_wirtinger_antianalytic():
    dz, dzb = wirtinger(lambda z: z.conjugate(), -0.5j, EXACT_H)
    assert abs(dz) < 1e-12
    assert abs(dzb - 1) < 1e-12


def test_wirtinger_affine_mix():
    dz, dzb = wirtinger(lambda z: z + 0.3 * z.conjugate(), 1.2 - 0.4j, EXACT_H)
    assert abs(dz - 1) < 1e-12
    assert abs(dzb - 0.3) < 1e-12


def test_wirtinger_exact_on_random_affine():
    rng = random.Random(21)
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dz, dzb = wirtinger(lambda w: a * w + b * w.conjugate() + c, z, EXACT_H)
        assert abs(dz - a) < 1e-12
        assert abs(dzb - b) < 1e-12


def test_wirtinger_nonfinite_rejected():
    with pytest.raises(ValueError):
        wirtinger(lambda z: 1 / (z - (1 + 1e-5)), 1 + 0j, h=1e-5)


# -- beltrami on grids -----------------------------------------------------------


def test_identity_extension_is_conformal():
    ext = ExtensionMap(build_chain("nw", IdentityMap(), CompanionMap.identity()))
    est = beltrami_on_grid(ext, AnnulusGrid(12, 24, 1.01, 2.5))
    assert est.sup_abs_mu < 1e-9
    assert est.K < 1 + 1e-8


def test_affine_quasiconformal_map():
    est = beltrami_on_grid(lambda z: z + 0.3 * z.conjugate(),
                           AnnulusGrid(8, 16, 1.05, 2.0))
    assert abs(est.sup_abs_mu - 0.3) < 1e-10


def test_interior_analytic_band():
    # inside the disk every extension restricts to the analytic slice
    f = PolynomialMap([1, 0.25])
    ext = ExtensionMap(build_chain("nw", f, CompanionMap.identity()))
    est = beltrami_on_grid(ext, DiskGrid(12, 24, 0.05))
    assert est.sup_abs_mu < 1e-6


def test_guard_band_enforced():
    ext = ExtensionMap(build_chain("nw", IdentityMap(), CompanionMap.identity()))
    with pytest.raises(ValueError):
        beltrami_on_grid(ext, AnnulusGrid(8, 16, 1.00001, 2.0), h=1e-5)


def test_degenerate_jacobian_flagged():
    est = beltrami_on_grid(lambda z: z.conjugate(), AnnulusGrid(4, 8, 1.05, 2.0))
    # dz = 0 everywhere: all samples flagged, none contribute to the sup
    assert len(est.flagged) == 4 * 8
    assert est.sup_abs_mu == 0.0


def test_seam_skipping():
    # |z| has no classical derivative on the real axis; skip stencils there
    fn = lambda z: z * (1 + 0.1 * abs(z.imag) / (abs(z) + 1e-30))
    pts = [2 + 0j, 2 * cmath.exp(0.5j)]
    est = beltrami_on_grid(fn, pts, h=1e-5, seam=lambda w: w.imag)
    assert est.skipped == (0,)


def test_mixed_block_flags_skips_and_divides_the_rest():
    # one block: regular samples, one whose dz vanishes (f = (z - z1)^2 +
    # 0.1 conj(z) at z1) and one whose stencil straddles the seam Re z = 0.5
    z1, h = 0.2 - 0.3j, 1e-3
    fn = lambda z: (z - z1) ** 2 + 0.1 * z.conjugate()
    pts = np.array([0.3 + 0.2j, -0.4 + 0.1j, z1, 0.5 + 0.1j, 1.5 - 0.5j, -2 + 1j])
    est = beltrami_on_grid(fn, pts, h=h, seam=lambda w: w.real - 0.5)
    assert (est.flagged, est.skipped) == ((2,), (3,))
    assert np.flatnonzero(np.isnan(est.mu)).tolist() == [2, 3]
    regular = [0, 1, 4, 5]
    dz, dzb = wirtinger(fn, pts[regular], h)
    assert est.mu[regular].tobytes() == (dzb / dz).tobytes()
    # the regular samples alone: nothing flagged or skipped, the same ratios
    alone = beltrami_on_grid(fn, pts[regular], h=h, seam=lambda w: w.real - 0.5)
    assert (alone.flagged, alone.skipped) == ((), ())
    assert alone.mu.tobytes() == (dzb / dz).tobytes()
    assert alone.sup_abs_mu == est.sup_abs_mu == np.abs(dzb / dz).max()


def test_step_halving_stability():
    f = PolynomialMap([1, 0.25])
    ext = ExtensionMap(build_chain("nw", f, CompanionMap.identity()))
    est, est_half, stable, delta = stable_beltrami(ext, AnnulusGrid(8, 16, 1.01, 2.0))
    assert stable
    assert delta < 5e-3


# -- composition law ----------------------------------------------------------------


def test_compose_with_zero():
    for k in (0.0, 0.3, 0.77):
        assert compose_dilatation(k, 0.0) == k


def test_compose_direct_value():
    assert abs(compose_dilatation(0.5, 0.5) - 0.8) < 1e-15


def test_compose_sector_conclusion_value():
    # k = 0.3 against a sector factor |1-a| = 0.5: (0.3+0.5)/(1+0.15) = 0.8/1.15
    got = compose_dilatation(0.3, 0.5)
    assert abs(got - 0.8 / 1.15) < 1e-15


def test_compose_commutative_associative_monotone():
    rng = random.Random(31)
    for _ in range(100):
        a, b, c = (rng.uniform(0, 0.95) for _ in range(3))
        assert abs(compose_dilatation(a, b) - compose_dilatation(b, a)) < 1e-15
        left = compose_dilatation(compose_dilatation(a, b), c)
        right = compose_dilatation(a, compose_dilatation(b, c))
        assert abs(left - right) < 1e-14
        assert compose_dilatation(a, c) < 1
        if a < b:
            assert compose_dilatation(a, c) <= compose_dilatation(b, c) + 1e-15


def test_compose_rejects_bad_input():
    with pytest.raises(ValueError):
        compose_dilatation(1.0, 0.2)
    with pytest.raises(ValueError):
        compose_dilatation(0.2, -0.1)


# -- criterion bound carries to the measured extension --------------------------------


REGRESSIONS = [
    # (name, f, companion, criterion, params)
    ("id_becker_c", IdentityMap(), CompanionMap.identity(), "gen_becker",
     CriterionParams(k=0.5, k_prime=0.2, c=0.2 + 0j)),
    ("poly_nw", PolynomialMap([1, 0.25]), CompanionMap.identity(), "nw",
     CriterionParams(k=0.5, k_prime=0.34)),
    ("poly_nw_halfk", PolynomialMap([1, 0.25]), CompanionMap.identity(), "nw",
     CriterionParams(k=0.5, k_prime=0.5)),
    ("cancellation", None, CompanionMap.from_moebius(MoebiusMap.with_pole(-1)),
     "gen_becker", CriterionParams(k=0.5, k_prime=1e-6, c=0j)),
    ("scaled_koebe", None, CompanionMap.identity(), "gen_becker",
     CriterionParams(k=0.6, k_prime=0.6, c=0j)),
    ("poly_nw_moebius", PolynomialMap([1, 0.2]),
     CompanionMap.from_moebius(MoebiusMap(1, 0, 0.2, 1)), "nw",
     CriterionParams(k=0.6, k_prime=0.6)),
]


def _regression_map(name, f):
    if f is not None:
        return f
    if name == "cancellation":
        from qcx import CayleyMap

        return CayleyMap()
    if name == "scaled_koebe":
        from qcx import KoebeMap, ScaledMap

        return ScaledMap(KoebeMap(), 8.0)
    raise AssertionError(name)


@pytest.mark.parametrize("name,f,q,criterion,params", REGRESSIONS)
def test_criterion_bound_controls_measured_dilatation(name, f, q, criterion, params):
    f = _regression_map(name, f)
    grid = DiskGrid(24, 48, 1e-3)
    report = evaluate_criterion(criterion, f, q, params, grid)
    assert report.passed, f"{name}: criterion unexpectedly failed"
    kp = params.bound
    ch = build_chain(criterion if criterion in ("gen_becker", "nw") else "nw",
                     f, q, params)
    ext = ExtensionMap(ch)
    ann = AnnulusGrid(16, 32, 1.001, 3.0)
    est, est_half, stable, delta = stable_beltrami(ext, ann)
    assert stable, f"{name}: estimate unstable under step halving ({delta})"
    assert est.sup_abs_mu <= kp + 2e-3, (
        f"{name}: measured sup |mu| = {est.sup_abs_mu} exceeds bound {kp}"
    )
    # composed with the companion's own extension where explicitly invertible
    if isinstance(q.base, MoebiusMap):
        comp = lambda w: q.base.inverse(ext(w))  # noqa: E731
        bound = compose_dilatation(kp, q.extension_dilatation)
        est_c = beltrami_on_grid(comp, AnnulusGrid(10, 20, 1.02, 2.5))
        finite = est_c.mu[np.isfinite(est_c.mu)]
        assert est_c.sup_abs_mu <= bound + 5e-3 or len(finite) == 0


def test_phi_like_end_to_end_bound():
    # Q = 5w/(5-w): Moebius with Q(0) = 0, so the chain normalization holds;
    # the transition ratio of this chain is time-independent (1/criterion),
    # making the bridge exact: measured sup |mu| ~= the smallest ratio bound
    from qcx import (CriterionParams, DiskGrid, PolynomialMap, build_chain,
                     default_times, validate_chain)

    q = CompanionMap.from_moebius(MoebiusMap(5, 0, -1, 5))
    f = PolynomialMap([1, 0.1])
    rep = evaluate_criterion("phi_like_udisk", f, q,
                             CriterionParams(k=0.5, k_prime=0.5), DiskGrid(24, 48))
    assert rep.passed
    ch = build_chain("phi_like", f, q)
    val = validate_chain(ch, DiskGrid(12, 24), default_times(2.0, 11),
                         dilatation_bound=0.5)
    assert val.ok
    ext = ExtensionMap(ch)
    est, _, stable, _ = stable_beltrami(ext, AnnulusGrid(12, 24, 1.001, 3.0))
    assert stable
    assert est.sup_abs_mu <= rep.smallest_bound + 2e-3


def test_bazilevic_end_to_end_bound():
    # with p = identity the bridge needs the exponent itself inside U(k'):
    # s = 1 + 0.2i satisfies |s-1| <= 0.5 |s+1|, so the convex combination
    # argument applies and the measured dilatation obeys the criterion bound
    from qcx import (CriterionParams, DiskGrid, PolynomialMap, build_chain,
                     default_times, u_disk_margin, validate_chain)

    s = 1 + 0.2j
    assert u_disk_margin(s, 0.5) >= 0
    f = PolynomialMap([1, 0.1])
    rep = evaluate_criterion("bazilevic_udisk", f, CompanionMap.identity(),
                             CriterionParams(k=0.5, k_prime=0.5, s=s),
                             DiskGrid(24, 48))
    assert rep.passed
    ch = build_chain("bazilevic", f, CompanionMap.identity(), CriterionParams(s=s))
    val = validate_chain(ch, DiskGrid(12, 24), default_times(2.0, 11),
                         dilatation_bound=0.5)
    assert val.ok
    ext = ExtensionMap(ch)
    est, _, stable, _ = stable_beltrami(ext, AnnulusGrid(12, 24, 1.001, 3.0))
    assert stable
    assert est.sup_abs_mu <= rep.smallest_bound + 2e-3
