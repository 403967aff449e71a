"""Chain constructions, the transition ratio, validation, and extensions."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcx import (
    ALL_CRITERIA,
    BranchTrackingError,
    CONSTRUCTIONS,
    CayleyMap,
    CompanionMap,
    CriterionParams,
    DiskGrid,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    PreconditionError,
    ScaledMap,
    SpiralMap,
    build_chain,
    build_extension,
    composed_extension,
    construction_for_criterion,
    default_times,
    u_disk_margin,
    validate_chain,
)

GRID = DiskGrid(16, 32, 1e-3)


def random_zt(n, seed, rmax=0.95, tmax=2.0):
    rng = random.Random(seed)
    return [
        (cmath.rect(rng.uniform(0, rmax), rng.uniform(0, 2 * math.pi)),
         rng.uniform(0, tmax))
        for _ in range(n)
    ]


# -- construction basics ---------------------------------------------------------


def test_nw_identity_reduces_to_exponential_chain():
    ch = build_chain("nw", IdentityMap(), CompanionMap.identity())
    for z, t in random_zt(20, 1):
        assert abs(ch.value(z, t) - math.exp(t) * z) < 1e-13 * math.exp(t)


def test_gen_becker_identity_reduces_to_exponential_chain():
    ch = build_chain("gen_becker", IdentityMap(), CompanionMap.identity())
    for z, t in random_zt(100, 2):
        assert abs(ch.value(z, t) - math.exp(t) * z) < 1e-12 * math.exp(t)


def test_phi_like_koebe_is_classical_chain():
    ch = build_chain("phi_like", KoebeMap(), CompanionMap.identity())
    k = KoebeMap()
    for z, t in random_zt(50, 3, rmax=0.9):
        assert abs(ch.value(z, t) - math.exp(t) * k(z)) < 1e-11 * math.exp(t)


def test_initial_slice_is_the_companion_composition():
    f = PolynomialMap([1, 0.2, -0.05j])
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(3 + 1j))
    for construction in ("gen_becker", "nw"):
        ch = build_chain(construction, f, q)
        for z, _ in random_zt(20, 4):
            expected = q.jet(f.jet(z).value).value
            assert abs(ch.value(z, 0.0) - expected) < 1e-13


def test_origin_value_constant_in_time():
    f = PolynomialMap([1, 0.2])
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(-4))
    ch = build_chain("gen_becker", f, q, CriterionParams(k=0.3, k_prime=0.3, c=0.1))
    q0 = q.jet(0j).value
    for t in (0.0, 0.5, 1.3, 2.0):
        assert abs(ch.value(0j, t) - q0) < 1e-14


def test_bazilevic_matches_nw_when_s_is_one():
    f = KoebeMap()
    q = CompanionMap.identity()
    chb = build_chain("bazilevic", f, q, CriterionParams(s=1 + 0j))
    chn = build_chain("nw", f, q)
    for z, t in random_zt(25, 5, rmax=0.9):
        pa, pb = chb.partials(z, t), chn.partials(z, t)
        scale = 1 + abs(pb.value)
        assert abs(pa.value - pb.value) / scale < 1e-12
        assert abs(pa.dt - pb.dt) / scale < 1e-11
        assert abs(pa.zdz - pb.zdz) / scale < 1e-11


def test_bazilevic_initial_slice():
    f = PolynomialMap([1, 0.2])
    q = CompanionMap.identity()
    ch = build_chain("bazilevic", f, q, CriterionParams(s=1.5 + 0.5j))
    for z, _ in random_zt(20, 6, rmax=0.9):
        assert abs(ch.value(z, 0.0) - f.jet(z).value) < 1e-12


def test_construction_preconditions():
    with pytest.raises(PreconditionError):
        build_chain("unknown", IdentityMap(), CompanionMap.identity())
    # phi_like needs Q(0) = 0
    q_shifted = CompanionMap.from_map(IdentityMap() + 1.0, 0.0)
    with pytest.raises(PreconditionError):
        build_chain("phi_like", IdentityMap(), q_shifted)
    with pytest.raises(PreconditionError):
        build_chain("bazilevic", IdentityMap(), q_shifted,
                    CriterionParams(s=1 + 0j))
    # gen_becker/nw tolerate a constant term
    build_chain("gen_becker", IdentityMap(), q_shifted)
    build_chain("nw", IdentityMap(), q_shifted)


def test_construction_for_criterion():
    assert construction_for_criterion("moebius_becker") == "gen_becker"
    assert construction_for_criterion("sector_nw") == "nw"
    assert construction_for_criterion("phi_like_udisk") == "phi_like"
    assert construction_for_criterion("bazilevic") == "bazilevic"
    for criterion in ALL_CRITERIA:
        assert construction_for_criterion(criterion) in CONSTRUCTIONS
    with pytest.raises(PreconditionError):
        construction_for_criterion("phi_like_typo")


# -- transition ratio -------------------------------------------------------------


def test_transition_ratio_exponential_chain():
    ch = build_chain("nw", IdentityMap(), CompanionMap.identity())
    for z, t in random_zt(20, 7):
        assert abs(ch.transition_ratio(z, t) - 1) < 1e-13
    assert abs(ch.transition_ratio(0j, 1.0) - 1) < 1e-13


def test_gen_becker_ratio_identity():
    """The dilatation-ratio identity: |(dt - zdz)/(dt + zdz)| equals
    |c e^{-2t} + (1 - e^{-2t}) { u f''/f' + u f' Omega(f(u)) }| at u = e^{-t} z,
    each side computed independently."""
    cases = [
        (IdentityMap(), None),
        (KoebeMap(), -0.3),
        (CayleyMap(), -0.7),
        (PolynomialMap([1, 0.2, 0.1]), -2.0),
        (SpiralMap(0.6), None),
        (ScaledMap(KoebeMap(), 8.0), -3.0),
    ]
    rng = random.Random(8)
    checked = 0
    for f, pole in cases:
        companions = [CompanionMap.identity()]
        if pole is not None:
            companions.append(CompanionMap.from_moebius(MoebiusMap.with_pole(pole)))
        for q in companions:
            for _ in range(12):
                c = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
                z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
                t = rng.uniform(0, 2)
                ch = build_chain("gen_becker", f, q,
                                 CriterionParams(k=0.9, k_prime=0.5, c=c))
                part = ch.partials(z, t)
                lhs = abs((part.dt - part.zdz) / (part.dt + part.zdz))
                u = math.exp(-t) * z
                jf = f.jet(u)
                rhs = abs(c * math.exp(-2 * t)
                          + (1 - math.exp(-2 * t))
                          * (u * jf.d2 / jf.d1 + u * jf.d1 * q.omega(jf.value)))
                assert abs(lhs - rhs) <= 1e-9 * (1 + rhs)
                checked += 1
    assert checked >= 100


def test_nw_ratio_stays_in_disk_when_criterion_does():
    # f' in U(1/3) pointwise forces p(z,t) in U(1/3) at every sample
    f = PolynomialMap([1, 0.25])
    q = CompanionMap.identity()
    ch = build_chain("nw", f, q)
    for z, t in random_zt(100, 9):
        p = ch.transition_ratio(z, t)
        assert u_disk_margin(p, 1 / 3 + 1e-9) >= 0


def test_ratio_origin_limits():
    c = 0.15 - 0.1j
    ch = build_chain("gen_becker", IdentityMap(), CompanionMap.identity(),
                     CriterionParams(k=0.5, k_prime=0.2, c=c))
    for t in (0.0, 0.7, 1.9):
        w = c * math.exp(-2 * t)
        expected = (1 - w) / (1 + w)
        assert abs(ch.transition_ratio(0j, t) - expected) < 1e-13
        # continuity: small z agrees with the limit
        assert abs(ch.transition_ratio(1e-8 + 0j, t) - expected) < 1e-6


# -- validation -------------------------------------------------------------------


def test_validate_exponential_chain():
    ch = build_chain("nw", IdentityMap(), CompanionMap.identity())
    val = validate_chain(ch, GRID, default_times(), dilatation_bound=0.0)
    assert val.ok
    assert val.re_p_min > 0.99
    assert val.a1_increasing
    assert val.growth_max <= 1 + 1e-12


def test_validate_cancellation_chain_tiny_disk():
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(-1))
    ch = build_chain("gen_becker", CayleyMap(), q,
                     CriterionParams(k=0.5, k_prime=0.0, c=0j))
    val = validate_chain(ch, GRID, default_times(2.0, 21), dilatation_bound=1e-6)
    assert val.ok


def test_validate_koebe_fails_dilatation_target():
    ch = build_chain("gen_becker", KoebeMap(), CompanionMap.identity(),
                     CriterionParams(k=0.5, k_prime=0.5, c=0j))
    val = validate_chain(ch, GRID, default_times(), dilatation_bound=0.5)
    assert not val.ok
    assert val.u_margin_min < 0


def test_criterion_pass_bridges_to_chain():
    # gen_becker bound 0.2 with c = 0.2 on the identity: p stays in U(0.2)
    ch = build_chain("gen_becker", IdentityMap(), CompanionMap.identity(),
                     CriterionParams(k=0.5, k_prime=0.2, c=0.2 + 0j))
    val = validate_chain(ch, GRID, default_times(), dilatation_bound=0.2)
    assert val.u_margin_min >= -1e-12
    assert val.ok


# -- extension ---------------------------------------------------------------------


def test_extension_identity_everywhere():
    ch = build_chain("nw", IdentityMap(), CompanionMap.identity())
    ext = build_extension(ch)
    rng = random.Random(10)
    for _ in range(50):
        w = cmath.rect(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))
        assert abs(ext(w) - w) < 1e-12 * (1 + abs(w))
    assert abs(ext(0j)) == 0


def test_extension_gen_becker_identity():
    ch = build_chain("gen_becker", IdentityMap(), CompanionMap.identity())
    ext = build_extension(ch)
    for w in (2 + 1j, -3j, 0.5 - 0.5j, 7.0):
        w = complex(w)
        assert abs(ext(w) - w) < 1e-12 * (1 + abs(w))


def test_extension_direct_substitution():
    # nw chain of f = z + 0.25 z^2: fhat(2 e^{i th}) = f(e^{i th}) + e^{i th}
    f = PolynomialMap([1, 0.25])
    ext = build_extension(build_chain("nw", f, CompanionMap.identity()))
    for th in (0.0, 0.7, 2.4, 4.4):
        w = 2 * cmath.exp(1j * th)
        zb = cmath.exp(1j * th)
        expected = f.jet(zb).value + zb
        assert abs(ext(w) - expected) < 1e-13


def test_extension_interior_is_initial_slice():
    f = PolynomialMap([1, 0.2])
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(5))
    ch = build_chain("nw", f, q)
    ext = build_extension(ch)
    for z, _ in random_zt(20, 11):
        assert ext(z) == ch.value(z, 0.0)


def test_extension_continuity_across_circle():
    # entire f: no clamp involved, limits from both sides agree
    f = PolynomialMap([1, 0.25])
    ext = build_extension(build_chain("nw", f, CompanionMap.identity()))
    assert ext.continuity_gap(128) < 1e-6
    # bounded-radius f goes through the angular clamp and stays continuous
    ext2 = build_extension(build_chain("gen_becker", CayleyMap(),
                                       CompanionMap.from_moebius(MoebiusMap.with_pole(-1))))
    assert ext2.continuity_gap(128) < 1e-5


@pytest.mark.parametrize("p, clamped", [(KoebeMap(), True), (PolynomialMap([1, 0.1]), False)])
def test_bazilevic_extension_clamps_on_the_comparison_maps_radius(p, clamped):
    # f is entire, but the chain also evaluates p at the angular argument: a
    # Koebe p, whose radius is 1, made every |w| >= 1 a DomainError
    f = PolynomialMap([1, 0.25])
    ch = build_chain("bazilevic", f, CompanionMap.identity(),
                     CriterionParams(s=1 + 0.5j, p=p))
    assert ch.analyticity_radius == (1.0 if clamped else math.inf)
    ext = build_extension(ch)
    w = 2 * np.exp(1j * np.linspace(0.1, 6.0, 7))
    r = np.abs(w)
    zb = w / r * (1 - 1e-6) if clamped else w / r
    assert np.array_equal(ext(w), ch.value(zb, np.log(r)))


def test_extension_injective_on_coarse_mesh():
    f = PolynomialMap([1, 0.25])
    ext = build_extension(build_chain("nw", f, CompanionMap.identity()))
    pts = []
    for r in (0.3, 0.8, 1.2, 2.0, 3.0):
        for j in range(16):
            pts.append(r * cmath.exp(2j * math.pi * j / 16))
    images = [ext(w) for w in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(images[i] - images[j]) > 1e-9


def test_composed_extension_moebius():
    # cancellation case: F(z,t) = e^t z - 1, so the composed map is Moebius
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(-1))
    ch = build_chain("gen_becker", CayleyMap(), q,
                     CriterionParams(k=0.5, k_prime=0.0, c=0j))
    ext = build_extension(ch)
    m = MoebiusMap.with_pole(-1)
    comp = composed_extension(ext, m.inverse)
    # interior restriction recovers f itself
    f = CayleyMap()
    for z, _ in random_zt(20, 12, rmax=0.9):
        assert abs(comp(z) - f.jet(z).value) < 1e-9


def test_validate_phi_like_chain():
    # koebe with the identity companion: p = (1-z)/(1+z), right half-plane
    ch = build_chain("phi_like", KoebeMap(), CompanionMap.identity())
    val = validate_chain(ch, GRID, default_times(), dilatation_bound=None)
    assert val.ok
    assert val.re_p_min > 0


def test_validate_bazilevic_chain():
    ch = build_chain("bazilevic", PolynomialMap([1, 0.15]),
                     CompanionMap.identity(), CriterionParams(s=1 + 0.3j))
    val = validate_chain(ch, DiskGrid(10, 20, 1e-2), default_times(1.5, 7))
    assert val.ok
    assert val.a1_increasing


def test_phi_like_extension_values():
    # Q = identity: fhat(r e^{i th}) = r * f(e^{i th}) outside the circle
    f = PolynomialMap([1, 0.2])
    ext = build_extension(build_chain("phi_like", f, CompanionMap.identity()))
    for r, th in ((1.5, 0.3), (2.5, 2.0), (4.0, 5.1)):
        w = r * cmath.exp(1j * th)
        expected = r * f.jet(cmath.exp(1j * th)).value
        assert abs(ext(w) - expected) < 1e-12 * (1 + abs(expected))


def test_partials_match_finite_differences_all_constructions():
    # independent oracle for every closed-form partial: central differences
    # of F itself in t and along z
    f = PolynomialMap([1, 0.18, -0.04j])
    q_id = CompanionMap.identity()
    q_mb = CompanionMap.from_moebius(MoebiusMap.with_pole(4 - 1j))
    chains = [
        build_chain("gen_becker", f, q_mb, CriterionParams(k=0.5, k_prime=0.3, c=0.1j)),
        build_chain("nw", f, q_mb),
        build_chain("phi_like", f, q_id),
        build_chain("bazilevic", f, q_id, CriterionParams(s=1.4 + 0.6j)),
    ]
    rng = random.Random(77)
    h = 1e-6
    for ch in chains:
        for _ in range(12):
            z = cmath.rect(rng.uniform(0.1, 0.9), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0.05, 1.9)
            part = ch.partials(z, t)
            fd_dt = (ch.value(z, t + h) - ch.value(z, t - h)) / (2 * h)
            # radial parameterization: z(s) = z e^s gives dF/ds = z dF/dz
            fd_zdz = (ch.value(z * math.exp(h), t) - ch.value(z * math.exp(-h), t)) / (2 * h)
            assert abs(part.dt - fd_dt) / (1 + abs(part.dt)) < 1e-7, ch.construction
            assert abs(part.zdz - fd_zdz) / (1 + abs(part.zdz)) < 1e-7, ch.construction


def test_bazilevic_ratio_is_reciprocal_of_criterion_at_t_zero():
    # for the matching chain, 1/p(z, 0) equals the criterion value (the disk
    # family U(k) is inversion-invariant, which is why either form certifies)
    from qcx import gen_bazilevic_value

    m = MoebiusMap(5, 0, -1, 5)  # Q(w) = 5w/(5-w): Q(0) = 0, Q'(0) = 1
    q = CompanionMap.from_moebius(m)
    f = PolynomialMap([1, 0.15])
    s = 1.2 + 0.4j
    ch = build_chain("bazilevic", f, q, CriterionParams(s=s))
    for z, _ in random_zt(30, 21, rmax=0.9):
        p0 = ch.transition_ratio(z, 0.0)
        crit = gen_bazilevic_value(f, q, s, IdentityMap(), z)
        assert abs(crit - 1 / p0) < 1e-11


def test_nw_ratio_is_reciprocal_of_criterion_at_t_zero():
    from qcx import nw_value

    f = PolynomialMap([1, 0.25])
    q = CompanionMap.identity()
    ch = build_chain("nw", f, q)
    for z, _ in random_zt(20, 22, rmax=0.95):
        assert abs(nw_value(f, q, z) - 1 / ch.transition_ratio(z, 0.0)) < 1e-12


def test_criterion_sup_bounds_chain_everywhere():
    # the scaled map's criterion sup on the grid also caps |(p-1)/(p+1)| at
    # every (z, t): the chain quantity is the criterion value at u = e^{-t} z
    # with the weight (1 - e^{-2t}) <= (1 - |u|^2)
    f = ScaledMap(KoebeMap(), 8.0)
    q = CompanionMap.identity()
    rep_params = CriterionParams(k=0.6, k_prime=0.6, c=0j)
    from qcx import evaluate_criterion

    rep = evaluate_criterion("gen_becker", f, q, rep_params, DiskGrid(24, 48))
    assert rep.passed
    chain = build_chain("gen_becker", f, q, rep_params)
    bound = rep.sup_value + 1e-12
    val = validate_chain(chain, DiskGrid(16, 32), default_times(),
                         dilatation_bound=bound)
    assert val.ok
    assert val.u_margin_min >= 0


def test_bazilevic_time_continuity_no_branch_jumps():
    # the outer 1/s power is continued along the time axis; a branch slip
    # would show as an O(1) jump between consecutive samples
    f = PolynomialMap([1, 0.18, -0.06j])
    p = PolynomialMap([1, 0.1])
    q = CompanionMap.from_moebius(MoebiusMap(5, 0, -1, 5))
    for s in (1.2 + 0.4j, 2.5 + 1.5j, 0.3 + 2.0j):
        ch = build_chain("bazilevic", f, q, CriterionParams(s=s, p=p))
        for z in (0.7 + 0.2j, -0.5 + 0.6j):
            prev = ch.value(z, 0.0)
            for j in range(1, 121):
                t = 3.0 * j / 120
                cur = ch.value(z, t)
                assert abs(cur - prev) / (1 + abs(prev)) < 0.1
                prev = cur


def _unwrapped_time_log(big_h, big_r, s, t, n=10_000):
    """log(B(t)/H), B = H + s(e^tau - 1)R, continued over tau in [0, t] by
    unwrapping the phase of 10^4 samples.  B/H runs along a straight
    segment, so consecutive samples are joined by chords of the path; None
    when some chord is as long as the samples' distance from 0, where the
    unwrap could miss a turn."""
    vals = 1 + s * (np.exp(t * np.arange(n + 1) / n) - 1) * big_r / big_h
    if np.abs(np.diff(vals)).max() >= np.abs(vals).min():
        return None
    return complex(math.log(abs(vals[-1])), np.unwrap(np.angle(vals))[-1])


TIME_CHAIN = (PolynomialMap([1, 0.2]), CompanionMap.identity())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lb0=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-8.0, 8.0)),
       big_r=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       s=st.builds(complex, st.floats(0.2, 2.0), st.floats(-1.5, 1.5)),
       t=st.floats(0.0, 3.0))
# B/H runs from 1 to -1 + 0.002i, passing within 1e-3 of 0
@example(lb0=0j, big_r=(-2 + 0.002j) / (math.e - 1), s=1 + 0j, t=1.0)
def test_time_branch_matches_unwrapped_dense_reference(lb0, big_r, s, t):
    big_h = cmath.exp(lb0)
    want = _unwrapped_time_log(big_h, big_r, s, t)
    assume(want is not None)
    chain = build_chain("bazilevic", *TIME_CHAIN, CriterionParams(s=s))
    z = 0.3 + 0.1j
    got = chain.partials(z, t, branch=(big_h, big_r, lb0)).value
    expected = z * cmath.exp((lb0 + want) / s)
    assert abs(got - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("s", [1 + 0j, 0.7 - 0.3j])
def test_a_bracket_vanishing_on_the_time_path_raises(s):
    chain = build_chain("bazilevic", *TIME_CHAIN, CriterionParams(s=s))
    for m in (1, 2):  # B(1) = 0, or B(1)/H = -1
        branch = (1 + 0j, -m / (s * (math.e - 1)), 0j)
        with pytest.raises(BranchTrackingError, match="chain bracket vanished"):
            chain.partials(0.3 + 0.1j, 1.0, branch=branch)
    chain.partials(0.3 + 0.1j, 0.5, branch=branch)  # short of the zero


def test_extension_continuity_other_constructions():
    f = PolynomialMap([1, 0.2])
    q = CompanionMap.identity()
    for construction, params in (("phi_like", CriterionParams()),
                                 ("bazilevic", CriterionParams(s=1.3 + 0.3j))):
        ext = build_extension(build_chain(construction, f, q, params))
        assert ext.continuity_gap(64) < 1e-6, construction
