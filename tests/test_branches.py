"""The shared branch lattice: differential tests against the per-point
tracking from the origin, a property test against a dense unwrapped-phase
reference, conjugate symmetry, and the traced-run contract."""

import cmath
import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcx import (
    AnnulusGrid,
    CayleyMap,
    CompanionMap,
    ConstMap,
    CriterionParams,
    DiskGrid,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    ScaledMap,
    SpiralMap,
    build_chain,
    default_times,
    evaluate_criterion,
    gen_bazilevic_value,
    sector_nw_value,
    tracked_log,
    u_disk_margin,
    validate_chain,
)
from qcx import branches
from qcx.branches import BranchLattice, BranchTrackingError, FactoredRatio, ratio_branch
from qcx.cli import main
from qcx.criteria import CRITERIA, _refined_neighborhood
from qcx.jets import DomainError, lib
from qcx.loewner import ChainPartials, LoewnerChain
from qcx.sector import fit_sector

ROOT = Path(__file__).resolve().parents[1]
GRID = DiskGrid(8, 16, 1e-3)
SECTOR = dict(w0=-2 + 0j, lambda0=1.8333333333333333, a=0.3333333333333333)
MOEBIUS_Q = CompanionMap.from_moebius(MoebiusMap(5, 0, -1, 5))  # Q(0) = 0, Q'(0) = 1


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1 + abs(b))


def _patches(grid):
    """Refinement patches around an interior point off the grid rays and an
    outer-ring point near z = 1, where the spiral and Koebe maps blow up."""
    worst = (0.43 * cmath.exp(-1.0j), grid.max_radius * cmath.exp(0.05j))
    return [z for w in worst for z in _refined_neighborhood(grid, w)]


def _sector_params(f):
    sector, _ = fit_sector(f, -4 + 0j, grid=GRID)
    return CriterionParams(k=0.9, w0=sector.w0, lambda0=sector.lambda0,
                           a=sector.a)


def _cases():
    """(criterion, f, companion or direct Psi, params) for every catalog map:
    f polynomial, scaled Cayley or spiral, p the identity or Koebe."""
    poly = PolynomialMap([1, 0.25, -0.05j])
    cayley = ScaledMap(CayleyMap(), 3.0)
    spiral = SpiralMap(0.6)
    cases = []
    for name, f in (("poly", poly), ("cayley", cayley), ("spiral", spiral)):
        for psi_name, psi in (("identity", CompanionMap.identity()),
                              ("moebius", MOEBIUS_Q), ("direct", ConstMap(1.0))):
            for p_name, p in (("id", None), ("koebe", KoebeMap())):
                params = CriterionParams(k=0.6, k_prime=0.6, s=1.2 + 0.5j, p=p)
                cases.append(pytest.param(
                    "bazilevic", f, psi, params,
                    id=f"bazilevic-{name}-{psi_name}-p_{p_name}"))
        # the udisk variant scores the same value function differently
        cases.append(pytest.param(
            "bazilevic_udisk", f, CompanionMap.identity(),
            CriterionParams(k=0.6, k_prime=0.6, s=0.9 - 0.3j, p=KoebeMap()),
            id=f"bazilevic_udisk-{name}-identity-p_koebe"))
    cases.append(pytest.param("sector_nw", PolynomialMap([1, 0.1]), None,
                              CriterionParams(k=0.75, **SECTOR), id="sector_nw-poly"))
    for name, f in (("poly2", PolynomialMap([1, -0.2, 0.03j])), ("cayley", cayley)):
        cases.append(pytest.param("sector_nw", f, None, _sector_params(f),
                                  id=f"sector_nw-{name}"))
    return cases


def _oracle(criterion, f, psi, params):
    if criterion == "sector_nw":
        return lambda z: sector_nw_value(f, params.w0, params.a, z)
    p = params.p or IdentityMap()
    return lambda z: gen_bazilevic_value(f, psi, params.s, p, z)


@pytest.mark.parametrize("criterion, f, psi, params", _cases())
def test_shared_lattice_matches_per_point_oracle(criterion, f, psi, params):
    value = CRITERIA[criterion].build(f, psi, params, GRID)
    oracle = _oracle(criterion, f, psi, params)
    points = list(GRID.points()) + _patches(GRID)
    for z in points:
        assert _close(value(z), oracle(z)), z


def _block(grid=GRID):
    """One query block: the grid (origin ring included), the refinement
    patches and a ring inside the first lattice ring, where a query
    continues from the origin itself."""
    inner = 0.01 * np.exp(2j * np.pi * (np.arange(12) + 0.3) / 12)
    return np.concatenate([grid.points(), _patches(grid), inner])


def _lattices(criterion, f, psi, params):
    """Lattices of the logs a criterion's value function takes, built
    explicitly: the value function itself takes a closed form where the
    ratio factors."""
    if criterion == "sector_nw":
        w0 = params.w0
        return [BranchLattice(lambda w: 1 - f.jet(w).value / w0, 0j)]
    p = BranchLattice.ratio(params.p or IdentityMap())
    if not isinstance(psi, CompanionMap):
        return [BranchLattice.ratio(f), p]
    jf0 = f.jet(0j)
    g = BranchLattice(lambda w: psi.jet(f.jet(w).value).value / w,
                      cmath.log(psi.jet(jf0.value).d1 * jf0.d1))
    return [g, p]


def _assert_close_arrays(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bad = np.abs(got - want) > tol * (1 + np.abs(want))
    assert not bad.any(), (np.flatnonzero(bad)[:5], got[bad][:5], want[bad][:5])


@pytest.mark.parametrize("criterion, f, psi, params", _cases())
def test_block_queries_match_the_per_point_oracles(criterion, f, psi, params):
    block = _block()
    value = CRITERIA[criterion].build(f, psi, params, GRID)
    oracle = _oracle(criterion, f, psi, params)
    _assert_close_arrays(value(block), [oracle(z) for z in block.tolist()])
    # each lattice query against tracked_log from the node continue_from
    # walks out to, one segment at a time
    points = block[::3]
    for lattice in _lattices(criterion, f, psi, params):
        _assert_close_arrays(lattice.log(points), [
            tracked_log(lattice.fn, z, **lattice.continue_from(z))
            for z in points.tolist()])


def test_a_block_of_more_than_512_points_matches_the_oracle():
    f = PolynomialMap([1, 0.3, -0.1j])
    lattice = BranchLattice.ratio(f)
    block = _block(DiskGrid(12, 64, 1e-3))
    assert len(block) > 512
    _assert_close_arrays(lattice.log(block), [
        tracked_log(lattice.fn, z, **lattice.continue_from(z)) for z in block.tolist()])
    # a point query is a block of one
    for z in block[::37].tolist():
        assert lattice.log(z) == lattice.log(np.array([z]))[0]
        assert type(lattice.log(z)) is complex


# Bazilevic chains: (f, companion Q, comparison map p or None for the identity)
CHAINS = [
    (PolynomialMap([1, 0.2, -0.04j]), CompanionMap.identity(), None),
    (PolynomialMap([1, 0.15]), MOEBIUS_Q, PolynomialMap([1, 0.1])),
    (ScaledMap(CayleyMap(), 3.0), MOEBIUS_Q, None),
    (SpiralMap(0.6), CompanionMap.identity(), KoebeMap()),
]
CHAIN_IDS = ["poly-identity", "poly-moebius-poly_p", "cayley-moebius", "spiral-koebe_p"]


def _chain_oracle_branch(chain, z):
    """The Bazilevic chain's branch data, tracked from the origin per point."""
    s = chain.params.s
    jf0 = chain.f.jet(0j)
    g0 = chain.q.jet(jf0.value).d1 * jf0.d1
    lg = tracked_log(lambda w: chain.q.jet(chain.f.jet(w).value).value / w, z,
                     cmath.log(g0))
    lp = tracked_log(lambda w: chain.p.jet(w).value / w, z, 0j)
    return cmath.exp(s * lg), cmath.exp(s.real * lp), s * lg


def _stencil_directions(chain, annulus, h=1e-5):
    """Where the extension's Beltrami stencils evaluate the chain: the unit
    directions of every stencil point of every annulus sample, pulled in to
    radius 1 - 1e-6 when f is not analytic past the circle."""
    radius = 1 - 1e-6 if chain.f.analyticity_radius <= 1 else 1.0
    return [(w + d) / abs(w + d) * radius for w in annulus.points()
            for d in (h, -h, 1j * h, -1j * h)]


@pytest.mark.parametrize("f, q, p", CHAINS, ids=CHAIN_IDS)
def test_chain_partials_on_the_unit_circle_match_oracle(f, q, p):
    chain = build_chain("bazilevic", f, q, CriterionParams(s=1.3 + 0.4j, p=p))
    points = _stencil_directions(chain, AnnulusGrid(6, 12, 1.001, 3.0))
    if f.analyticity_radius <= 1:  # the spiral and Koebe maps blow up at z = 1
        points = [z for z in points if abs(z - 1) > 1e-3]
    for z in points:
        expected_branch = _chain_oracle_branch(chain, z)
        got_branch = chain.branch_data(z)
        assert all(_close(a, b) for a, b in zip(got_branch, expected_branch)), z
        for t in (0.0, 0.7, 1.9):
            got = chain.partials(z, t)
            want = chain.partials(z, t, expected_branch)
            for a, b in ((got.value, want.value), (got.dt, want.dt),
                         (got.zdz, want.zdz)):
                assert _close(a, b), (z, t)


@pytest.mark.parametrize("f, q, p", CHAINS, ids=CHAIN_IDS)
def test_chain_branch_data_of_a_stencil_block_matches_oracle(f, q, p):
    chain = build_chain("bazilevic", f, q, CriterionParams(s=1.3 + 0.4j, p=p))
    points = np.array(_stencil_directions(chain, AnnulusGrid(6, 12, 1.001, 3.0)))
    if f.analyticity_radius <= 1:
        points = points[np.abs(points - 1) > 1e-3]
    points = np.concatenate([points, _block()])
    got = chain.branch_data(points)
    want = np.array([_chain_oracle_branch(chain, z) for z in points.tolist()]).T
    for a, b in zip(got, want):
        _assert_close_arrays(a, b)


def test_queries_evaluate_nothing_beyond_their_radius():
    seen = []

    def ratio(w):
        seen.append(abs(w))
        return KoebeMap().jet(w).value / w

    lattice = BranchLattice(ratio, 0j)
    for z in list(GRID.points()) + _patches(GRID):
        del seen[:]
        tracked_log(lattice.fn, z, **lattice.continue_from(z))
        assert max(seen, default=0.0) <= abs(z) * (1 + 1e-12), z


def test_block_queries_evaluate_nothing_beyond_their_radius():
    seen = []

    def ratio(w):
        seen.append(np.max(np.abs(w), initial=0.0))
        return KoebeMap().jet(w).value / w

    points = GRID.points().reshape(GRID.n_radial, GRID.n_angular)
    blocks = list(points) + [_refined_neighborhood(GRID, z)
                             for z in (0.43 * cmath.exp(-1.0j),
                                       GRID.max_radius * cmath.exp(0.05j))]
    for block in blocks:  # a fresh lattice each time, so rings grow too
        del seen[:]
        BranchLattice(ratio, 0j).log(block)
        assert max(seen, default=0.0) <= np.max(np.abs(block)) * (1 + 1e-12)


def test_a_vanishing_value_on_a_block_raises():
    # fn = w - z0 vanishes at z0, which lies between the lattice's nodes
    z0 = 0.3 + 0.2j
    lattice = BranchLattice(lambda w: w - z0, cmath.log(-z0))
    with pytest.raises(BranchTrackingError, match="vanished"):
        lattice.log(np.concatenate([GRID.points(), [z0]]))
    # ... or at a node, 0.5 on ray 0: only the queries continuing along
    # that ray past it fail
    lattice = BranchLattice(lambda w: w - 0.5, cmath.log(-0.5))
    away = -GRID.points()[GRID.points().real > 0.1]
    _assert_close_arrays(lattice.log(away), [
        tracked_log(lattice.fn, z, **lattice.continue_from(z)) for z in away.tolist()])
    for z in (0.5, 0.75, 0.9 + 0.001j):
        with pytest.raises(BranchTrackingError, match="vanished"):
            lattice.log(np.array([0.1j, z]))


@pytest.mark.parametrize("c", [110.0, 250.0])  # 250 turns a 1/48 segment past pi
def test_the_twisted_spiral_takes_the_scalar_fallback(monkeypatch, c):
    fn, _ = _twisted_spiral(1.2, c)
    lattice = BranchLattice(fn, 0j)
    block = np.concatenate([_refined_neighborhood(GRID, cmath.rect(0.97, 0.4)),
                            GRID.points()])
    calls = []

    def spy(fn, z, *args, **kwargs):
        calls.append(z)
        return tracked_log(fn, z, *args, **kwargs)

    monkeypatch.setattr(branches, "tracked_log", spy)
    got = lattice.log(block)
    monkeypatch.undo()
    queries = set(block.tolist())
    assert any(z in queries for z in calls)  # points fell back
    assert any(z not in queries for z in calls)  # and lattice segments did
    _assert_close_arrays(got, [tracked_log(fn, z, **lattice.continue_from(z))
                               for z in block.tolist()])


# a 512-point block off the lattice rays by 0.4 of their spacing, so that
# some queries take two steps from their node
OFF_RAYS = DiskGrid(16, 32).points() * cmath.exp(0.8j * math.pi / BranchLattice.RAYS)


def _sizes(lattice):
    """Spy on a lattice's fn: the list of the sizes it is called with."""
    fn, sizes = lattice.fn, []

    def counted(w):
        sizes.append(np.size(w))
        return fn(w)

    lattice.fn = counted
    return sizes


def test_the_walk_pads_no_samples_and_repeats_none(monkeypatch):
    lattice = BranchLattice.ratio(PolynomialMap([1, 0.25, -0.05j]))
    sizes = _sizes(lattice)

    def no_fallback(*args, **kwargs):
        raise AssertionError("no step of this case needs the scalar walk")

    monkeypatch.setattr(branches, "tracked_log", no_fallback)
    lattice.log(OFF_RAYS)  # grows the rays the block uses, then answers it
    grown, sizes[:] = sum(sizes), []
    lattice.log(OFF_RAYS)
    queried = sum(sizes)
    ring, ray = lattice._node(OFF_RAYS)
    node = BranchLattice._UNIT[ray] * (ring / BranchLattice.RINGS)
    away = OFF_RAYS != node
    # every node of rings 1 to 47 of the block's 32 rays once, and each
    # query's steps from its node
    assert np.unique(ray).size == 32
    assert grown - queried == 47 * 32 == 1504
    assert queried == np.ceil(48 * np.abs(OFF_RAYS - node)[away]).sum() == 608


def test_a_second_block_on_new_rays_grows_only_those_rays():
    lattice = BranchLattice.ratio(PolynomialMap([1, 0.3, -0.1j]))
    sizes = _sizes(lattice)
    grid = DiskGrid(16, 32).points()  # on rays 8j, out to ring 47
    lattice.log(grid)
    assert np.array_equal(np.flatnonzero(lattice._height > 1), np.arange(0, 256, 8))
    logs = lattice._logs.copy()
    # the same grid turned by two rays: 32 new rays of 47 new nodes each,
    # in one growth call, then the query call
    del sizes[:]
    lattice.log(grid * BranchLattice._UNIT[2])
    assert sizes[0] == 32 * 47 and len(sizes) == 2
    new = np.zeros(BranchLattice.RAYS, bool)
    new[0::8] = new[2::8] = True
    assert np.array_equal(lattice._height, np.where(new, BranchLattice.RINGS, 1))
    assert np.array_equal(lattice._logs[:, 0::8], logs[:, 0::8])
    assert not np.isnan(lattice._logs[:, 2::8]).any()
    # a block on grown rays grows nothing: its one call is the query's
    del sizes[:]
    lattice.log(grid[::5])
    assert len(sizes) == 1


def test_growth_walks_at_most_grow_nodes_a_call():
    lattice = BranchLattice.ratio(PolynomialMap([1, 0.25, -0.05j]))
    sizes = _sizes(lattice)
    grid = DiskGrid(64, 128).points()  # the default grid, as one block
    got = lattice.log(grid)
    *growth, _ = sizes  # the last call is the query's
    # the grid's 128 rays out to ring 47, at most 2048 nodes a call
    assert max(growth) <= BranchLattice.GROW == 2048
    assert sum(growth) == 128 * 47
    blocks = BranchLattice.ratio(PolynomialMap([1, 0.25, -0.05j]))
    _assert_close_arrays(got, np.concatenate(
        [blocks.log(grid[i:i + 512]) for i in range(0, grid.size, 512)]))
    assert np.array_equal(lattice._logs, blocks._logs, equal_nan=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_node_logs_do_not_depend_on_how_rays_grow(data):
    # rays grown by blocks of any order and subset of the points, under the
    # full node budget or one of RAYS nodes a call, hold the nodes of one
    # block of all the points, bit for bit, and no ring past the deepest
    # one queried
    fn, _ = _twisted_spiral(0.9, 40.0)
    points = DiskGrid(12, 64, 1e-3).points()
    whole = BranchLattice(fn, 0j)
    whole.log(points)
    queried = data.draw(st.permutations(range(points.size)))
    queried = queried[:data.draw(st.integers(1, points.size))]
    lattice = BranchLattice(fn, 0j)
    lattice.GROW = data.draw(st.sampled_from([BranchLattice.RAYS, BranchLattice.GROW]))
    rest = queried
    while rest:
        size = data.draw(st.integers(1, 300))
        block, rest = rest[:size], rest[size:]
        lattice.log(points[block])
    ring, ray = lattice._node(points[queried])
    deepest = np.ones(BranchLattice.RAYS, int)
    np.maximum.at(deepest, ray, ring + 1)
    assert np.array_equal(lattice._height, deepest)
    grown = np.arange(BranchLattice.RINGS)[:, None] < lattice._height
    assert np.array_equal(lattice._logs[grown], whole._logs[grown], equal_nan=True)
    assert np.isnan(lattice._logs[~grown]).all()


def test_a_bad_second_query_step_is_repaired_on_its_own(monkeypatch):
    # c = 160 turns some two-step queries by more than _MAX_STEP_IMAG on
    # their second step only
    fn, _ = _twisted_spiral(1.2, 160.0)
    lattice = BranchLattice(fn, 0j)
    lattice.log(OFF_RAYS)  # rings grown: what follows repairs query steps only
    starts = []

    def spy(fn, z, *args, **kwargs):
        if z in queries:
            starts.append(kwargs["start"])
        return tracked_log(fn, z, *args, **kwargs)

    queries = set(OFF_RAYS.tolist())
    monkeypatch.setattr(branches, "tracked_log", spy)
    got = lattice.log(OFF_RAYS)
    monkeypatch.undo()
    # a node lies at radius k/48; a query's own first sample does not
    assert any(abs(abs(a) * 48 - round(abs(a) * 48)) > 1e-6 for a in starts)
    _assert_close_arrays(got, [tracked_log(fn, z, **lattice.continue_from(z))
                               for z in OFF_RAYS.tolist()])


# -- closed forms of factored ratios ----------------------------------------------------


# where a polynomial chain is queried: ExtensionMap._outside takes |z| = 1
CIRCLE = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)


@st.composite
def _class_a_polynomials(draw):
    """Class-A polynomials of degree 2 to 5 with f(z)/z = prod (1 - z/r_j),
    every |r_j| in [1.1, 4]: outside the closed disk, and at least 0.1 from
    the unit circle, where the two logs' rounding (eps / |z - r_j|) stays
    far under the 1e-12 they are compared at."""
    roots = draw(st.lists(st.builds(cmath.rect, st.floats(1.1, 4.0),
                                    st.floats(0.0, 2 * math.pi)),
                          min_size=1, max_size=4))
    coeffs = np.poly(roots)[::-1]  # of prod (z - r_j), lowest degree first
    coeffs = coeffs / coeffs[0]
    coeffs[0] = 1  # exactly, as class A requires
    return PolynomialMap(coeffs.tolist())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=_class_a_polynomials())
def test_factored_polynomial_ratios_match_their_lattice(f):
    branch = ratio_branch(f)
    assert type(branch) is FactoredRatio
    lattice = BranchLattice.ratio(f)
    assert branch.anchor == lattice.anchor
    points = np.concatenate([_block(), CIRCLE])
    _assert_close_arrays(branch.log(points), lattice.log(points))
    assert branch.fn(points[-1]) == lattice.fn(points[-1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(base=st.sampled_from([KoebeMap(), CayleyMap(), SpiralMap(0.6), IdentityMap(),
                             PolynomialMap([1, 0.25, -0.05j])]),
       lam=st.floats(-1.5, 1.5), r=st.floats(1.0, 4.0))
def test_factored_catalog_ratios_match_their_lattice(base, lam, r):
    points = _block()
    for m in (base, SpiralMap(lam), ScaledMap(base, r)):
        branch = ratio_branch(m)
        assert type(branch) is FactoredRatio
        _assert_close_arrays(branch.log(points), BranchLattice.ratio(m).log(points))
        for z in points[::50].tolist():  # a point query is a block of one
            assert branch.log(z) == branch.log(np.array([z]))[0]
            assert type(branch.log(z)) is complex


def test_a_factored_query_past_the_radius_raises_the_maps_domain_error():
    # the Bazilevic chain of a polynomial f queries p on |z| = 1, where the
    # Koebe map is not analytic: the same error the lattice's fn raised
    for m in (KoebeMap(), ScaledMap(SpiralMap(0.6), 0.5)):
        outside = m.analyticity_radius * np.array([0.5, 1.0, 1j])
        with pytest.raises(DomainError) as closed:
            ratio_branch(m).log(outside)
        with pytest.raises(DomainError) as lattice:
            BranchLattice.ratio(m).log(outside)
        assert str(closed.value) == str(lattice.value)


@pytest.mark.parametrize("f", [
    CayleyMap() + KoebeMap(),  # a combination node declares no factors
    PolynomialMap([1, 1.0]),  # the root -1 lies on the circle
    ScaledMap(PolynomialMap([1, 0.25]), 0.2),  # root -4 scaled to -0.8
], ids=["sum", "root_on_circle", "scaled_root_inside"])
def test_ratios_that_do_not_factor_keep_the_lattice(f):
    assert type(ratio_branch(f)) is BranchLattice


def test_a_root_inside_the_disk_keeps_the_lattice_and_its_verdict():
    # f(z)/z = 1 + 2z vanishes at -1/2 and 1 + z at -1: neither f is
    # univalent, and the scans fail as they did on the lattice, to the bit
    grid = DiskGrid(16, 32)
    params = CriterionParams(s=1 + 0.5j)
    with pytest.raises(BranchTrackingError, match="did not stabilize"):
        evaluate_criterion("bazilevic", PolynomialMap([1, 2.0]),
                           CompanionMap.identity(), params, grid)
    report = evaluate_criterion("bazilevic", PolynomialMap([1, 1.0]),
                                CompanionMap.identity(), params, grid)
    assert not report.passed
    assert report.sup_value == 2.2138074580860185
    assert report.worst_point == complex(-0.94060252111783782, -0.33655296353882769)


def test_a_sector_nw_scan_grows_its_lattice_before_its_blocks(monkeypatch):
    # the scan grows the 64 rays of its grid out to ring 47 before the first
    # block, in GROW-node walks; each 512-point block then walks its queries
    # only, and the refinement patch, between the grid's rays, grows its own
    walks = []
    walk = BranchLattice._walk

    def counted(self, start, anchor, points, *args):
        walks.append(points.size)
        return walk(self, start, anchor, points, *args)

    monkeypatch.setattr(BranchLattice, "_walk", counted)
    evaluate_criterion("sector_nw", PolynomialMap([1, 0.1]), None,
                       CriterionParams(k=0.75, **SECTOR), DiskGrid(32, 64))
    assert walks[:2] == [BranchLattice.GROW, 64 * 47 - BranchLattice.GROW]
    # four blocks: the first one's 64 origin points sit on their node
    assert walks[2:6] == [512 - 64, 512, 512, 512]
    assert len(walks) == 8


# -- conjugate symmetry ---------------------------------------------------------------


@pytest.mark.parametrize("criterion, f, psi, params", [
    ("sector_nw", PolynomialMap([1, 0.1, -0.02]), None,
     CriterionParams(k=0.75, **SECTOR)),
    ("bazilevic", PolynomialMap([1, 0.25]), CompanionMap.identity(),
     CriterionParams(s=1.5 + 0j, p=KoebeMap())),
    ("bazilevic_udisk", PolynomialMap([1, 0.1]), ConstMap(1.0),
     CriterionParams(k=0.5, k_prime=0.5, s=0.8 + 0j)),
])
def test_real_coefficients_give_bit_exact_conjugate_values(criterion, f, psi, params):
    value = CRITERIA[criterion].build(f, psi, params, GRID)
    for z in list(GRID.points()) + _patches(GRID):
        assert value(z.conjugate()) == value(z).conjugate(), z


@pytest.mark.parametrize("criterion, f, psi, params", [
    ("sector_nw", PolynomialMap([1, 0.1, -0.02]), None,
     CriterionParams(k=0.75, **SECTOR)),
    ("bazilevic", PolynomialMap([1, 0.25]), CompanionMap.identity(),
     CriterionParams(s=1.5 + 0j, p=KoebeMap())),
    ("bazilevic_udisk", PolynomialMap([1, 0.1]), ConstMap(1.0),
     CriterionParams(k=0.5, k_prime=0.5, s=0.8 + 0j)),
])
def test_real_coefficients_give_bit_exact_conjugate_blocks(criterion, f, psi, params):
    value = CRITERIA[criterion].build(f, psi, params, GRID)
    block = _block()
    assert np.array_equal(value(block.conj()), value(block).conj())


# -- property test: a dense unwrapped-phase reference ------------------------------------


def _twisted_spiral(lam, c):
    """w -> (f(w)/w) e^{icw} for the spiral map f: its log winds |c| + O(1)."""
    spiral = SpiralMap(lam)

    def fn(w):
        return spiral.jet(w).value / w * lib(w).cexp(1j * c * w)

    return fn, spiral.p


def _dense_reference(p, c, z, n=10_000):
    """log((1-z)^p e^{icz}) continued along [0, z] by unwrapping the phase of
    10^4 samples; the principal log of 1 - w is exact on the disk."""
    w = z * np.arange(n + 1) / n
    vals = np.exp(p * np.log(1 - w) + 1j * c * w)
    phase = np.unwrap(np.angle(vals))
    return complex(math.log(abs(vals[-1])), phase[-1])


def _counted(fn):
    """fn with a call counter: (the wrapped fn, a list holding the count)."""
    count = [0]

    def counted(w):
        count[0] += 1
        return fn(w)

    return counted, count


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-1.5, 1.5), c=st.floats(-120.0, 120.0),
       r=st.floats(0.0, 0.999), theta=st.floats(0.0, 2 * math.pi))
@example(lam=1.2, c=110.0, r=0.97, theta=0.4)  # forces guard subdivision
@example(lam=0.0, c=0.0, r=5e-324, theta=0.0)  # z * (1/48) underflows to 0
def test_tracked_log_matches_unwrapped_dense_reference(lam, c, r, theta):
    fn, p = _twisted_spiral(lam, c)
    z = cmath.rect(r, theta)
    want = _dense_reference(p, c, z)
    assert _close(tracked_log(fn, z, 0j), want, 1e-9)
    lattice = BranchLattice(fn, 0j)
    assert _close(tracked_log(lattice.fn, z, **lattice.continue_from(z)), want, 1e-9)


def test_the_subdividing_example_really_subdivides():
    fn, _ = _twisted_spiral(1.2, 110.0)
    z = cmath.rect(0.97, 0.4)
    counted, count = _counted(fn)
    tracked_log(counted, z, 0j)
    assert count[0] > 48  # the ray from 0 needed more than its 48 steps
    counted, count = _counted(fn)
    node = BranchLattice(counted, 0j).continue_from(z)
    segments = round(abs(node["start"]) * BranchLattice.RINGS)
    assert count[0] > segments  # some one-step lattice segment was split


def test_blocks_in_any_order_grow_the_lattice_one_block_grows():
    # blocks of 1 to 40 points, outward or shuffled, grow the rays in their
    # own steps, and reserve grows them all before the first block: the nodes
    # and the answers are those of one block of all the points
    fn, _ = _twisted_spiral(0.9, 40.0)
    points = DiskGrid(12, 64, 1e-3).points()
    serial = BranchLattice(fn, 0j)
    serial_sizes = _sizes(serial)
    want = serial.log(points)
    for seed, order in enumerate(("outward", "shuffled", "reserved")):
        lattice = BranchLattice(fn, 0j)
        sizes = _sizes(lattice)
        if order == "reserved":
            lattice.reserve(points)
        rng = random.Random(seed)
        idx = list(range(len(points)))
        if order == "shuffled":
            rng.shuffle(idx)
        got = np.empty_like(want)
        while idx:
            size = rng.randint(1, 40)
            block, idx = idx[:size], idx[size:]
            got[block] = lattice.log(points[block])
        # rays no block uses stay ungrown, NaN in both
        assert np.array_equal(lattice._height, serial._height), order
        assert np.array_equal(lattice._logs, serial._logs, equal_nan=True), order
        # every node and every query step walked once
        assert sum(sizes) == sum(serial_sizes), order
        _assert_close_arrays(got, want)


# -- chain validation shares a point's branch data across its times ---------------------


class _ScriptedChain(LoewnerChain):
    """Transition ratios from a table keyed by (z, t), 1 elsewhere; like the
    real chains it evaluates arrays of points."""

    construction = "scripted"

    def __init__(self, table):
        self.table = table
        self.branch_points = 0

    def branch_data(self, z):
        self.branch_points += len(z)
        return None

    def a1(self, t):
        return 1 + t

    def partials(self, z, t, branch=None):
        return ChainPartials(z, z, z)

    def transition_ratio(self, z, t, branch=None, part=None):
        return np.array([self.table.get((w, t), 1 + 0j) for w in z])


def test_validation_keeps_time_major_ties_and_failure_order():
    grid = DiskGrid(3, 1, 1e-2)  # three distinct points on the positive axis
    z0, z1, z2 = grid.points()
    inf = complex(float("inf"), 0)
    chain = _ScriptedChain({(z0, 1.0): 0.5 + 0j, (z1, 0.0): 0.5 + 0j,
                            (z2, 0.0): inf, (z0, 1.5): inf})
    val = validate_chain(chain, grid, (0.0, 1.0, 1.5))
    assert chain.branch_points == 3  # once per point, not once per (point, time)
    assert val.re_p_argmin == (z1, 0.0)  # the first minimum in time-major order
    assert val.failures[:2] == (f"transition ratio not finite at z={z2!r}, t=0.0",
                                f"transition ratio not finite at z={z0!r}, t=1.5")


def test_bazilevic_validation_matches_time_major_reference():
    chain = build_chain("bazilevic", PolynomialMap([1, 0.3, -0.05j]),
                        CompanionMap.identity(), CriterionParams(s=1.2 + 0.6j))
    grid, times = DiskGrid(6, 12, 1e-2), default_times(2.0, 6)
    val = validate_chain(chain, grid, times, dilatation_bound=0.3)
    # the same checks point by point, times outer and the branch data
    # recomputed per call; the validation evaluates arrays, whose numpy
    # arithmetic may round differently, so the minima agree to 1e-12 and
    # are found at the same (z, t)
    re_min, re_arg, um_min, um_arg, growth = float("inf"), None, float("inf"), None, 0.0
    for t in times:
        a1 = chain.a1(t)
        for z in grid.points():
            p = chain.transition_ratio(z, t)
            if p.real < re_min:
                re_min, re_arg = p.real, (z, t)
            m = u_disk_margin(p, 0.3)
            if m < um_min:
                um_min, um_arg = m, (z, t)
            growth = max(growth, abs(chain.value(z, t)) / abs(a1))
    assert _close(val.re_p_min, re_min) and val.re_p_argmin == re_arg
    assert _close(val.u_margin_min, um_min) and val.u_margin_argmin == um_arg
    assert _close(val.growth_max, growth)
    assert not val.ok and "escapes U(0.3)" in val.failures[-1]


# -- the traced run's contract ---------------------------------------------------------


def _tracer():
    """perfbench's Tracer, imported from its file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_run_sees_branch_tracking_of_both_callers(tmp_path, capsys, monkeypatch):
    # the tracer counts the per-point tracked_log calls made through
    # qcx.criteria's and qcx.loewner's names, and the evaluations inside
    # qcx.branches.tracked_log.  Block queries of the lattices call neither,
    # so the calls read 0 and the evaluations are those of the scalar
    # fallbacks the lattices take, counted here on their own
    from qcx import criteria, loewner

    fallback = {"calls": 0, "evals": 0}
    scalar = branches.tracked_log

    def counted_fallback(fn, z, *args, **kwargs):
        fallback["calls"] += 1

        def counted(w):
            fallback["evals"] += 1
            return fn(w)

        return scalar(counted, z, *args, **kwargs)

    monkeypatch.setattr(branches, "tracked_log", counted_fallback)

    def scenario(name, function, companion):
        doc = {"version": 1, "function": function,
               "companion": companion, "criterion": "bazilevic",
               "params": {"s": [1.0, 0.5]}, "grid": {"radial": 8, "angular": 16},
               "times": {"t_max": 2.0, "count": 5}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    poly = scenario("poly", {"kind": "polynomial", "coefficients": [[0.25, 0.0]]},
                    {"kind": "identity"})
    # Q(f(z))/z turns fast near z = 1 with the spiral's ratio: steps there
    # fall back.  A catalog companion Q keeps the lattice; with the identity
    # the spiral's ratio has a closed form
    catalog_q = {"kind": "catalog", "extension_dilatation": 0.0,
                 "base": {"kind": "polynomial", "coefficients": [[0.05, 0.0]]}}
    spiral = scenario("spiral", {"kind": "spiral", "lam": 1.2}, catalog_q)
    tracer = _tracer()
    tracer.install()
    try:
        assert main(["check", "--scenario", poly]) == 0
        assert main(["extend", "--scenario", poly]) == 0
        quiet = tracer.pass_metrics()
        assert fallback == {"calls": 0, "evals": 0}
        assert main(["check", "--scenario", spiral]) == 1
        assert main(["extend", "--scenario", spiral]) == 1
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert quiet["branches.evals"] == 0 and quiet["branches.max_steps"] == 0
    assert fallback["calls"] > 0
    for m in (quiet, metrics):
        assert m["branches.calls.criteria"] == m["branches.calls.loewner"] == 0
        assert m["branches.self_s"] == 0
    assert metrics["branches.evals"] == fallback["evals"]
    assert 1 <= metrics["branches.max_steps"] <= fallback["evals"]
    assert 0 < metrics["branches.pass_efficiency"] <= 1
    assert criteria.tracked_log is loewner.tracked_log is scalar
