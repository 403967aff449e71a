"""The shared branch lattice: differential tests against the per-point
tracking from the origin, tests against the closed-form logarithm of twisted
spirals and a dense unwrapped-phase reference, conjugate symmetry, and the
traced-run contract."""

import cmath
import functools
import importlib.util
import json
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcx import (
    AnalyticMap,
    AnnulusGrid,
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
from qcx import branches, grids
from qcx.branches import BranchLattice, BranchTrackingError, FactoredRatio, ratio_branch
from qcx.cli import main
from qcx.criteria import CRITERIA, _refined_neighborhood
from qcx.grids import BLOCK
from qcx.jets import DomainError, accepts_point
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


CASES = _cases()


@functools.cache
def _oracle_value(criterion, f, psi, params, z):
    """The per-point oracle at z, evaluated once for every test of a case."""
    if criterion == "sector_nw":
        return sector_nw_value(f, params.w0, params.a, z)
    return gen_bazilevic_value(f, psi, params.s, params.p or IdentityMap(), z)


def _oracle(criterion, f, psi, params):
    return lambda z: _oracle_value(criterion, f, psi, params, complex(z))


@pytest.mark.parametrize("criterion, f, psi, params", CASES)
def test_shared_lattice_matches_per_point_oracle(criterion, f, psi, params):
    value = CRITERIA[criterion].build(f, psi, params)
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
    if criterion == "sector_nw":  # 1 - f/w0 is the ratio of w (1 - f/w0)
        return [BranchLattice.ratio(IdentityMap() * (1 - f / params.w0))]
    p = BranchLattice.ratio(params.p or IdentityMap())
    if isinstance(psi, CompanionMap):  # the value of G = Q o f
        f = psi.after(f)
    return [BranchLattice.ratio(f), p]


def _assert_close_arrays(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bad = np.abs(got - want) > tol * (1 + np.abs(want))
    assert not bad.any(), (np.flatnonzero(bad)[:5], got[bad][:5], want[bad][:5])


@pytest.mark.parametrize("criterion, f, psi, params", CASES)
def test_block_queries_match_the_per_point_oracles(criterion, f, psi, params):
    block = _block()
    value = CRITERIA[criterion].build(f, psi, params)
    oracle = _oracle(criterion, f, psi, params)
    _assert_close_arrays(value(block), [oracle(z) for z in block.tolist()])
    # each lattice query against tracked_log from the origin
    points = block[::3]
    for lattice in _lattices(criterion, f, psi, params):
        _assert_close_arrays(lattice.log(points), [
            tracked_log(lattice.fn, z, lattice.anchor) for z in points.tolist()])


def test_a_block_of_more_than_512_points_matches_the_oracle():
    f = PolynomialMap([1, 0.3, -0.1j])
    lattice = BranchLattice.ratio(f)
    block = _block(DiskGrid(12, 64, 1e-3))
    assert len(block) > 512
    _assert_close_arrays(lattice.log(block), [
        tracked_log(lattice.fn, z, lattice.anchor) for z in block.tolist()])
    # a point query is a block of one
    for z in block[::37].tolist():
        assert lattice.log(z) == lattice.log(np.array([z]))[0]
        assert type(lattice.log(z)) is complex


def test_a_moebius_companions_branch_keeps_its_anchor_and_verdict():
    # G = Q o f: the branch of log(G/w) is anchored at log G'(0), which
    # jets.compose gives as the chain rule Q'(f(0)) f'(0) at a point does
    f = PolynomialMap([1, 0.15])
    jf0 = f.jet(0j)
    for q in (MOEBIUS_Q, CompanionMap.from_moebius(MoebiusMap(1.3 + 0.2j, 0, 0.2, 0.9))):
        branch = ratio_branch(q.after(f))
        assert isinstance(branch, BranchLattice)
        assert branch.anchor == cmath.log(q.jet(jf0.value).d1 * jf0.d1)
    # the identity companion's G is f, whose ratio keeps its closed form
    assert isinstance(ratio_branch(CompanionMap.identity().after(f)), FactoredRatio)
    # the rows hold Q(0) to 0 within 1e-12, and so does the branch
    q = CompanionMap.from_moebius(MoebiusMap(1, 1e-13, 0, 1))
    assert ratio_branch(q.after(f)).anchor == 0
    assert evaluate_criterion("bazilevic", f, q, CriterionParams(s=1 + 0.5j), GRID).passed
    with pytest.raises(BranchTrackingError, match=r"requires m\(0\) = 0"):
        ratio_branch(CompanionMap.from_moebius(MoebiusMap(1, 2e-12, 0, 1)).after(f))


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
    return _branch_oracle(chain.f, chain.q, chain.params.p, chain.params.s, complex(z))


@functools.cache
def _branch_oracle(f, q, p, s, z):
    """_chain_oracle_branch, evaluated once for every test of a chain."""
    p = p or IdentityMap()
    jf0 = f.jet(0j)
    g0 = q.jet(jf0.value).d1 * jf0.d1
    lg = tracked_log(lambda w: q.jet(f.jet(w).value).value / w, z, cmath.log(g0))
    lp = tracked_log(lambda w: p.jet(w).value / w, z, 0j)
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
    # the same chain with its branch data from the oracle
    oracle = build_chain("bazilevic", f, q, CriterionParams(s=1.3 + 0.4j, p=p))
    for z in points:
        expected_branch = _chain_oracle_branch(chain, z)
        got_branch = chain.branch_data(z)
        assert all(_close(a, b) for a, b in zip(got_branch, expected_branch)), z
        oracle.branch_data = lambda z, branch=expected_branch: branch
        for t in (0.0, 0.7, 1.9):
            got = chain.partials(z, t)
            want = oracle.partials(z, t)
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


class _Spied(AnalyticMap):
    """A map that shows `seen` the points of every jet call, then evaluates
    the map it wraps."""

    def __init__(self, m, seen):
        self.m, self.seen = m, seen
        self.analyticity_radius = m.analyticity_radius

    @accepts_point("z")
    def jet(self, z):
        self.seen(z)
        return self.m.jet(z)


def _sizes(m):
    """m spied on: (the spied map, the list of its jet calls' sizes)."""
    sizes = []
    return _Spied(m, lambda z: sizes.append(z.size)), sizes


def _halvings(monkeypatch):
    """Spy on every lattice's steps: the list of the halvings each batch of
    steps was taken at (0 for a walk's own steps)."""
    seen = []
    turns = BranchLattice._turns

    def spy(self, a, b, arg_a, arg_b, halvings=0):
        seen.append(halvings)
        return turns(self, a, b, arg_a, arg_b, halvings)

    monkeypatch.setattr(BranchLattice, "_turns", spy)
    return seen


def _no_fallback(monkeypatch):
    """Make any call of branches.tracked_log fail the test."""
    def fallback(*args, **kwargs):
        raise AssertionError("a lattice called tracked_log")

    monkeypatch.setattr(branches, "tracked_log", fallback)


def test_queries_evaluate_nothing_beyond_their_radius():
    seen = []
    lattice = BranchLattice.ratio(_Spied(KoebeMap(), lambda w: seen.extend(np.abs(w))))
    for z in list(GRID.points()) + _patches(GRID):
        del seen[:]
        lattice.log(z)
        tracked_log(lattice.fn, z, lattice.anchor)
        assert max(seen, default=0.0) <= abs(z) * (1 + 1e-12), z


def test_block_queries_evaluate_nothing_beyond_their_radius():
    seen = []
    koebe = _Spied(KoebeMap(), lambda w: seen.append(np.max(np.abs(w), initial=0.0)))
    points = GRID.points().reshape(GRID.n_radial, GRID.n_angular)
    blocks = list(points) + [_refined_neighborhood(GRID, z)
                             for z in (0.43 * cmath.exp(-1.0j),
                                       GRID.max_radius * cmath.exp(0.05j))]
    for block in blocks:  # a fresh lattice each time, so rings grow too
        del seen[:]
        BranchLattice.ratio(koebe).log(block)
        assert max(seen, default=0.0) <= np.max(np.abs(block)) * (1 + 1e-12)


def _linear(z0):
    """The lattice of log(w - z0), the ratio of w (w - z0)."""
    return BranchLattice.ratio(PolynomialMap([-z0, 1], class_a=False))


def test_a_vanishing_value_on_a_block_raises():
    # w - z0 vanishes at z0, which lies between the lattice's nodes
    z0 = 0.3 + 0.2j
    with pytest.raises(BranchTrackingError, match="vanished"):
        _linear(z0).log(np.concatenate([GRID.points(), [z0]]))
    # ... or at a node, 0.5 on ray 0: only the queries continuing along
    # that ray past it fail
    lattice = _linear(0.5)
    assert lattice.anchor == cmath.log(-0.5)
    away = -GRID.points()[GRID.points().real > 0.1]
    _assert_close_arrays(lattice.log(away), [
        tracked_log(lattice.fn, z, lattice.anchor) for z in away.tolist()])
    for z in (0.5, 0.75, 0.9 + 0.001j):
        with pytest.raises(BranchTrackingError, match=r"vanished .* at \(0\.5\+0j\)"):
            lattice.log(np.array([0.1j, z]))


def test_tracked_log_names_its_point_as_a_python_number():
    # a numpy scalar endpoint is taken as a Python complex on entry
    with pytest.raises(BranchTrackingError,
                       match=r"vanished or became non-finite on the path at \(0\.5\+0j\)$"):
        tracked_log(lambda w: w - 0.5, np.complex128(1.0), 1j * np.pi)


@pytest.mark.parametrize("c", [110.0, 250.0])  # 250 turns a 1/48 segment past pi
def test_the_twisted_spiral_halves_steps_and_takes_no_fallback(monkeypatch, c):
    # z = 0.9999 lies 1e-4 from the spiral's pole: its one step is halved
    m = _TwistedSpiral(-0.9, c)
    lattice = BranchLattice.ratio(m)
    block = np.concatenate([_refined_neighborhood(GRID, cmath.rect(0.97, 0.4)),
                            GRID.points(), [0.9999]])
    halvings = _halvings(monkeypatch)
    _no_fallback(monkeypatch)
    got = lattice.log(block)
    monkeypatch.undo()
    assert max(halvings) >= 1
    _assert_close_arrays(got, _exact_log(m, block), 1e-9)


def test_a_step_past_a_near_zero_is_halved(monkeypatch):
    # w - z0 passes within 1e-3 of 0 between rings 23 and 24 of ray 0: the
    # two rules disagree on the sub-steps nearest z0 until they are halved
    # four times
    z0 = 23.3 / 48 + 1e-3j
    lattice = _linear(z0)
    halvings = _halvings(monkeypatch)
    _no_fallback(monkeypatch)
    queries = np.array([0.9, 0.95j])
    got = lattice.log(queries)
    assert max(halvings) == 4
    _assert_close_arrays(got, cmath.log(-z0) + np.log(1 - queries / z0))
    # with three halvings allowed the step is not resolved, and the error
    # names the end of the first sub-step still unresolved
    monkeypatch.setattr(branches, "_HALVINGS", 3)
    with pytest.raises(BranchTrackingError,
                       match=r"did not stabilize.* on the step to \(0\.4\d+\+0j\)$"):
        _linear(z0).log(queries)


# a 512-point block off the lattice rays by 0.4 of their spacing, so that
# some queries take a step across from their node's ray
OFF_RAYS = DiskGrid(16, 32).points() * cmath.exp(0.8j * math.pi / BranchLattice.RAYS)


def test_the_walk_pads_no_samples_and_repeats_none(monkeypatch):
    m, sizes = _sizes(PolynomialMap([1, 0.25, -0.05j]))
    lattice = BranchLattice.ratio(m)
    halvings = _halvings(monkeypatch)
    _no_fallback(monkeypatch)
    del sizes[:]
    lattice.log(OFF_RAYS)  # grows the rays the block uses, then answers it
    grown, sizes[:] = sum(sizes), []
    lattice.log(OFF_RAYS)
    queried = sum(sizes)
    ring, ray = lattice._node(OFF_RAYS)
    node = BranchLattice._UNIT[ray] * (ring / BranchLattice.RINGS)
    away = OFF_RAYS != node
    # no step is halved: each step samples its end and the rule's nodes,
    # over every node of rings 1 to 47 of the block's 32 rays once, and
    # each query off its node once
    assert max(halvings) == 0
    per_step = 1 + branches._NODES.size
    assert np.unique(ray).size == 32
    assert grown - queried == per_step * 47 * 32
    assert queried == per_step * np.count_nonzero(away) == per_step * 480


def test_a_second_block_on_new_rays_grows_only_those_rays():
    lattice = BranchLattice.ratio(PolynomialMap([1, 0.3, -0.1j]))
    grid = DiskGrid(16, 32).points()  # on rays 8j, out to ring 47
    lattice.log(grid)
    assert np.array_equal(np.flatnonzero(lattice._height > 1), np.arange(0, 256, 8))
    logs = lattice._logs.copy()
    # the same grid turned by two rays: 32 new rays of 47 new nodes each
    lattice.log(grid * BranchLattice._UNIT[2])
    new = np.zeros(BranchLattice.RAYS, bool)
    new[0::8] = new[2::8] = True
    assert np.array_equal(lattice._height, np.where(new, BranchLattice.RINGS, 1))
    assert np.array_equal(lattice._logs[:, 0::8], logs[:, 0::8])
    assert not np.isnan(lattice._logs[:, 2::8]).any()
    # a block on grown rays grows nothing
    logs = lattice._logs.copy()
    lattice.log(grid[::5])
    assert np.array_equal(lattice._logs, logs, equal_nan=True)
    assert np.array_equal(lattice._height, np.where(new, BranchLattice.RINGS, 1))


def test_growth_and_query_walks_take_at_most_block_samples():
    m, sizes = _sizes(PolynomialMap([1, 0.25, -0.05j]))
    lattice = BranchLattice.ratio(m)
    grid = DiskGrid(64, 128).points()  # the default grid, as one block
    got = lattice.log(grid)
    # the grid's 128 rays out to ring 47, in jet calls of at most BLOCK
    # samples, the rule's nodes counted, some of them full
    assert max(sizes) == BLOCK - BLOCK % branches._NODES.size
    assert np.array_equal(lattice._height, np.where(np.arange(256) % 2, 1, 48))
    blocks = BranchLattice.ratio(PolynomialMap([1, 0.25, -0.05j]))
    _assert_close_arrays(got, np.concatenate(
        [blocks.log(grid[i:i + 512]) for i in range(0, grid.size, 512)]))
    assert np.array_equal(lattice._logs, blocks._logs, equal_nan=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_node_logs_do_not_depend_on_how_rays_grow(data):
    # rays grown by blocks of any order and subset of the points, under the
    # full sample budget or one of RAYS samples a call, hold the nodes of one
    # block of all the points, bit for bit, and no ring past the deepest
    # one queried
    m = _TwistedSpiral(0.9, 40.0)
    points = DiskGrid(12, 64, 1e-3).points()
    whole = BranchLattice.ratio(m)
    whole.log(points)
    queried = data.draw(st.permutations(range(points.size)))
    queried = queried[:data.draw(st.integers(1, points.size))]
    lattice = BranchLattice.ratio(m)
    budget = data.draw(st.sampled_from([BranchLattice.RAYS, BLOCK]))
    rest = queried
    with mock.patch.object(branches, "BLOCK", budget):
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


def test_a_query_step_is_halved_on_its_own(monkeypatch):
    # the step of the query 0.9999, 1e-4 from the spiral's pole, needs
    # halving once the rings it continues from are grown
    m = _TwistedSpiral(-0.9, 160.0)
    lattice = BranchLattice.ratio(m)
    queries = np.append(OFF_RAYS, 0.9999)
    lattice.log(queries)  # rings grown: what follows takes query steps only
    heights = lattice._height.copy()
    halvings = _halvings(monkeypatch)
    _no_fallback(monkeypatch)
    got = lattice.log(queries)
    monkeypatch.undo()
    assert max(halvings) >= 1
    assert np.array_equal(lattice._height, heights)
    _assert_close_arrays(got, _exact_log(m, queries), 1e-9)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c0=st.just(0j) | st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e6,
                                           allow_nan=False, allow_infinity=False),
       c1=st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                             allow_nan=False, allow_infinity=False))
def test_a_linear_ratio_root_is_np_roots_bit_for_bit(c0, c1):
    # |c0/c1| stays inside the range LAPACK solves unscaled (1e-138 to 1e138)
    f = PolynomialMap([c0, c1], class_a=False)
    assert f.ratio_factors()[0] == tuple(complex(r) for r in np.roots([c1, c0]))


def test_a_bazilevic_check_of_a_quadratic_calls_no_np_roots(tmp_path, monkeypatch, capsys):
    calls = []
    roots = np.roots

    def spy(p):
        calls.append(p)
        return roots(p)

    monkeypatch.setattr(np, "roots", spy)
    doc = {"version": 1, "function": {"kind": "polynomial", "coefficients": [[0.25, 0.0]]},
           "companion": {"kind": "identity"}, "criterion": "bazilevic",
           "params": {"s": [1.0, 0.5]}, "grid": {"radial": 8, "angular": 16}}
    path = tmp_path / "bazilevic.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 0
    assert "passed=true" in capsys.readouterr().out
    assert calls == []
    # a cubic's ratio is quadratic: its roots still come from np.roots
    assert PolynomialMap([1, 0.25, 0.01j]).ratio_factors() and len(calls) == 1


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


def test_a_companion_bazilevic_scan_grows_its_lattice_block_by_block(monkeypatch):
    # the Q o f ratio of a companion other than the identity keeps a
    # lattice: each block grows the 64 rays of the grid out to the deepest
    # ring it asks of them, and then walks its queries: the first block's
    # radii reach ring 46, the second's ring 47; the refinement patch,
    # between the grid's rays, grows its own
    lattices, deepest, sizes = [], [], []
    grow = BranchLattice._grow

    def spy(self, ring, ray):
        lattices.append(self)
        deepest.append(ring.max())
        return grow(self, ring, ray)

    monkeypatch.setattr(BranchLattice, "_grow", spy)
    jet = PolynomialMap.jet
    monkeypatch.setattr(PolynomialMap, "jet",
                        lambda self, z: sizes.append(np.size(z)) or jet(self, z))
    evaluate_criterion("bazilevic", PolynomialMap([1, 0.1]), MOEBIUS_Q,
                       CriterionParams(s=1 + 0.5j), DiskGrid(2 * BLOCK // 64, 64))
    assert deepest[:2] == [46, 47] and len(deepest) == 3
    lattice = lattices[0]
    assert all(other is lattice for other in lattices)
    height = lattice._height
    assert (height[0::4] == BranchLattice.RINGS).all()
    # the patch's rays lie between the grid's and no deeper than ring 47
    patch = np.flatnonzero((height > 1) & (np.arange(BranchLattice.RAYS) % 4 != 0))
    assert patch.size and (height[patch] <= BranchLattice.RINGS).all()
    assert max(sizes) <= BLOCK


def test_a_sector_nw_scan_walks_no_lattice(monkeypatch):
    walks = []
    monkeypatch.setattr(BranchLattice, "_walk", lambda *args: walks.append(args))
    report = evaluate_criterion("sector_nw", PolynomialMap([1, 0.1]), None,
                                CriterionParams(k=0.75, **SECTOR), DiskGrid(32, 64))
    assert report.passed and walks == []


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
    value = CRITERIA[criterion].build(f, psi, params)
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
    value = CRITERIA[criterion].build(f, psi, params)
    block = _block()
    assert np.array_equal(value(block.conj()), value(block).conj())


# -- twisted spirals: a closed form and a dense unwrapped-phase reference ---------------


class _TwistedSpiral(AnalyticMap):
    """w -> f(w) e^{icw} for the spiral map f: its ratio's log,
    p Log(1 - w) + icw, winds |c| + O(1)."""

    analyticity_radius = 1.0

    def __init__(self, lam, c):
        self.spiral, self.c = SpiralMap(lam), c

    @accepts_point("z")
    def jet(self, z):
        j, ic = self.spiral.jet(z), 1j * self.c
        e = np.exp(ic * z)
        return Jet2(j.value * e, (j.d1 + ic * j.value) * e,
                    (j.d2 + 2 * ic * j.d1 + ic * ic * j.value) * e)


def _exact_log(m, z):
    """The log of a twisted spiral's ratio continued from the origin: the
    principal log of 1 - w is continuous on the disk."""
    return m.spiral.p * np.log(1 - z) + 1j * m.c * z


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
    m = _TwistedSpiral(lam, c)
    z = cmath.rect(r, theta)
    want = _dense_reference(m.spiral.p, c, z)
    lattice = BranchLattice.ratio(m)
    assert _close(tracked_log(lattice.fn, z, 0j), want, 1e-9)
    assert _close(lattice.log(z), want, 1e-9)


def test_a_node_step_that_turns_past_pi_keeps_its_winding():
    # from the node at r = 47/48 on the positive axis, right to 1e-15, the one
    # step to z = 0.999, a point of the default grid, turns by about 4.8: its
    # sampled turn alone reads 4.8 - 2 pi = -1.5
    m = _TwistedSpiral(-0.75, 89.0)
    z = 0.999 + 0j
    want = _dense_reference(m.spiral.p, 89.0, z)  # imag 95.80145125947...
    lattice = BranchLattice.ratio(m)
    assert _close(tracked_log(lattice.fn, z, 0j), want, 1e-9)
    assert _close(lattice.log(z), want, 1e-9)
    assert z in DiskGrid().points()


@pytest.mark.parametrize("lam, c", [(0.6, 0.0), (-0.75, 89.0)])
def test_the_default_grid_takes_the_exact_branch_of_a_twisted_spiral(lam, c):
    # the plain spiral's ratio turns slowly, but a trapezoid estimate of a
    # step's turn, checked only by its miss modulo 2 pi against the sampled
    # turn, took a branch 2 pi off at z = 0.99888 on ray 0; (-0.75, 89)
    # turns its one step to z = 0.999 by more than pi
    m = _TwistedSpiral(lam, c)
    grid = DiskGrid().points()
    _assert_close_arrays(BranchLattice.ratio(m).log(grid), _exact_log(m, grid), 1e-9)


def test_a_sweep_of_twisted_spirals_near_one_takes_the_exact_branch():
    # lambda in [-0.95, -0.3], |c| <= 120 and z within 1e-4 to 1e-2 of 1,
    # where a step of the lattice's outer ring turns by up to about 2.5 rad
    rng = np.random.default_rng(8)
    wrong = []
    for _ in range(400):
        lam, c = rng.uniform(-0.95, -0.3), rng.uniform(-120.0, 120.0)
        z = 1 - 10 ** rng.uniform(-4, -2) * cmath.exp(1j * rng.uniform(-1.5, 1.5))
        assert abs(z) < 1 and abs(cmath.phase(z)) <= 0.01
        m = _TwistedSpiral(lam, c)
        if not _close(BranchLattice.ratio(m).log(z), _exact_log(m, z), 1e-9):
            wrong.append((lam, c, z))
    assert wrong == []


@pytest.mark.parametrize("lam", [1.2, -0.75, 0.0])
def test_queries_near_a_pole_take_the_exact_branch(lam):
    # 1 - 1e-6 and 1 - 1e-7 are where the extension clamps its boundary
    # queries and checks its continuity; the spiral's ratio (1 - z)^p has a
    # pole or zero of order p at 1, near which the two rules keep a gap of
    # about 1.17 |p| at every scale while the error of each grows like the
    # log of the step over the distance: the step is halved down to that
    # distance (sampled turns over whole 1/48 steps take branches 2 pi to
    # 8 pi off there)
    m = SpiralMap(lam)
    z = 1 - np.array([1e-6, 1e-7, 1e-12])
    _assert_close_arrays(BranchLattice.ratio(m).log(z), m.p * np.log(1 - z))


def test_the_subdividing_example_really_subdivides(monkeypatch):
    m = _TwistedSpiral(1.2, 110.0)
    z = cmath.rect(0.97, 0.4)
    lattice = BranchLattice.ratio(m)
    counted, count = _counted(lattice.fn)
    tracked_log(counted, z, 0j)
    assert count[0] > 48  # the ray from 0 needed more than its 48 steps
    # the lattice halves none of its steps: both rules integrate the
    # constant ic of g'/g exactly
    halvings = _halvings(monkeypatch)
    lattice.log(z)
    assert max(halvings) == 0


def test_blocks_in_any_order_grow_the_lattice_one_block_grows():
    # blocks of 1 to 40 points, outward or shuffled, grow the rays in their
    # own steps: the nodes and the answers are those of one block of all the
    # points
    points = DiskGrid(12, 64, 1e-3).points()
    m, serial_sizes = _sizes(_TwistedSpiral(0.9, 40.0))
    serial = BranchLattice.ratio(m)
    want = serial.log(points)
    for seed, order in enumerate(("outward", "shuffled")):
        m, sizes = _sizes(_TwistedSpiral(0.9, 40.0))
        lattice = BranchLattice.ratio(m)
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
        # every node and every query step sampled once, and no other point
        assert sum(sizes) == sum(serial_sizes), order
        _assert_close_arrays(got, want)


# -- chain validation evaluates a point once for all of its times ----------------------


class _ScriptedChain(LoewnerChain):
    """Transition ratios from a table keyed by (z, t), 1 elsewhere; like the
    real chains it evaluates an array of points against a column of times."""

    construction = "scripted"

    def __init__(self, table):
        self.table = table
        self.points = 0  # points evaluated, over all partials calls

    def a1(self, t):
        return 1 + t

    def partials(self, z, t):
        self.points += len(z)
        return ChainPartials(z, z, z)

    def transition_ratio(self, z, t, part=None):
        return np.array([[self.table.get((w, x), 1 + 0j) for w in z.tolist()]
                         for x in t[:, 0].tolist()])


def test_validation_keeps_time_major_ties_and_failure_order(monkeypatch):
    grid = DiskGrid(3, 1, 1e-2)  # three distinct points on the positive axis
    z0, z1, z2 = grid.points()
    inf = complex(float("inf"), 0)
    times = (0.0, -1.0, 1.0, 1.5)  # a1(-1.0) = 0
    # one block of points, then one block per point: the tie and the
    # failures span blocks, in the order the earlier point's block comes last
    for block in (BLOCK, len(times)):
        monkeypatch.setattr(grids, "BLOCK", block)
        chain = _ScriptedChain({(z0, 1.0): 0.5 + 0j, (z1, 0.0): 0.5 + 0j,
                                (z2, 0.0): inf, (z0, 1.5): inf})
        val = validate_chain(chain, grid, times)
        assert chain.points == 3  # once per point, not once per (point, time)
        assert val.re_p_argmin == (z1, 0.0)  # the first of the tied minima, times outer
        assert val.failures == (f"transition ratio not finite at z={complex(z2)!r}, t=0.0",
                                "a1(-1.0) = 0",
                                f"transition ratio not finite at z={complex(z0)!r}, t=1.5",
                                "|a1(t)| is not increasing over the sampled times")


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


def test_the_tracer_finds_every_name_it_wraps():
    # install() looks each wrapped name up in its owner's namespace, so a
    # name the benchmark's tracer wraps that is deleted or renamed fails
    # here, not only in the traced benchmark run
    from qcx import parallel

    tracer = _tracer()
    tracer.install()
    patches = list(tracer._patches)
    tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, attr
    assert parallel.thread_count() == 1


def test_traced_run_sees_branch_tracking_of_both_callers(tmp_path, capsys, monkeypatch):
    # the tracer counts the per-point tracked_log calls made through
    # qcx.criteria's and qcx.loewner's names, and the evaluations inside
    # qcx.branches.tracked_log.  Block queries of the lattices call neither,
    # and no lattice falls back on tracked_log, so every count reads 0
    from qcx import criteria, loewner

    fallback = []
    scalar = branches.tracked_log
    monkeypatch.setattr(branches, "tracked_log",
                        lambda *args, **kwargs: fallback.append(args) or scalar(*args, **kwargs))
    halvings = _halvings(monkeypatch)

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
    # a catalog companion Q keeps the lattice; with the identity the
    # spiral's ratio has a closed form
    catalog_q = {"kind": "catalog", "extension_dilatation": 0.0,
                 "base": {"kind": "polynomial", "coefficients": [[0.05, 0.0]]}}
    spiral = scenario("spiral", {"kind": "spiral", "lam": 1.2}, catalog_q)
    tracer = _tracer()
    tracer.install()
    try:
        assert main(["check", "--scenario", poly]) == 0
        assert main(["extend", "--scenario", poly]) == 0
        quiet = tracer.pass_metrics()
        assert halvings == []  # the identity companion's ratio takes no lattice
        assert main(["check", "--scenario", spiral]) == 1
        assert main(["extend", "--scenario", spiral]) == 1
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert fallback == [] and halvings  # the spiral's lattice walked
    for m in (quiet, metrics):
        assert m["branches.calls.criteria"] == m["branches.calls.loewner"] == 0
        assert m["branches.self_s"] == 0
        assert m["branches.evals"] == m["branches.max_steps"] == 0
        assert m["branches.pass_efficiency"] == 1
    assert criteria.tracked_log is loewner.tracked_log is scalar
