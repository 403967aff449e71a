"""The shared branch lattice: differential tests against the per-point
tracking from the origin, a property test against a dense unwrapped-phase
reference, conjugate symmetry, and the traced-run contract."""

import cmath
import importlib.util
import json
import math
import random
import sys
import threading
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
    gen_bazilevic_value,
    sector_nw_value,
    tracked_log,
    u_disk_margin,
    validate_chain,
)
from qcx.branches import BranchLattice
from qcx.cli import main
from qcx.criteria import CRITERIA, _refined_neighborhood
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


@pytest.mark.parametrize("f, q, p", [
    (PolynomialMap([1, 0.2, -0.04j]), CompanionMap.identity(), None),
    (PolynomialMap([1, 0.15]), MOEBIUS_Q, PolynomialMap([1, 0.1])),
    (ScaledMap(CayleyMap(), 3.0), MOEBIUS_Q, None),
    (SpiralMap(0.6), CompanionMap.identity(), KoebeMap()),
], ids=["poly-identity", "poly-moebius-poly_p", "cayley-moebius",
        "spiral-koebe_p"])
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


# -- property test: a dense unwrapped-phase reference ------------------------------------


def _twisted_spiral(lam, c):
    """w -> (f(w)/w) e^{icw} for the spiral map f: its log winds |c| + O(1)."""
    spiral = SpiralMap(lam)

    def fn(w):
        return spiral.jet(w).value / w * cmath.exp(1j * c * w)

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


def test_threads_querying_one_lattice_walk_each_ray_once():
    # threaded scans (QCX_THREADS > 1) share a lattice: a ray extended by two
    # threads at once would hold a duplicated or misplaced node
    fn, _ = _twisted_spiral(0.9, 40.0)
    points = list(DiskGrid(12, 64, 1e-3).points())
    serial = BranchLattice(fn, 0j)
    for z in points:
        serial.continue_from(z)
    shared = BranchLattice(fn, 0j)
    results = []

    def work(seed):
        order = points[:]
        random.Random(seed).shuffle(order)
        results.append([tracked_log(shared.fn, z, **shared.continue_from(z))
                        for z in order])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 8
    assert shared._logs == serial._logs


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


def test_traced_run_sees_branch_tracking_of_both_callers(tmp_path, capsys):
    # the tracer wraps qcx.criteria.tracked_log and qcx.loewner.tracked_log;
    # a refactor that stops calling through those names reads 0 here
    from qcx import branches, criteria, loewner

    doc = {"version": 1,
           "function": {"kind": "polynomial", "coefficients": [[0.25, 0.0]]},
           "companion": {"kind": "identity"}, "criterion": "bazilevic",
           "params": {"s": [1.0, 0.5]}, "grid": {"radial": 8, "angular": 16},
           "times": {"t_max": 2.0, "count": 5}}
    path = tmp_path / "bazilevic.json"
    path.write_text(json.dumps(doc))
    tracer = _tracer()
    tracer.install()
    try:
        assert main(["check", "--scenario", str(path)]) == 0
        assert main(["extend", "--scenario", str(path)]) == 0
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["branches.calls.criteria"] > 0
    assert metrics["branches.calls.loewner"] > 0
    assert metrics["branches.evals"] > 0
    assert criteria.tracked_log is loewner.tracked_log is branches.tracked_log
