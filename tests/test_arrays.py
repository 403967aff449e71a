"""The array path: chains, extensions, sector maps and the Beltrami stencil
evaluated on blocks of points against per-point scalar calls, the guards on
arrays, the block structure of chain validation, the CLI's output files
against a recording made before the array path existed, and the traced
run's view of this path."""

import cmath
import hashlib
import importlib.util
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcx import (
    AnnulusGrid,
    BranchLattice,
    CayleyMap,
    CompanionMap,
    CriterionParams,
    DiskGrid,
    DomainError,
    ExtensionMap,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    PreconditionError,
    ScaledMap,
    SectorDomain,
    SectorExtension,
    SpiralMap,
    beltrami_on_grid,
    build_chain,
    companion_from_sector,
    default_times,
    evaluate_criterion,
    fit_sector,
    p_extension,
    p_extension_inverse,
    u_disk_margin,
    validate_chain,
    wirtinger,
)
from qcx import cli
from qcx.cli import main, write_csv
from qcx.criteria import sup_over_grid
from qcx.grids import BLOCK, blocks
from qcx.loewner import CONSTRUCTIONS
from qcx.svg import write_heatmap_svg

ROOT = Path(__file__).resolve().parents[1]
H = 1e-5
TIMES = (0.0, 0.7, 1.9)


def _close(a, b, tol=1e-12):
    """a matches b to `tol` relative (a non-finite b must be matched exactly)."""
    a, b = complex(a), complex(b)
    if not (math.isfinite(abs(b))):
        return a == b or (math.isnan(abs(a)) and math.isnan(abs(b)))
    return abs(a - b) <= tol * abs(b) + 1e-300


def _assert_matches(array_values, scalar_values, tol=0):
    """Elementwise agreement, exact by default: a point is evaluated as a
    one-element array, so it gets its element of a block to the bit."""
    assert len(array_values) == len(scalar_values)
    for i, (a, b) in enumerate(zip(array_values, scalar_values)):
        assert _close(a, b, tol), (i, a, b)


def _stencil(points):
    return np.array([w + d for w in points for d in (H, -H, 1j * H, -1j * H)])


def _circle(n=24):
    return np.exp(2j * np.pi * np.arange(n) / n)


# -- chains: every construction x catalog f x companion ------------------------------

FUNCTIONS = {
    "polynomial": PolynomialMap([1, 0.25, -0.03j]),
    "scaled_cayley": ScaledMap(CayleyMap(), 3.0),
    "spiral": SpiralMap(0.6),
}
MOEBIUS = CompanionMap.from_moebius(MoebiusMap(1, 0, 0.2, 1))  # Q(0) = 0


def _companions(f):
    companions = {"identity": CompanionMap.identity(), "moebius": MOEBIUS}
    try:  # a sector around the image of f
        companions["sector"] = companion_from_sector(fit_sector(f, -4.0)[0])
    except PreconditionError:  # the spiral's image is unbounded
        pass
    return companions


def _chain_cases():
    """Every combination whose chain can be built: phi_like and bazilevic
    need Q(0) = 0, which the normalized sector companion breaks, and no
    sector contains the spiral's image."""
    cases = []
    for fname, f in FUNCTIONS.items():
        for qname, q in _companions(f).items():
            for construction in CONSTRUCTIONS:
                try:
                    chain = build_chain(construction, f, q,
                                        CriterionParams(s=1.2 + 0.4j, c=0.3))
                except PreconditionError:
                    continue
                cases.append(pytest.param(chain, id=f"{construction}-{fname}-{qname}"))
    return cases


CHAINS = _chain_cases()


def test_chain_cases_cover_every_construction_function_and_companion():
    ids = [case.id for case in CHAINS]
    assert {i.split("-")[0] for i in ids} == set(CONSTRUCTIONS)
    assert {i.split("-")[1] for i in ids} == set(FUNCTIONS)
    assert {i.split("-")[2] for i in ids} == {"identity", "moebius", "sector"}
    assert len(ids) == 4 * 3 * 2 + 2 * 2  # sector: gen_becker and nw, no spiral


def _chain_points(chain):
    """Disk points (the origin ring included), unit-circle points pulled in
    like the extension pulls them, and the stencil points around them."""
    radius = 1 - 1e-6 if chain.f.analyticity_radius <= 1 else 1.0
    circle = radius * _circle()
    if chain.f.analyticity_radius <= 1:  # the spiral blows up at z = 1
        circle = circle[np.abs(circle - 1) > 1e-3]
    disk = DiskGrid(5, 12, 1e-2).points()
    return np.concatenate([disk, circle, 0.9 * _stencil(circle[:6])])


@pytest.mark.parametrize("chain", CHAINS)
def test_chain_value_is_the_value_of_its_partials_to_the_bit(chain):
    # the extension reads F alone, through value, which skips the partials:
    # the chain's points (the origin ring among them) and the stencil samples
    # around a disk grid, against a column of times, an array of times and
    # one time
    z = np.concatenate([_chain_points(chain), _stencil(DiskGrid(5, 12, 1e-2).points())])
    assert (z == 0).any()
    col = np.array(TIMES)[:, None]
    for t in (col, np.linspace(0.0, 1.9, len(z)), 0.7):
        assert np.array_equal(chain.value(z, t), chain.partials(z, t).value, equal_nan=True)
    assert chain.value(0j, 0.7) == chain.partials(0j, 0.7).value


@pytest.mark.parametrize("chain", CHAINS)
def test_chain_partials_and_ratio_match_scalar_calls(chain):
    z = _chain_points(chain)
    for t in TIMES:
        part = chain.partials(z, t)
        ratio = chain.transition_ratio(z, t, part=part)
        scalar = [chain.partials(complex(w), t) for w in z]
        _assert_matches(part.value, [s.value for s in scalar])
        _assert_matches(part.dt, [s.dt for s in scalar])
        _assert_matches(part.zdz, [s.zdz for s in scalar])
        _assert_matches(ratio, [chain.transition_ratio(complex(w), t) for w in z])
        _assert_matches(chain.transition_ratio(z, t), ratio)
    # an array of times, one per point, as the extension uses them
    t = np.linspace(0.0, 1.9, len(z))
    _assert_matches(chain.value(z, t), [chain.value(complex(w), s) for w, s in zip(z, t)])
    _assert_matches([chain.a1(s) for s in TIMES], chain.a1(np.array(TIMES)))


@pytest.mark.parametrize("chain", CHAINS)
def test_extension_matches_scalar_calls(chain):
    ext = ExtensionMap(chain)
    annulus = AnnulusGrid(4, 12, 1.001, 3.0).points()
    w = np.concatenate([DiskGrid(4, 12, 0.05).points(), annulus, _circle(),
                        _stencil(annulus[:12])])
    if chain.f.analyticity_radius <= 1:
        # away from z = 1, where the spiral blows up, and off |w| = 1: there
        # the last bit of |w|, which numpy and Python may round differently,
        # picks the branch, and the two branches differ by the clamp
        r = np.abs(w)
        w = w[(np.abs(w / np.maximum(r, 1) - 1) > 1e-3) & (np.abs(r - 1) > 1e-12)]
    _assert_matches(ext(w), [ext(complex(v)) for v in w])
    _assert_matches(ext.on_blocks(np.tile(w, 3)), np.tile(ext(w), 3))


KOEBE_CHAINS = [pytest.param(build_chain(c, KoebeMap(), CompanionMap.identity(),
                                         CriterionParams(s=1.2 + 0.4j, c=0.3)),
                             id=f"{c}-koebe-identity") for c in CONSTRUCTIONS]


def _by_region(chain, w):
    """fhat region by region: F(w, 0) on the disk, one chain call, and
    F(w/|w|, log |w|) off it, w/|w| clamped to radius 1 - 1e-6 when the
    chain is analytic only on the disk, another."""
    r = np.abs(w)
    inside = r < 1
    out = np.empty(w.shape, complex)
    out[inside] = chain.value(w[inside], 0.0)
    zb = w[~inside] / r[~inside]
    if chain.analyticity_radius <= 1:
        zb = zb * (1 - 1e-6)
    out[~inside] = chain.value(zb, np.log(r[~inside]))
    return out


def _mixed_block(chain):
    """Disk points with the origin, both sides of |w| = 1 at 1e-7, points on
    it and annulus points, away from w = 1 for a map that blows up there."""
    circle = _circle(32)
    w = np.concatenate([DiskGrid(4, 12, 0.05).points(), (1 - 1e-7) * circle, circle,
                        (1 + 1e-7) * circle, AnnulusGrid(4, 12, 1.001, 3.0).points()])
    if chain.f.analyticity_radius <= 1:
        w = w[np.abs(w / np.maximum(np.abs(w), 1) - 1) > 1e-3]
    return w


@pytest.mark.parametrize("chain", CHAINS + KOEBE_CHAINS)
def test_extension_is_its_two_regions_to_the_bit(chain):
    # fhat evaluates every point of a block in one chain call, each at its
    # own argument and time; that gives what a call per region gives
    w = _mixed_block(chain)
    assert (np.abs(w) < 1).any() and (np.abs(w) >= 1).any()
    assert np.array_equal(ExtensionMap(chain)(w).view(float), _by_region(chain, w).view(float))


@pytest.mark.parametrize("chain", KOEBE_CHAINS + [
    c for c in CHAINS if c.id.endswith("-polynomial-moebius")])
def test_extension_calls_its_chain_once_a_block(chain, monkeypatch):
    w = np.tile(_mixed_block(chain), 40)
    expected = ExtensionMap(chain).on_blocks(w)
    calls = []
    value = chain.value
    monkeypatch.setattr(chain, "value", lambda z, t: calls.append(len(z)) or value(z, t))
    fhat = ExtensionMap(chain).on_blocks(w)
    assert calls == [len(b) for b in blocks(w)] and len(calls) > 1
    assert np.array_equal(fhat.view(float), expected.view(float))


# -- the sector maps -----------------------------------------------------------------


def _ray_points(angle, radii=(0.3, 1.0, 2.5)):
    return np.array([cmath.rect(r, angle) for r in radii])


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 1.25, 1.75])
def test_p_extension_and_inverse_match_scalar_calls(a):
    z = np.concatenate([
        [0j], DiskGrid(4, 12, 0.05).points(), AnnulusGrid(3, 12, 1.001, 3.0).points(),
        _ray_points(0.0), _ray_points(math.pi * a), _ray_points(math.pi),
        _stencil(_ray_points(math.pi * a)),
        [complex(1, -0.0), complex(-1, -0.0), complex(-0.0, 1), complex(-0.0, -1)],
    ])
    v = p_extension(a, z)
    _assert_matches(v, [p_extension(a, complex(w)) for w in z])
    _assert_matches(p_extension_inverse(a, v), [p_extension_inverse(a, complex(u)) for u in v])
    # the real axis is the inverse's seam
    axis = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], complex)
    _assert_matches(p_extension_inverse(a, axis), [p_extension_inverse(a, u) for u in axis])


@pytest.mark.parametrize("normalized", [False, True])
def test_sector_extension_matches_scalar_calls(normalized):
    sector = SectorDomain(-2, 11 / 6, 1 / 3)
    ext = SectorExtension(sector, normalized=normalized)
    edges = [math.pi * sector.lambda0, math.pi * (sector.lambda0 + sector.a)]
    grid = np.concatenate([DiskGrid(4, 12, 0.05).points(),
                           AnnulusGrid(3, 12, 1.001, 3.0).points()])
    rays = np.concatenate([*(sector.w0 + _ray_points(e) for e in edges),
                           _stencil(sector.w0 + _ray_points(edges[1]))])
    w = np.concatenate([grid, rays])
    v = ext(w)
    _assert_matches(v, [ext(complex(u)) for u in w])
    _assert_matches(ext.inverse(v), [ext.inverse(complex(u)) for u in v])
    # the seam indicators are angles and imaginary parts that vanish on the
    # seams: a point's is its element of the block, to the bit
    for got, want in ((ext.seam_indicator(w), [ext.seam_indicator(complex(u)) for u in w]),
                      (ext.image_seam(v), [ext.image_seam(complex(u)) for u in v])):
        assert np.array_equal(got, want)
    # off the rays, where an ulp of the angle cannot decide it, containment agrees
    inside = sector.contains(grid)
    assert inside.any() and not inside.all()
    assert list(inside) == [sector.contains(complex(u)) for u in grid]
    q2 = companion_from_sector(sector).base
    _assert_matches(q2.jet(grid[inside]).d2, [q2.jet(complex(u)).d2 for u in grid[inside]])


# -- the stencil ---------------------------------------------------------------------


def _per_point_beltrami(f, points, h, seam=None):
    """sup |mu|, flagged and skipped from one wirtinger call per point."""
    sup, flagged, skipped = 0.0, [], []
    for i, z in enumerate(points):
        if seam is not None:
            signs = {math.copysign(1.0, seam(np.array([z + d]))[0])
                     for d in (h, -h, 1j * h, -1j * h)}
            if len(signs) > 1:
                skipped.append(i)
                continue
        dz, dzb = wirtinger(f, z, h)
        if abs(dz) < 1e-10:
            flagged.append(i)
            continue
        sup = max(sup, abs(dzb / dz))
    return sup, tuple(flagged), tuple(skipped)


def _sector_composition():
    """The composed extension of the sector scenario and its image seam."""
    sector, _ = fit_sector(IdentityMap(), -2, radius=1.0)
    params = CriterionParams(k=0.65, w0=sector.w0, lambda0=sector.lambda0, a=sector.a)
    ext = ExtensionMap(build_chain("nw", IdentityMap(),
                                   companion_from_sector(sector), params))
    sext = SectorExtension(sector, normalized=True)
    return lambda w: sext.inverse(ext(w)), lambda w: sext.image_seam(ext(w))


@pytest.mark.parametrize("case", ["nw", "conjugate", "composed", "sector_seam"])
def test_beltrami_on_grid_matches_per_point_wirtinger(case):
    grid = AnnulusGrid(BLOCK // (4 * 60) + 2, 60, 1.001, 3.0)  # two blocks of stencils
    seam = None
    if case == "nw":
        f = ExtensionMap(build_chain("nw", PolynomialMap([1, 0.25]),
                                     CompanionMap.identity()))
    elif case == "conjugate":
        f = lambda z: np.where(z.real > 0, z.conjugate(), z)  # noqa: E731
    elif case == "composed":
        f, seam = _sector_composition()
    else:  # the quarter-plane extension is not smooth on the rays arg w = 0, pi/2
        f = SectorExtension(SectorDomain(0, 0, 0.5))
        seam = f.seam_indicator
    est = beltrami_on_grid(f, grid, H, seam)
    sup, flagged, skipped = _per_point_beltrami(f, grid.points(), H, seam)
    assert abs(est.sup_abs_mu - sup) <= 1e-9
    assert (est.flagged, est.skipped) == (flagged, skipped)
    assert (len(flagged) > 0) == (case == "conjugate")
    assert (len(skipped) > 0) == (case == "sector_seam")


# -- guards on arrays ------------------------------------------------------------------


def test_array_guards_name_the_first_offending_point():
    w = np.array([0.5, 2.0, 3.0 + 1j, 2.0, -1.0], complex)
    with pytest.raises(DomainError, match=r"Moebius pole at w = \(2\+0j\)"):
        MoebiusMap.with_pole(2.0)(w)
    with pytest.raises(DomainError, match=r"Moebius inverse pole at w = \(-1\+0j\)"):
        MoebiusMap(1, 0, -1, 1).inverse(w)  # -gamma w + alpha vanishes at w = -1
    with pytest.raises(DomainError, match=r"\|z\| = 2 outside analyticity radius 1"):
        KoebeMap().jet(w)
    with pytest.raises(DomainError, match=r"pole of a quotient node at z = \(3\+1j\)"):
        (IdentityMap() / (IdentityMap() - (3 + 1j))).jet(w)
    sector = SectorDomain(-2, 11 / 6, 1 / 3)  # opening pi/3 around the real axis
    with pytest.raises(DomainError, match=r"w = 3j outside the sector domain"):
        companion_from_sector(sector).jet(np.array([0.5, 3j, -3.0, 3j]))


def test_stencil_pole_is_a_named_failure_not_a_warning():
    grid = np.array([2.0, 2.5j, 1.7 + 0j, -2.0])
    f = lambda z: 1 / (z - (1.7 + H))  # noqa: E731  the third point's east sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite sample in Wirtinger stencil at "
                                             r"\(1\.7\+0j\)"):
            beltrami_on_grid(f, grid, H)


# -- chain validation evaluates every time of a block of points in one call ---------------


def test_validation_evaluates_partials_once_per_block_of_points(monkeypatch):
    chain = build_chain("bazilevic", PolynomialMap([1, 0.25]), CompanionMap.identity(),
                        CriterionParams(s=1 + 0.5j))
    calls = {"partials": 0, "ratio": 0, "branch": 0}
    for name, key in (("partials", "partials"), ("transition_ratio", "ratio"),
                      ("branch_data", "branch")):
        original = getattr(chain, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(chain, name, counted)
    times = default_times(2.0, 21)
    grid = DiskGrid(16, 32, 1e-3)
    val = validate_chain(chain, grid, times)
    assert val.ok
    n_blocks = len(blocks(grid.points(), len(times)))
    assert n_blocks == -(-len(grid.points()) // (BLOCK // len(times))) > 1
    assert calls == {"partials": n_blocks, "ratio": n_blocks, "branch": n_blocks}


def _first_least(x, zt):
    """The least entry of a (time x point) array and the (z, t) of its first
    entry, times outer, within 1e-12 * max(1, |least|) of it: the one tie
    rule, written out here; (inf, (0j, 0.0)) when p is finite nowhere."""
    low = float(x.min(initial=math.inf))
    if low == math.inf:
        return low, (0j, 0.0)
    near = np.flatnonzero(x.ravel() <= low + 1e-12 * max(1.0, abs(low)))
    return low, zt[near[0]]


def _per_time_validation(chain, grid, times, bound):
    """validate_chain's minima, growth and non-finite failures the way it
    found them before it took a column of times: the times outer, each one
    call on the whole grid.  The minima are read off the (time x point)
    arrays of Re p and the U(k) margin, inf where p is not finite."""
    pts = grid.points()
    re_rows, um_rows, zt, growth = [], [], [], 0.0
    failures = []
    for t in times:
        a1 = chain.a1(t)
        if a1 == 0:
            failures.append(f"a1({t}) = 0")
            continue
        part = chain.partials(pts, t)
        p = chain.transition_ratio(pts, t, part=part)
        g = np.abs(part.value) / abs(a1)
        p_ok, g_ok = np.isfinite(p), np.isfinite(g)
        for i in np.flatnonzero(~(p_ok & g_ok)):
            what = "|F/a1|" if p_ok[i] else "transition ratio"
            failures.append(f"{what} not finite at z={pts[i]!r}, t={t}")
        re_rows.append(np.where(p_ok, p.real, math.inf))
        um_rows.append(np.where(p_ok, u_disk_margin(np.where(p_ok, p, 0), bound), math.inf))
        zt += [(z, t) for z in pts.tolist()]
        growth = max(growth, float(g.max(initial=0.0, where=p_ok & g_ok)))
    re_min, re_arg = _first_least(np.array(re_rows), zt)
    um_min, um_arg = _first_least(np.array(um_rows), zt)
    return re_min, re_arg, um_min, um_arg, growth, tuple(failures)


@pytest.mark.parametrize("chain", CHAINS)
def test_validation_matches_the_per_time_reference_to_the_bit(chain):
    grid, times = DiskGrid(16, 32, 1e-3), default_times(2.0, 21)
    points = blocks(grid.points(), len(times))
    assert len(points) > 1
    val = validate_chain(chain, grid, times, dilatation_bound=0.5)
    re_min, re_arg, um_min, um_arg, growth, failures = \
        _per_time_validation(chain, grid, times, 0.5)
    assert (val.re_p_min, val.re_p_argmin) == (re_min, re_arg)
    assert (val.u_margin_min, val.u_margin_argmin) == (um_min, um_arg)
    assert val.growth_max == growth
    assert val.failures[:len(failures)] == failures
    # a column of times gives each time's row of the per-time call, to the bit
    col = np.array(times)[:, None]
    z = points[0]  # the origin ring's block
    part = chain.partials(z, col)
    rows = [chain.partials(z, t) for t in times]
    for name in ("value", "dt", "zdz"):
        assert np.array_equal(getattr(part, name), [getattr(r, name) for r in rows],
                              equal_nan=True), name
    assert np.array_equal(chain.transition_ratio(z, col, part=part),
                          [chain.transition_ratio(z, t, part=r) for t, r in zip(times, rows)],
                          equal_nan=True)


def test_no_array_call_sees_more_than_block_samples(tmp_path, monkeypatch):
    sizes = {"scan": [], "jet": [], "lattice": [], "validate": [], "extension": [],
             "stencil": [], "csv": []}
    grid = DiskGrid(128, 256)
    sup_over_grid(lambda z: sizes["scan"].append(z.size) or np.abs(z), grid, 10.0)

    # the values of these criteria evaluate f on each block they check the
    # image of
    jet, key = PolynomialMap.jet, ["jet"]
    monkeypatch.setattr(PolynomialMap, "jet",
                        lambda self, z: sizes[key[0]].append(np.size(z)) or jet(self, z))
    for criterion, params in (
            ("moebius_becker", CriterionParams(k=0.9, c2=-3.0)),
            ("moebius_nw", CriterionParams(k=0.6, gamma=0.2, delta=1.0)),
            ("sector_becker", CriterionParams(k=0.65, w0=-2.0, lambda0=11 / 6, a=1 / 3))):
        evaluate_criterion(criterion, PolynomialMap([1, 0.2]), None, params, grid)

    # the Q o f ratio of a companion other than the identity keeps a
    # lattice, whose walks evaluate f on their samples and the rule's nodes
    # (100 angles miss most of the lattice's 256 rays)
    key[0] = "lattice"
    lattices = []
    grow = BranchLattice._grow
    monkeypatch.setattr(BranchLattice, "_grow",
                        lambda self, *args: lattices.append(self) or grow(self, *args))
    evaluate_criterion("bazilevic", PolynomialMap([1, 0.1]), MOEBIUS,
                       CriterionParams(s=1 + 0.5j), DiskGrid(80, 100))
    monkeypatch.setattr(PolynomialMap, "jet", jet)
    heights = lattices[0]._height
    assert (heights[np.unique(np.round(np.arange(100) * 2.56).astype(int) % 256)] == 48).all()

    chain = build_chain("nw", PolynomialMap([1, 0.25]), CompanionMap.identity())

    def counted(caller, method):
        def call(z, t):
            sizes[caller].append(np.broadcast(z, t).size)
            return method(z, t)
        return call

    # validation reads the partials, the extension the chain's value alone
    monkeypatch.setattr(chain, "partials", counted("validate", chain.partials))
    monkeypatch.setattr(chain, "value", counted("extension", chain.value))
    times = default_times(2.0, 21)
    validate_chain(chain, grid, times)
    ExtensionMap(chain).on_blocks(AnnulusGrid(128, 256, 1.001, 3.0).points())

    beltrami_on_grid(lambda z: sizes["stencil"].append(z.size) or z + 0.1 * z.conjugate(),
                     AnnulusGrid(128, 256, 1.001, 3.0))

    format_block = cli._format_block
    monkeypatch.setattr(cli, "_format_block",
                        lambda x, seps: sizes["csv"].append(x.size) or format_block(x, seps))
    write_csv(str(tmp_path / "t.csv"), ["a", "b", "c", "d", "e"],
              np.zeros((grid.points().size, 5)))
    # every block is as large as its fan-out allows
    assert max(sizes["scan"]) == BLOCK
    assert max(sizes["jet"]) == BLOCK
    assert BLOCK // 2 < max(sizes["lattice"]) <= BLOCK
    assert max(sizes["validate"]) == BLOCK // len(times) * len(times)
    assert max(sizes["extension"]) == BLOCK
    assert max(sizes["stencil"]) == BLOCK
    # the CSV writer's blocks hold half a BLOCK of floats, which keeps its
    # temporaries resident between blocks: 409 rows of 5
    assert max(sizes["csv"]) == BLOCK // 2 // 5 * 5 == 2045


# -- CLI output files against a recording made before the array path ---------------------

DATA = ROOT / "tests" / "data" / "parent_cli"
# sha256 of the recorded files: extend --out and beltrami --out --svg of the
# two scenarios below, written by the per-point implementation
RECORDED = {
    "nw_extension.csv": "a712efe5120d4d938141ac80be01016a4459aaf1f2ee9086bff782044f248921",
    "nw_beltrami.csv": "07331f53adb4be8d5dcf9cb4d8d5d98b072bac54c2cf5df49a3dc42b4a56572f",
    "nw_beltrami.svg": "48309e12fe7c0f98e06edf6b3e06c3bbb4da1f389080a16529326c6a7d3ed165",
    "sector_extension.csv": "ac12b33afff145ed2367846c1efc807424cf38db0a4760510be5b29e89c71214",
    "sector_beltrami.csv": "9bf9e455235f46340b5c28f5963f2c45223c2a4adc3bb1b85f0320dc57b3260b",
    "sector_beltrami.svg": "286a6fdf20fe385d4bcda1cc10d9aa6a8f629c7faa5bf49fbaf305db006e6cf5",
}
SECTOR = {"w0": [-2.0, 0.0], "lambda0": 1.8333333333333333, "a": 0.3333333333333333}
TINY = {"grid": {"radial": 8, "angular": 16},
        "annulus": {"radial": 6, "angular": 12, "inner": 1.001, "outer": 3.0},
        "times": {"t_max": 2.0, "count": 5}}
SCENARIOS = {
    "nw": dict(version=1, function={"kind": "polynomial", "coefficients": [[0.25, 0.0]]},
               companion={"kind": "identity"}, criterion="nw",
               params={"k": 0.5, "k_prime": 0.34}, **TINY),
    "sector": dict(version=1, function={"kind": "polynomial", "coefficients": [[0.1, 0.0]]},
                   companion=dict(kind="sector", **SECTOR), criterion="sector_nw",
                   params=dict(k=0.75, **SECTOR), **TINY),
}


def _run_tiny_scenarios(out):
    for name, doc in SCENARIOS.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(dict(doc, output={"prefix": name})))
        assert main(["extend", "--scenario", str(path), "--out", str(out)]) == 0
        assert main(["beltrami", "--scenario", str(path), "--out", str(out), "--svg"]) == 0


def _csv(text):
    lines = text.splitlines()
    return lines[0], [row.split(",") for row in lines[1:]]


def test_cli_outputs_match_the_recording(tmp_path, capsys):
    """Everything but the evaluated numbers is byte-identical; those moved
    only by rounding.  numpy's complex kernels round differently from
    Python's complex arithmetic (fused multiply-add, a reciprocal in the
    division), so fhat moves by an ulp and mu, a difference quotient with
    h = 1e-5, by up to 1e-10; a colour rounded from such a mu may then
    move by one step."""
    _run_tiny_scenarios(tmp_path)
    capsys.readouterr()
    for name, digest in RECORDED.items():
        recorded = (DATA / name).read_bytes()
        assert hashlib.sha256(recorded).hexdigest() == digest
        new = (tmp_path / name).read_text()
        if name.endswith(".svg"):
            lines, old_lines = new.splitlines(), recorded.decode().splitlines()
            assert len(lines) == len(old_lines)
            fill = re.compile(r'fill="#([0-9a-f]{6})"')
            for line, old in zip(lines, old_lines):
                assert fill.sub("", line) == fill.sub("", old)
                for a, b in zip(fill.findall(line), fill.findall(old)):
                    assert all(abs(int(a[i:i + 2], 16) - int(b[i:i + 2], 16)) <= 1
                               for i in (0, 2, 4)), (name, line, old)
            continue
        _assert_csv_matches(new, recorded.decode(), 1e-12 if "extension" in name else 1e-9)


def _assert_csv_matches(new, recorded, tol):
    """Header, sample points and row count byte-equal; values to `tol`."""
    header, rows = _csv(new)
    old_header, old_rows = _csv(recorded)
    assert header == old_header and len(rows) == len(old_rows)
    for row, old in zip(rows, old_rows):
        assert row[:2] == old[:2]  # the sample points, digit for digit
        for x, y in zip(row[2:], old[2:]):
            x, y = float(x), float(y)
            assert (math.isnan(x) and math.isnan(y)) or abs(x - y) <= tol * max(1, abs(y))


# sha256 of `check --out` of two scenarios on a two-block grid (10x56 plus the
# 81-point patch), written by the per-point criterion scan
CHECK_RECORDED = {
    "nw_check.csv": "32ec40fd86b5f65f9800a48504cfd77d1a07901e2d8b14edf10c0dd52f1f5be9",
    "sector_becker_check.csv":
        "55d85c6c05d651dbc3ef528f3fcaaac6a9f27628e75dbebc32e0e7d07130493f",
}
CHECK_GRID = {"grid": {"radial": 10, "angular": 56}}
CHECK_SCENARIOS = {
    "nw": dict(SCENARIOS["nw"], **CHECK_GRID),
    "sector_becker": dict(version=1, function={"kind": "polynomial",
                                               "coefficients": [[0.1, 0.0]]},
                          criterion="sector_becker", params=dict(k=0.65, **SECTOR),
                          **CHECK_GRID),
}


def test_check_outputs_match_the_recording(tmp_path, capsys):
    """The block scan writes the per-point scan's table: the same points in
    the same order, the values within 1e-12."""
    for name, doc in CHECK_SCENARIOS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(doc, output={"prefix": name})))
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in CHECK_RECORDED.items():
        recorded = (DATA / name).read_bytes()
        assert hashlib.sha256(recorded).hexdigest() == digest
        _assert_csv_matches((tmp_path / name).read_text(), recorded.decode(), 1e-12)


def test_writers_are_byte_identical_to_the_recording(tmp_path):
    # the writers' output for fixed inputs, recorded with the per-point
    # write_csv and the per-cell write_heatmap_svg
    values = [(i * 0.618033988749895) % 1.0 for i in range(60)]
    rows = [(v, -v * 1e-7, v * 3e5, 1 / (v + 1)) for v in values]
    rows += [(0.0, -0.0, math.inf, -math.inf), (math.nan, 5e-324, 1.5, 3.0)]
    grid = np.array([((i * 7 + j * 3) % 17) / 16 for i in range(9) for j in range(20)])
    grid = grid.reshape(9, 20)
    grid[2, 5] = np.nan
    write_csv(str(tmp_path / "w.csv"), ["a", "b", "c", "d"], rows)
    write_csv(str(tmp_path / "a.csv"), ["a", "b", "c", "d"], np.array(rows))
    write_heatmap_svg(str(tmp_path / "w.svg"), np.linspace(1.001, 3.0, 9),
                      np.linspace(0, 6, 20), grid, title="t")

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert digest("w.csv") == digest("a.csv") == \
        "8914f4d3ffdf10a704bf8d02ecd119e4945d13ffd3255ff83f18f0c9e4a67e25"
    assert digest("w.svg") == \
        "d9fae0bd5808c36656e39b6a488646b03825ce8a862b260feff58afe469ab93f"


# -- the traced run's contract -------------------------------------------------------------


def test_traced_run_sees_the_extension_and_stencil_layers(tmp_path, capsys):
    # the tracer wraps ordered_map in loewner and qcverify, transition_ratio,
    # ExtensionMap.__call__, the f handed to wirtinger and cli.write_csv; a
    # refactor that stops going through those names reads 0 here
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        _run_tiny_scenarios(tmp_path)
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for key in ("parallel.items", "loewner.ratio_evals", "loewner.extension_evals",
                "qcverify.stencil_evals", "cli.csv_bytes"):
        assert metrics[key] > 0, key
