"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance is pinned here and nowhere else; the library itself reports
strict values.
"""

import cmath
import json
import math
import random

import numpy as np
import pytest

from qcx import (
    AnnulusGrid,
    CayleyMap,
    CompanionMap,
    CriterionParams,
    DiskGrid,
    ExtensionMap,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    ScaledMap,
    SectorExtension,
    SpiralMap,
    beltrami_on_grid,
    build_chain,
    compose_dilatation,
    default_times,
    evaluate_criterion,
    stable_beltrami,
    u_disk_margin,
    validate_chain,
    wirtinger,
)
from qcx.cli import main as cli_main
from qcx.sector import SectorDomain

GRID = DiskGrid()  # the spec default: 64 radii toward 1, 128 angles


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE-{tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_01_identity_closure():
    f, q = IdentityMap(), CompanionMap.identity()
    rep_b = evaluate_criterion("gen_becker", f, q,
                               CriterionParams(k=0.0, k_prime=0.0, c=0j), GRID)
    rep_n = evaluate_criterion("nw", f, q,
                               CriterionParams(k=0.0, k_prime=0.0), GRID)
    ext = ExtensionMap(build_chain("gen_becker", f, q))
    mesh = AnnulusGrid(64, 128, 1.001, 3.0).points()
    worst = max(abs(ext(complex(w)) - complex(w)) for w in mesh)
    ok = rep_b.passed and rep_n.passed and worst < 1e-9
    verdict("01 identity-closure", ok, f"mesh deviation {worst:.2e}")
    assert rep_b.passed and rep_n.passed
    assert worst < 1e-9


def test_02_koebe_rejection():
    f, q = KoebeMap(), CompanionMap.identity()
    # independent oracle: the functional reduces to (1-|z|^2)(4z+2z^2)/(1-z^2)
    rng = random.Random(202)
    for _ in range(50):
        z = cmath.rect(rng.uniform(0, 0.99), rng.uniform(0, 2 * math.pi))
        from qcx import gen_becker_value

        v = gen_becker_value(f, q, 0j, z)
        oracle = (1 - abs(z) ** 2) * (4 * z + 2 * z * z) / (1 - z * z)
        assert abs(v - oracle) < 1e-9 * (1 + abs(oracle))
    results = []
    sup = None
    for kp in (0.0, 0.25, 0.5, 0.75, 0.99):
        rep = evaluate_criterion("gen_becker", f, q,
                                 CriterionParams(k=kp, k_prime=kp, c=0j), GRID)
        results.append(not rep.passed)
        sup = rep.sup_value
    ok = all(results) and sup >= 5.9
    verdict("02 koebe-rejection", ok, f"sup {sup:.4f} (limit 6)")
    assert all(results)
    assert sup >= 5.9


def test_03_moebius_cancellation():
    f = CayleyMap()
    rep = evaluate_criterion("moebius_becker", f, None,
                             CriterionParams(k=0.5, c=0j, c2=-1 + 0j), GRID)
    q = CompanionMap.from_moebius(MoebiusMap.with_pole(-1))
    chain = build_chain("gen_becker", f, q, CriterionParams(k=0.5, k_prime=0.0, c=0j))
    val = validate_chain(chain, GRID, default_times(2.0, 21), dilatation_bound=1e-6)
    ext = ExtensionMap(chain)
    est = beltrami_on_grid(ext, AnnulusGrid(32, 64, 1.001, 3.0))
    ok = rep.sup_value < 1e-9 and val.ok and est.sup_abs_mu < 1e-3
    verdict("03 moebius-cancellation", ok,
            f"sup {rep.sup_value:.2e}, p-margin {val.u_margin_min:.2e}, "
            f"|mu| {est.sup_abs_mu:.2e}")
    assert rep.sup_value < 1e-9
    assert val.ok
    assert est.sup_abs_mu < 1e-3


def test_04_chain_ratio_identity():
    cases = [
        (IdentityMap(), None),
        (KoebeMap(), -0.3),
        (CayleyMap(), -0.7),
        (PolynomialMap([1, 0.2, 0.1]), -2.0),
        (SpiralMap(0.6), None),
        (ScaledMap(KoebeMap(), 8.0), -3.0),
    ]
    rng = random.Random(404)
    checked, worst = 0, 0.0
    for f, pole in cases:
        companions = [CompanionMap.identity()]
        if pole is not None:
            companions.append(CompanionMap.from_moebius(MoebiusMap.with_pole(pole)))
        for q in companions:
            for _ in range(11):
                c = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
                z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
                t = rng.uniform(0, 2)
                chain = build_chain("gen_becker", f, q,
                                    CriterionParams(k=0.9, k_prime=0.5, c=c))
                part = chain.partials(z, t)
                lhs = abs((part.dt - part.zdz) / (part.dt + part.zdz))
                u = math.exp(-t) * z
                jf = f.jet(u)
                jq = q.jet(jf.value)
                rhs = abs(c * math.exp(-2 * t) + (1 - math.exp(-2 * t))
                          * (u * jf.d2 / jf.d1 + u * jf.d1 * (jq.d2 / jq.d1)))
                err = abs(lhs - rhs) / (1 + rhs)
                worst = max(worst, err)
                checked += 1
    ok = checked >= 100 and worst <= 1e-9
    verdict("04 chain-ratio-identity", ok, f"{checked} samples, worst {worst:.2e}")
    assert checked >= 100
    assert worst <= 1e-9


REGRESSIONS = [
    ("id_becker_c", IdentityMap(), CompanionMap.identity(), "gen_becker",
     CriterionParams(k=0.5, k_prime=0.2, c=0.2 + 0j)),
    ("poly_nw", PolynomialMap([1, 0.25]), CompanionMap.identity(), "nw",
     CriterionParams(k=0.5, k_prime=0.34)),
    ("cancellation", CayleyMap(),
     CompanionMap.from_moebius(MoebiusMap.with_pole(-1)), "gen_becker",
     CriterionParams(k=0.5, k_prime=1e-6, c=0j)),
    ("scaled_koebe", ScaledMap(KoebeMap(), 8.0), CompanionMap.identity(),
     "gen_becker", CriterionParams(k=0.6, k_prime=0.6, c=0j)),
    ("poly_nw_moebius", PolynomialMap([1, 0.2]),
     CompanionMap.from_moebius(MoebiusMap(1, 0, 0.2, 1)), "nw",
     CriterionParams(k=0.6, k_prime=0.6)),
]


def test_05_criterion_implies_dilatation():
    details = []
    ok = True
    for name, f, q, criterion, params in REGRESSIONS:
        rep = evaluate_criterion(criterion, f, q, params, GRID)
        assert rep.passed, f"{name}: regression criterion must pass"
        kp = params.bound
        ext = ExtensionMap(build_chain(criterion, f, q, params))
        est, est_half, stable, delta = stable_beltrami(
            ext, AnnulusGrid(24, 48, 1.001, 3.0), 1e-5)
        good = est.sup_abs_mu <= kp + 2e-3 and stable
        ok = ok and good
        details.append(f"{name}: |mu| {est.sup_abs_mu:.4f} <= {kp}+2e-3, "
                       f"step-delta {delta:.1e}")
        assert stable, f"{name}: unstable under step halving"
        assert est.sup_abs_mu <= kp + 2e-3, f"{name}: {est.sup_abs_mu} > {kp}"
    verdict("05 criterion-implies-dilatation", ok, "; ".join(details))


def test_06_sector_extension_dilatation():
    details = []
    ok = True
    for a in (0.25, 0.5, 0.75, 1.0, 1.25):
        sec = SectorDomain(0, 0, a)
        ext = SectorExtension(sec)
        lo = math.pi * a
        stretch = [r * cmath.exp(1j * th)
                   for r in np.linspace(0.4, 2.0, 8)
                   for th in np.linspace(lo + 0.08 * (2 * math.pi - lo),
                                         2 * math.pi - 0.08 * (2 * math.pi - lo), 16)]
        est_s = beltrami_on_grid(ext, stretch, 1e-5)
        conf = [r * cmath.exp(1j * th)
                for r in np.linspace(0.4, 2.0, 6)
                for th in np.linspace(0.1 * lo, 0.9 * lo, 10)]
        est_c = beltrami_on_grid(ext, conf, 1e-5)
        gap = 0.0
        delta = 1e-11
        for rho in (0.3, 0.7, 1.2):
            for base in (0.0, lo):
                minus = ext(rho * cmath.exp(1j * ((base - delta) % (2 * math.pi))))
                plus = ext(rho * cmath.exp(1j * (base + delta)))
                gap = max(gap, abs(minus - plus))
        good = (abs(est_s.sup_abs_mu - abs(1 - a)) <= 2e-3
                and est_c.sup_abs_mu < 1e-6 and gap < 1e-9)
        ok = ok and good
        details.append(f"a={a}: stretch {est_s.sup_abs_mu:.5f} vs {abs(1-a)}, "
                       f"conformal {est_c.sup_abs_mu:.1e}, ray gap {gap:.1e}")
        assert abs(est_s.sup_abs_mu - abs(1 - a)) <= 2e-3
        assert est_c.sup_abs_mu < 1e-6
        assert gap < 1e-9
    verdict("06 sector-extension-dilatation", ok, "; ".join(details))


def test_07_composition_law():
    rng = random.Random(707)
    ok = True
    for _ in range(20):
        k = rng.uniform(0, 0.95)
        a = rng.uniform(0.05, 1.95)
        ell = (k + abs(1 - a)) / (1 + k * abs(1 - a))
        got = compose_dilatation(k, abs(1 - a))
        ok = ok and got == ell
        assert got == ell
    for k in (0.0, 0.3, 0.77):
        assert compose_dilatation(k, 0.0) == k
    verdict("07 composition-law", ok, "20 random (k, a) pairs exact, (k,0)->k")


def _special_case_margin(f, k=0.5, n=720):
    """min over a boundary ring of the U(k) margin of f'(z)(1 - f(z))."""
    worst = math.inf
    for j in range(n):
        z = 0.999 * cmath.exp(2j * math.pi * j / n)
        try:
            jf = f.jet(z)
        except Exception:
            return -math.inf
        worst = min(worst, u_disk_margin(jf.d1 * (1 - jf.value), k))
    return worst


def test_08_sector_special_case_vertex_one():
    """Vertex w0 = 1, opening a = 1/2: find a catalog map with positive
    f'(1-f) margin in U(0.5) and verify its composed extension at 0.8 + 5e-3.

    No admissible map exists: any analytic f with f(0) = 0, f'(0) = 1 into a
    sector with vertex at distance 1 and opening pi/2 is the sector's own
    Riemann map (conformal radius 1, Schwarz), whose criterion value
    1/(1+z)^2 has sup |v-1|/|v+1| = 1; dropping containment, the zero of
    (1-f)^2 = 1 - 2*integral(f'(1-f)) cannot leave the closed disk while the
    integrand stays in U(0.5) with value 1 at 0 (extremal families pin the
    zero exactly on |z| = 1).  The search below is kept honest and the test
    reports the unattainable premise as a failure.
    """
    candidates = [
        ("identity", IdentityMap()),
        ("koebe", KoebeMap()),
        ("cayley", CayleyMap()),
        ("spiral_0.3", SpiralMap(0.3)),
        ("scaled_koebe_8", ScaledMap(KoebeMap(), 8.0)),
        ("poly_0.25", PolynomialMap([1, 0.25])),
        ("poly_-0.12", PolynomialMap([1, -0.12])),
    ]
    rng = random.Random(808)
    for trial in range(400):
        deg = rng.choice([1, 2, 3])
        coeffs = [complex(rng.gauss(0, 0.2), rng.gauss(0, 0.2)) for _ in range(deg)]
        candidates.append((f"random_{trial}", PolynomialMap([1] + coeffs)))

    best_name, best_margin = None, -math.inf
    qualifying = []
    for name, f in candidates:
        m = _special_case_margin(f)
        if m > best_margin:
            best_name, best_margin = name, m
        if m > 0:
            qualifying.append((name, f))

    if not qualifying:
        verdict("08 sector-special-case-vertex-one", False,
                f"no admissible catalog map: best margin {best_margin:.4f} "
                f"({best_name}); premise unattainable, see this test's docstring")
        pytest.fail(
            "no class-A map attains a positive f'(1-f) margin in U(0.5); "
            f"best candidate {best_name} reaches {best_margin:.4f}. "
            "The stated special case (vertex 1, opening pi/2) admits only the "
            "sector's Riemann map, which fails the disk condition for every "
            "k < 1."
        )

    # if a qualifying map existed, the pipeline would be verified like this:
    sec = SectorDomain(1, 0.75, 0.5)
    bound = (2 * 0.5 + 1) / (0.5 + 2)
    for name, f in qualifying:
        params = CriterionParams(k=0.5, w0=1 + 0j, lambda0=0.75, a=0.5)
        rep = evaluate_criterion("sector_nw", f, None, params, GRID)
        assert rep.passed
        from qcx import companion_from_sector

        q = companion_from_sector(sec, normalized=True)
        ext = ExtensionMap(build_chain("nw", f, q, params))
        sext = SectorExtension(sec, normalized=True)
        comp = lambda w: sext.inverse(ext(w))  # noqa: E731
        est = beltrami_on_grid(comp, AnnulusGrid(16, 32, 1.001, 3.0), 1e-5,
                               seam=lambda w: sext.image_seam(ext(w)))
        assert est.sup_abs_mu <= bound + 5e-3
    verdict("08 sector-special-case-vertex-one", True)


def test_09_wirtinger_exactness():
    # the stencil is exact on affine maps for every step; h = 1e-2 keeps the
    # float cancellation of a*(z+h) - a*(z-h) below the 1e-12 budget
    rng = random.Random(909)
    worst = 0.0
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dz, dzb = wirtinger(lambda w: a * w + b * w.conjugate() + c, z, 1e-2)
        worst = max(worst, abs(dz - a), abs(dzb - b))
    ok = worst < 1e-12
    verdict("09 wirtinger-exactness", ok, f"worst deviation {worst:.2e}")
    assert worst < 1e-12


def test_10_determinism(tmp_path, capsys):
    doc = {
        "version": 1,
        "function": {"kind": "polynomial", "coefficients": [[0.25, 0.0]]},
        "companion": {"kind": "identity"},
        "criterion": "nw",
        "params": {"k": 0.5, "k_prime": 0.34},
        "grid": {"radial": 24, "angular": 48},
        "annulus": {"radial": 12, "angular": 24, "inner": 1.001, "outer": 3.0},
    }
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    outputs = []
    for d, cmd in (("a", "check"), ("b", "check"), ("c", "beltrami"),
                   ("d", "beltrami")):
        out_dir = tmp_path / d
        code = cli_main([cmd, "--scenario", str(sc), "--out", str(out_dir)])
        assert code == 0
        blob = b""
        for p in sorted(out_dir.iterdir()):
            blob += p.read_bytes()
        outputs.append(blob)
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    verdict("10 determinism", ok, "byte-identical CSV outputs on repeated runs")
    assert ok
