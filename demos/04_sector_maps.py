"""Sector domains: fitting, the half-plane power map, and its extension.

A bounded image fits inside a tangent sector from any exterior vertex; the
power map of that sector onto the upper half-plane extends to the whole
plane with dilatation |1 - a| (conformal branch inside the sector, radial
power stretch on the complement).  Composing dilatations gives the bound
(k + |1-a|)/(1 + k|1-a|) for the map recovered through the sector inverse.
"""

import cmath
import math

import numpy as np

from qcx import (
    AnnulusGrid,
    CriterionParams,
    DiskGrid,
    ExtensionMap,
    IdentityMap,
    SectorExtension,
    beltrami_on_grid,
    build_chain,
    companion_from_sector,
    compose_dilatation,
    evaluate_criterion,
    fit_sector,
    stable_beltrami,
)

# fit: the unit disk against vertex -2 opens 2*arcsin(1/2) = pi/3, so a = 1/3
sector, radius = fit_sector(IdentityMap(), -2, radius=1.0)
print(f"fitted sector: vertex {sector.w0}, initial ray {sector.lambda0:.6f} pi, "
      f"opening {sector.a:.6f} pi")

ext_q = SectorExtension(sector)
stretch = [sector.w0 + r * cmath.exp(1j * (math.pi * sector.lambda0 + th))
           for r in np.linspace(0.4, 2.0, 6)
           for th in np.linspace(math.pi * sector.a + 0.1, 2 * math.pi - 0.1, 12)]
est = beltrami_on_grid(ext_q, stretch)
print(f"measured dilatation of the sector extension: {est.sup_abs_mu:.6f} "
      f"(declared |1-a| = {abs(1 - sector.a):.6f})")

# derivative condition through the normalized sector companion
k = 0.65
params = CriterionParams(k=k, w0=sector.w0, lambda0=sector.lambda0, a=sector.a)
report = evaluate_criterion("sector_nw", IdentityMap(), None, params, DiskGrid(48, 96))
print(f"sector derivative condition at k={k}: passed={report.passed}, "
      f"smallest bound {report.smallest_bound:.6f}")
print(f"concluded dilatation for the map itself: {report.concluded_dilatation:.6f}")

q = companion_from_sector(sector, normalized=True)
ext = ExtensionMap(build_chain("nw", IdentityMap(), q, params))
sext = SectorExtension(sector, normalized=True)
composed = lambda w: sext.inverse(ext(w))  # noqa: E731
bound = compose_dilatation(k, abs(1 - sector.a))
est_c, _, stable, _ = stable_beltrami(
    composed, AnnulusGrid(24, 48, 1.001, 3.0),
    seam=lambda w: sext.image_seam(ext(w)))
print(f"measured dilatation of the composed extension: {est_c.sup_abs_mu:.6f} "
      f"<= {bound:.6f} (stable: {stable})")
print("restriction to the disk returns the original map:",
      abs(composed(0.4 + 0.3j) - (0.4 + 0.3j)) < 1e-12)
