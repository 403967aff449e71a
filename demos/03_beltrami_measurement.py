"""Measuring the dilatation of a constructed extension.

The Beltrami coefficient mu = (df/dzbar)/(df/dz) is estimated by a 4-point
Wirtinger stencil on an annulus that keeps a guard band around the unit
circle (the extension is continuous but not smooth there).  The measured
sup |mu| must not exceed the criterion bound the construction started from;
inside the disk the extension is analytic, so mu vanishes.  A self-contained
SVG heat map of |mu| lands next to this script.
"""

import os

from qcx import (
    AnnulusGrid,
    CompanionMap,
    CriterionParams,
    DiskGrid,
    ExtensionMap,
    PolynomialMap,
    beltrami_on_grid,
    build_chain,
    evaluate_criterion,
    stable_beltrami,
    write_heatmap_svg,
)
import numpy as np

f = PolynomialMap([1, 0.25])
q = CompanionMap.identity()
params = CriterionParams(k=0.5, k_prime=0.34)

report = evaluate_criterion("nw", f, q, params, DiskGrid(48, 96))
print(f"criterion bound 0.34, smallest admissible {report.smallest_bound:.6f}")

ext = ExtensionMap(build_chain("nw", f, q, params))
grid = AnnulusGrid(48, 96, 1.001, 3.0)
est, est_half, stable, delta = stable_beltrami(ext, grid)
print(f"sup |mu| on the annulus     : {est.sup_abs_mu:.6f}")
print(f"maximal dilatation K        : {est.K:.6f}")
print(f"worst sample                : {est.worst_point:.6f}")
print(f"stable under step halving   : {stable} (delta {delta:.2e})")

interior = beltrami_on_grid(ext, DiskGrid(16, 32, 0.05))
print(f"interior sup |mu| (analytic): {interior.sup_abs_mu:.2e}")

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "beltrami_demo.svg")
write_heatmap_svg(out, grid.radii(), grid.angles(),
                  np.abs(est.mu).reshape(grid.n_radial, grid.n_angular),
                  title="|mu| of the extension of z + z^2/4")
print("heat map written to", out)
