"""From a passing criterion to an explicit extension of the plane.

A passing report certifies that the transition ratio p = dF/dt / (z dF/dz)
of the matching chain stays in U(k'), which is exactly what makes

    fhat(w) = F(w, 0)            inside the circle,
    fhat(w) = F(w/|w|, log |w|)  outside

a k'-quasiconformal extension of F(., 0).  The script builds the chain for
a small perturbation of the identity, validates the chain conditions on
samples, and prints a ray of the extension.
"""

import cmath
import math

from qcx import (
    CompanionMap,
    CriterionParams,
    DiskGrid,
    ExtensionMap,
    PolynomialMap,
    build_chain,
    default_times,
    validate_chain,
)

f = PolynomialMap([1, 0.25])
q = CompanionMap.identity()
params = CriterionParams(k=0.5, k_prime=0.34)

chain = build_chain("nw", f, q, params)
print("chain construction:", chain.construction)
print("initial slice F(z, 0) = Q(f(z)):",
      chain.value(0.5 + 0.2j, 0.0), "=", f(0.5 + 0.2j))

validation = validate_chain(chain, DiskGrid(24, 48), default_times(2.0, 21),
                            dilatation_bound=0.34)
print("chain conditions satisfied:", validation.ok)
print(f"  min Re p over samples     : {validation.re_p_min:.6f}")
print(f"  min U(0.34) margin of p   : {validation.u_margin_min:.6f}")
print(f"  |a1(t)| along the times   : {validation.a1_abs[0]:.3f} ... "
      f"{validation.a1_abs[-1]:.3f} (increasing: {validation.a1_increasing})")

ext = ExtensionMap(chain)
print(f"continuity across |w| = 1   : {ext.continuity_gap(256):.3e}")
print()
print("the extension along the ray arg w = pi/5:")
for r in (0.25, 0.5, 0.9, 1.0, 1.5, 2.5, 5.0):
    w = r * cmath.exp(1j * math.pi / 5)
    print(f"  fhat({w:.4f}) = {ext(w):.6f}")
