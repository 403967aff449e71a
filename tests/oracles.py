"""Per-point reference values that the tests compare the array paths against.

Each formula is written out here with `cmath`, one point at a time, and
continues its logarithms along [0, z] with `qcx.branches.tracked_log` (or
`tracked_ratio_log`): the per-point continuation that shares nothing with
the closed forms and the `BranchLattice` the criterion rows take.
"""

import cmath

from qcx import CompanionMap
from qcx.branches import tracked_log, tracked_ratio_log


def ratio(m):
    """w -> m(w)/w at a point: the function whose log a lattice of m's ratio
    continues (`BranchLattice.ratio(m)`)."""
    return lambda w: m.jet(w).value / w


def bazilevic(f, psi, s: complex, p, z: complex) -> complex:
    """f'(z) (f/z)^{s-1} / (p/z)^{alpha} * Psi(f(z)), alpha = Re s, with
    both logs tracked from the origin.

    `psi` is either a map used directly as Psi, or a CompanionMap Q, in
    which case the value is that of G = Q o f with Psi = 1,
    G'(z) (G/z)^{s-1} / (p/z)^{alpha}."""
    if isinstance(psi, CompanionMap):
        f, psi = psi.after(f), None
    jf = f.jet(z)
    value = jf.d1 * cmath.exp((s - 1) * tracked_ratio_log(f, z)
                              - s.real * tracked_ratio_log(p, z))
    if psi is None:
        return value
    return value * psi.jet(jf.value).value


def sector_nw(f, w0: complex, a: float, z: complex) -> complex:
    """f'(z) * (1 - f(z)/w0)^{1/a - 1}, with the log tracked along [0, z]
    from log 1 = 0."""
    jf = f.jet(z)
    if z == 0:
        return jf.d1
    lg = tracked_log(lambda w: 1 - f.jet(w).value / w0, z, 0j)
    return jf.d1 * cmath.exp((1 / a - 1) * lg)
