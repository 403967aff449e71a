"""Numerical verification of quasiconformality.

Wirtinger derivatives come from a 4-point central stencil, the Beltrami
coefficient is their ratio, and the composition arithmetic of dilatation
bounds closes the loop from criterion report to measured extension.

The map under test is evaluated elementwise on 1-D complex arrays: every
map, chain extension, sector extension and composed extension of the
package is, and a callable `f` handed to `wirtinger` or `beltrami_on_grid`
must be too.  Each call gets the stencils of a block of at most
grids.BLOCK grid points, four samples per point.

The extensions built downstream are merely continuous (not smooth) across
the unit circle, so estimation grids must keep a guard band of 3h around
|z| = 1 and every accepted estimate has to survive a step-halving check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import AnnulusGrid, DiskGrid, blocks
from .parallel import ordered_map

_DEGENERATE_DZ = 1e-10


def compose_dilatation(k1: float, k2: float) -> float:
    """(k1+k2)/(1+k1*k2): dilatation bound of a composition, still < 1."""
    if not (0 <= k1 < 1 and 0 <= k2 < 1):
        raise ValueError("dilatation bounds must lie in [0, 1)")
    return (k1 + k2) / (1 + k1 * k2)


def _stencil(z: np.ndarray, h: float) -> np.ndarray:
    """The four stencil samples of every point, point by point: z+h, z-h,
    z+ih, z-ih."""
    return np.stack([z + h, z - h, z + 1j * h, z - 1j * h], axis=1).ravel()


def wirtinger(f: Callable[[np.ndarray], np.ndarray], z, h: float = 1e-5):
    """Central-difference Wirtinger derivatives (df/dz, df/dzbar) at z, a
    point or a 1-D array of points (then two arrays).

    f is called once, on the stencil samples of all the points.  Exact (up
    to rounding) on affine maps a*z + b*conj(z) + c by linearity of the
    stencil.  A non-finite sample (a pole) raises ValueError naming the
    first point whose stencil hit it.
    """
    points = np.atleast_1d(np.asarray(z, complex))
    with np.errstate(all="ignore"):
        samples = np.asarray(f(_stencil(points, h)), complex).reshape(-1, 4)
    bad = ~np.isfinite(samples).all(axis=1)
    if bad.any():
        at = z if np.ndim(z) == 0 else points[int(np.argmax(bad))]
        raise ValueError(f"non-finite sample in Wirtinger stencil at {at!r}")
    fe, fw, fn, fs = samples.T
    du = fe - fw
    dv = fn - fs
    dz = (du - 1j * dv) / (4 * h)
    dzbar = (du + 1j * dv) / (4 * h)
    if np.ndim(z) == 0:
        return complex(dz[0]), complex(dzbar[0])
    return dz, dzbar


@dataclass(frozen=True)
class BeltramiEstimate:
    """Grid of Beltrami coefficients mu = df/dzbar / df/dz.

    K = (1+sup|mu|)/(1-sup|mu|) is the maximal dilatation (inf when
    sup|mu| >= 1).  `flagged` lists sample indices with a degenerate dz;
    `skipped` lists samples excluded because the stencil straddled a known
    non-smooth seam of the map.  Neither kind contributes to the sup.
    """

    points: np.ndarray
    mu: np.ndarray
    sup_abs_mu: float
    worst_point: complex
    h: float
    flagged: tuple[int, ...] = ()
    skipped: tuple[int, ...] = ()

    @property
    def K(self) -> float:
        if self.sup_abs_mu >= 1:
            return math.inf
        return (1 + self.sup_abs_mu) / (1 - self.sup_abs_mu)


def beltrami_on_grid(f: Callable[[np.ndarray], np.ndarray],
                     grid: AnnulusGrid | DiskGrid | Sequence[complex],
                     h: float = 1e-5,
                     seam: Callable[[np.ndarray], np.ndarray] | None = None) -> BeltramiEstimate:
    """Estimate the Beltrami coefficient of f on every grid sample.

    Parameters
    ----------
    f : callable
        Total map of the plane (an extension, or any complex map),
        elementwise on a 1-D complex array.
    grid : AnnulusGrid, DiskGrid or sequence of points
        Samples; must avoid the band |z| in [1-3h, 1+3h] where extensions
        are not differentiable.
    h : float
        Stencil step.
    seam : callable, optional
        Real-valued indicator, elementwise on a 1-D complex array, whose
        sign change across the stencil marks a sample as sitting on a
        non-smooth seam; such samples are skipped (the derivative does not
        exist there) and f is not evaluated for them.
    """
    points = np.asarray(grid.points() if hasattr(grid, "points") else list(grid), complex)
    r = np.abs(points)
    band = (1 - 3 * h <= r) & (r <= 1 + 3 * h)
    if band.any():
        raise ValueError(
            f"grid point {points[int(np.argmax(band))]!r} lies inside the guard "
            "band |z| in [1-3h, 1+3h]"
        )

    def one(z: np.ndarray):
        """mu on a block, with its skipped and flagged masks."""
        skipped = np.zeros(len(z), bool)
        if seam is not None:
            with np.errstate(all="ignore"):
                signs = np.copysign(1.0, seam(_stencil(z, h))).reshape(-1, 4)
            skipped = (signs != signs[:, :1]).any(axis=1)  # stencil straddles the seam
        kept = np.flatnonzero(~skipped)
        dz, dzb = wirtinger(f, z[kept], h)
        degenerate = np.abs(dz) < _DEGENERATE_DZ  # degenerate Jacobian
        flagged = np.zeros(len(z), bool)
        flagged[kept[degenerate]] = True
        mu = np.full(len(z), np.nan, complex)
        mu[kept[~degenerate]] = dzb[~degenerate] / dz[~degenerate]
        return mu, skipped, flagged

    empty = (np.empty(0, complex), np.empty(0, bool), np.empty(0, bool))
    parts = ordered_map(one, blocks(points)) or [empty]
    mu, skipped, flagged = (np.concatenate(column) for column in zip(*parts))
    # the sup and its first maximizer over the samples that count; with no
    # positive |mu| the worst point is the first sample
    size = np.where(skipped | flagged, -1.0, np.abs(mu))
    i = int(np.argmax(size)) if len(points) else 0
    sup = float(size[i]) if len(points) and size[i] > 0 else 0.0
    return BeltramiEstimate(
        points=points,
        mu=mu,
        sup_abs_mu=sup,
        worst_point=complex(points[i if sup > 0 else 0]) if len(points) else 0j,
        h=float(h),
        flagged=tuple(np.flatnonzero(flagged).tolist()),
        skipped=tuple(np.flatnonzero(skipped).tolist()),
    )


def stable_beltrami(f: Callable[[complex], complex],
                    grid, h: float = 1e-5,
                    seam: Callable[[complex], float] | None = None):
    """Beltrami estimate plus the mandatory step-halving stability gate.

    Returns (estimate_at_h, estimate_at_h/2, stable, delta) where stable
    means the sup changed by less than 5e-3 when the step was halved.
    """
    est = beltrami_on_grid(f, grid, h, seam)
    est_half = beltrami_on_grid(f, grid, h / 2, seam)
    delta = abs(est.sup_abs_mu - est_half.sup_abs_mu)
    return est, est_half, delta < 5e-3, delta
