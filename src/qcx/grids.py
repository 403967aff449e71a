"""Sampling grids for sup-norm estimation on the disk and on annuli, and
BLOCK, the one evaluation budget: no array call of the scans, the branch
lattice's walks, the chains, the extension, the stencil or the CSV writer
sees more than BLOCK samples.

The criterion functionals typically attain their suprema only as |z| -> 1
(the Koebe functional tends to 6 there), so the disk grid packs its radii
geometrically toward the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 4096  # samples per array call of the evaluation paths


def blocks(points, per_point: int = 1) -> list[np.ndarray]:
    """Consecutive slices of the points (rows of a 2-D array), in input
    order, each holding at most BLOCK samples when every point fans out into
    `per_point` samples (stencil samples, times, columns), and at least one
    point.  Array evaluation goes block by block, which bounds its
    temporaries."""
    points = np.asarray(points)
    size = max(1, BLOCK // per_point)
    return [points[i:i + size] for i in range(0, len(points), size)]


class _PolarGrid:
    """The points of the radii() x angles() product, radius-major, at
    n_angular equally spaced angles from 0."""

    def angles(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_angular) / self.n_angular

    def points(self) -> np.ndarray:
        r = self.radii()[:, None]
        t = self.angles()[None, :]
        return (r * np.exp(1j * t)).ravel()


@dataclass(frozen=True)
class DiskGrid(_PolarGrid):
    """Polar grid on 0 <= r <= 1 - eps with radii crowding toward r = 1.
    The origin ring is degenerate."""

    n_radial: int = 64
    n_angular: int = 128
    eps: float = 1e-3

    def __post_init__(self):
        if self.n_radial < 2 or self.n_angular < 1:
            raise ValueError("grid needs at least 2 radii and 1 angle")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")

    def radii(self) -> np.ndarray:
        # 1 - r decays geometrically from 1 down to eps: r[0] = 0, r[-1] = 1 - eps
        i = np.arange(self.n_radial)
        return 1.0 - self.eps ** (i / (self.n_radial - 1))

    @property
    def max_radius(self) -> float:
        return 1.0 - self.eps


@dataclass(frozen=True)
class AnnulusGrid(_PolarGrid):
    """Log-spaced polar grid on inner <= r <= outer with inner > 1."""

    n_radial: int = 64
    n_angular: int = 128
    inner: float = 1.001
    outer: float = 3.0

    def __post_init__(self):
        if self.n_radial < 2 or self.n_angular < 1:
            raise ValueError("grid needs at least 2 radii and 1 angle")
        if not 1.0 < self.inner < self.outer:
            raise ValueError("need 1 < inner < outer")

    def radii(self) -> np.ndarray:
        i = np.arange(self.n_radial)
        r = self.inner * (self.outer / self.inner) ** (i / (self.n_radial - 1))
        r[-1] = self.outer  # the power can round one ulp past it
        return r
