"""The disk family U(k) = {w : |w-1| <= k|w+1|}.

Equivalently the closed disk with center (1+k^2)/(1-k^2) and radius
2k/(1-k^2).  Membership of a criterion value in U(k) is what forces the
k-quasiconformal extendibility in the Becker-type results, so everything
here reports a signed margin rather than a bare boolean.  The margin and
the ratio are elementwise on a 1-D numpy array; a point is evaluated as a
one-element array.
"""

from __future__ import annotations

import math

import numpy as np

from .jets import accepts_point


def _check_k(k: float) -> float:
    k = float(k)
    if not 0 <= k < 1:
        raise ValueError("dilatation bound k must lie in [0, 1)")
    return k


@np.errstate(invalid="ignore")  # w = inf has the margin nan and the ratio nan
@accepts_point("w")
def u_disk_margin(w: np.ndarray, k: float) -> np.ndarray:
    """Signed margin k|w+1| - |w-1|; >= 0 means w is inside U(k)."""
    k = _check_k(k)
    return k * abs(w + 1) - abs(w - 1)


@np.errstate(invalid="ignore")
@accepts_point("w")
def u_disk_ratio(w: np.ndarray) -> np.ndarray:
    """|w-1|/|w+1|: the smallest k whose disk U(k) contains w (inf at w=-1,
    where |w-1| = 2)."""
    num, den = abs(w - 1), abs(w + 1)
    return np.divide(num, den, out=np.full(den.shape, math.inf), where=den != 0)


def u_disk_center_radius(k: float) -> tuple[float, float]:
    k = _check_k(k)
    d = 1 - k * k
    return (1 + k * k) / d, 2 * k / d
