"""The quadrature the plateau profile was computed with, and a bisection for
the default plateau radius: the references for the closed forms in
``dbarlab.weights``.

``_profile_value`` is r0^2 plus the 128-panel, 10-point Gauss-Legendre
integral of m'(t) = 2 t ramp(t), with scipy's erfc; ``_saturation_law`` is the
same rule on the ramp alone.  They are the oracle for
``saturating_square_profile`` and ``weights._saturation_law``.

The bisection evaluates the saturation value r0^2 + integral of 2 t ramp(t)
on [r0, r1] by that quadrature, and 60 halvings pin r0 to roundoff.
Agreement checks the quadratic law the closed form rests on, as well as its
root.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import erfc

from dbarlab.errors import ValidationError
from dbarlab.weights import (
    CORE_REACH,
    RAMP_REACH,
    _reach,
    default_smoothing_scale,
)


def _ramp_down(t: np.ndarray, tm: float, s: float) -> np.ndarray:
    """erfc ramp from 1 to 0 centered at tm with smoothing scale s."""
    return 0.5 * erfc((np.asarray(t, dtype=np.float64) - tm) / s)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple:
    """The 10-point Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(10)


def _panels(lo: float, hi: float) -> tuple:
    """(x, w): nodes and weights of the 128-panel Gauss-Legendre rule on [lo, hi]."""
    nodes, gl_weights = _gauss_legendre()
    edges = np.linspace(lo, hi, 129)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * nodes[None, :], half[:, None] * gl_weights[None, :]


def _profile_value(r0: float, upper: float, s: float) -> float:
    """r0^2 plus the 128-panel Gauss-Legendre integral of m'(t) = 2 t ramp(t) on [r0, upper]."""
    tm, _ = _reach(r0, s)
    x, w = _panels(r0, upper)
    return r0 * r0 + float(np.sum(w * (2.0 * x * _ramp_down(x, tm, s))))


def _saturation_law(s: float) -> tuple:
    """(A, B), the integrals of ramp(u) and 2 u ramp(u) on [0, r1 - r0], the same for all r0."""
    u, w = _panels(0.0, (CORE_REACH + RAMP_REACH) * s)
    mass = w * _ramp_down(u, CORE_REACH * s, s)
    return float(np.sum(mass)), float(np.sum(2.0 * u * mass))


def saturation_value(r0: float, s: float) -> float:
    """Limit value of the saturating profile: r0^2 plus the ramp's mass."""
    return _profile_value(r0, _reach(r0, s)[1], s)


def plateau_radius(grid, c: float = 1.0, budget: float = 7.0) -> float:
    """r0 with 2n c saturation_value(r0, s) = budget, by bisection on [1e-3, hi]."""
    if c <= 0:
        return 0.25 * grid.L
    s = default_smoothing_scale(grid, c)
    target = budget / (2.0 * grid.n * c)
    lo = 1e-3
    if saturation_value(lo, s) > target:
        raise ValidationError(
            f"weight too deep for the box: budget {budget} unreachable at c={c}, L={grid.L}"
        )
    hi = 0.5 * grid.L - (CORE_REACH + RAMP_REACH) * s - 1e-9
    if hi <= lo:
        raise ValidationError(f"box too small for the apodization ramp: L={grid.L}")
    if saturation_value(hi, s) < target:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if saturation_value(mid, s) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
