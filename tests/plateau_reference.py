"""Bisection for the default plateau radius, the reference for the closed form
in ``dbarlab.weights.default_plateau_radius``.

Each step evaluates the saturation value r0^2 + integral of 2 t ramp(t) on
[r0, r1] by the profile's own quadrature in t, as the profile samples do,
and 60 halvings pin r0 to roundoff.  Agreement checks the quadratic law the
closed form rests on, as well as its root.
"""

from __future__ import annotations

from dbarlab.errors import ValidationError
from dbarlab.weights import (
    CORE_REACH,
    RAMP_REACH,
    _profile_value,
    _reach,
    default_smoothing_scale,
)


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
