"""The four rules for where a floor holds that grid.region replaced, kept as its oracle.

Each body is the retired code's, unchanged: grid.interior_mask (with
_interior_axis and box_mask), singular._box_off_poles and monotone_region
(with _wrapped and _psh_zone_halfwidth), and cli._certified_region as it was
before it refused a pole, taking the seam margin in place of the config.
"""

import numpy as np

from dbarlab.errors import ValidationError


def _interior_axis(grid, margin_frac):
    """Length-N mask of the axis coordinates left after trimming margin_frac*L per side."""
    if not 0 <= margin_frac < 0.5:
        raise ValidationError(f"margin fraction must lie in [0, 0.5), got {margin_frac}")
    t = grid.axis_coordinates()
    lo = margin_frac * grid.L
    hi = (1.0 - margin_frac) * grid.L
    return (t >= lo) & (t < hi)


def box_mask(grid, axis_ok):
    """Separable box: the points whose every real coordinate passes axis_ok (length N)."""
    mask = np.ones(grid.shape, dtype=bool)
    for ok in grid.along_axes(axis_ok):
        mask &= ok
    return mask


def interior_mask(grid, margin_frac=0.125):
    """Boolean mask of the central box obtained by trimming margin_frac*L per side."""
    return box_mask(grid, _interior_axis(grid, margin_frac))


def _wrapped(grid, d):
    """Coordinate differences taken periodically, into [-L/2, L/2)."""
    return (d + 0.5 * grid.L) % grid.L - 0.5 * grid.L


def box_off_poles(grid, halfwidth, poles, clear):
    """Centered box |t - L/2| <= halfwidth on every axis, minus radius-clear pole discs."""
    region = box_mask(grid, np.abs(grid.axis_coordinates() - grid.center) <= halfwidth)
    x, y = grid.along_axes(grid.axis_coordinates())[:2]
    for z0 in poles:
        dist2 = _wrapped(grid, x - z0.real) ** 2 + _wrapped(grid, y - z0.imag) ** 2
        region &= dist2 > clear * clear
    return region


def psh_zone_halfwidth(cat):
    # the dual exponent keeps nonnegative complex Hessian out to ~4 smoothing
    # scales past the quadratic radius
    return cat.plateau_radius + 4.0 * cat.smoothing


def monotone_region(grid, cat, eps):
    """Points whose eps-ball stays in the dual's psh zone and off the pole cells."""
    clear = eps + 3.0 * grid.spacing
    return box_off_poles(grid, psh_zone_halfwidth(cat) - eps, cat.poles, clear)


def certified_region(seam_margin, grid, cat):
    """Points off the seam band and inside the metric's plateau box: where floors hold."""
    margin = max(seam_margin, 0.5 - cat.plateau_radius / grid.L)
    if not margin < 0.5:
        raise ValidationError(f"plateau radius r0={cat.plateau_radius:g} vanishes at L={grid.L:g}")
    return interior_mask(grid, margin)
