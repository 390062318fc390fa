"""Lattice coordinates, a compactly supported bump and a field scaling for the tests.

The tests build their model fields from these: coordinate and
complex_coordinate sample the real and complex coordinates on the full
grid, plateau_bump cuts a form down to a ball clear of the seam, and
scale_by_field multiplies a form by such a cutoff.  smooth_source_bump_reference
is the source bump evaluated at every grid point.
"""

from __future__ import annotations

import numpy as np

from dbarlab.errors import FormError, ValidationError
from dbarlab.exterior import EForm
from dbarlab.grid import GridSpec
from dbarlab.weights import BUMP_SUPPORT_RADIUS, _radial_distance, smooth_step


def coordinate(grid: GridSpec, axis: int) -> np.ndarray:
    """Full-shape array of the coordinate along one real axis (0-based)."""
    if not 0 <= axis < 2 * grid.n:
        raise FormError(f"real axis {axis} out of range for n={grid.n}")
    t = grid.along_axes(grid.axis_coordinates())[axis]
    return np.broadcast_to(t, grid.shape).copy()


def complex_coordinate(grid: GridSpec, j: int, centered: bool = True) -> np.ndarray:
    """Complex coordinate z_j = x_j + i*y_j, optionally centered at L/2."""
    if not 0 <= j < grid.n:
        raise FormError(f"complex axis {j} out of range for n={grid.n}")
    x = coordinate(grid, 2 * j)
    y = coordinate(grid, 2 * j + 1)
    off = grid.center if centered else 0.0
    return (x - off) + 1j * (y - off)


def plateau_bump(
    grid: GridSpec,
    center: tuple | None = None,
    r_flat: float | None = None,
    r_zero: float | None = None,
) -> np.ndarray:
    """Radial C-infinity bump: 1 inside r_flat, 0 outside r_zero, exact support.

    Distances are Euclidean in the 2n real coordinates, measured from `center`
    (defaults to the box center) without periodic wrap, so the support never
    touches the seam as long as r_zero < L/2.
    """
    if r_zero is None:
        r_zero = 0.42 * grid.L
    if r_flat is None:
        r_flat = 0.7 * r_zero
    if not 0 < r_flat < r_zero < 0.5 * grid.L:
        raise ValidationError("need 0 < r_flat < r_zero < L/2")
    if center is None:
        center = (grid.center,) * (2 * grid.n)
    rho = _radial_distance(grid, center, (slice(None),) * (2 * grid.n))
    vals = 1.0 - smooth_step((rho - r_flat) / (r_zero - r_flat))
    vals[rho >= r_zero] = 0.0
    return vals


def smooth_source_bump_reference(grid: GridSpec, center: tuple, sigma: float) -> np.ndarray:
    """weights.smooth_source_bump's formula evaluated on the full grid, the oracle for its box."""
    rho2 = np.zeros(grid.shape, dtype=np.float64)
    for t, c in zip(grid.along_axes(grid.axis_coordinates()), center):
        rho2 = rho2 + (t - c) ** 2
    rho = np.sqrt(rho2)
    vals = np.exp(-rho * rho / (2.0 * sigma * sigma))
    vals *= 1.0 - smooth_step((rho - 5.0 * sigma) / ((BUMP_SUPPORT_RADIUS - 5.0) * sigma))
    vals[rho >= BUMP_SUPPORT_RADIUS * sigma] = 0.0
    return vals


def scale_by_field(a: EForm, field: np.ndarray) -> EForm:
    """Multiply every coefficient by a scalar field (cutoffs, weights)."""
    if field.shape != a.grid.shape:
        raise FormError("scaling field shape does not match the grid")
    return EForm(a.grid, a.rank, a.p, a.q, a.coeffs * field[..., None, None, None])
