"""Periodic computational box with spectral complex calculus.

The domain is the torus [0, L)^(2n) sampled on a uniform lattice, with the
2n real axes ordered (x_1, y_1, ..., x_n, y_n) and complex coordinates
z_j = x_j + i*y_j.  Differentiation is spectral: forward FFT, multiplication
by signed wavenumbers 2*pi*k/L with the Nyquist mode zeroed, inverse FFT.
Zeroing the Nyquist mode keeps every derivative operator exactly
skew-adjoint on the lattice, which is what makes the discrete
integration-by-parts identities hold to roundoff.

This module owns the package's FFTs: ``to_spectrum`` and ``to_lattice`` are
the forward and inverse transforms over the grid axes, on scipy.fft with its
default single worker.  ``from_spectrum`` runs the inverse in place on its own
multiplied spectrum; ``to_lattice`` copies, as its callers' spectra stay in
use.  Every other spectral step goes through these.

A scalar field on the lattice is a plain array of ``grid.shape``, float64 or
complex128 as its producer computes it; ``integrate`` is the package's one
lattice quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import FormError, ValidationError


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Periodic box in complex dimension n with N samples per real axis.

    Attributes:
        n: complex dimension (1 or 2).
        N: samples per real axis, a power of two >= 8.
        L: box side length.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError(f"complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or not _is_power_of_two(int(self.N)):
            raise ValidationError(f"N must be a power of two >= 8, got {self.N}")
        if not self.L > 0:
            raise ValidationError(f"box side must be positive, got {self.L}")

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.N ** (2 * self.n)

    @property
    def spacing(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** (2 * self.n)

    @property
    def center(self) -> float:
        return 0.5 * self.L

    def axis_coordinates(self) -> np.ndarray:
        """1D lattice coordinates 0, L/N, ..., L - L/N."""
        return np.arange(self.N) * self.spacing

    def along_axes(self, values) -> tuple:
        """The length-N array values, shaped to vary along each real axis in turn."""
        dims = 2 * self.n
        return tuple(
            np.reshape(values, (1,) * axis + (self.N,) + (1,) * (dims - 1 - axis))
            for axis in range(dims)
        )

    def coordinate(self, axis: int) -> np.ndarray:
        """Full-shape array of the coordinate along one real axis (0-based)."""
        if not 0 <= axis < 2 * self.n:
            raise FormError(f"real axis {axis} out of range for n={self.n}")
        t = self.along_axes(self.axis_coordinates())[axis]
        return np.broadcast_to(t, self.shape).copy()

    def z(self, j: int, centered: bool = True) -> np.ndarray:
        """Complex coordinate z_j = x_j + i*y_j, optionally centered at L/2."""
        if not 0 <= j < self.n:
            raise FormError(f"complex axis {j} out of range for n={self.n}")
        x = self.coordinate(2 * j)
        y = self.coordinate(2 * j + 1)
        off = self.center if centered else 0.0
        return (x - off) + 1j * (y - off)

    def wavenumbers(self) -> np.ndarray:
        """Signed 1D wavenumbers 2*pi*k/L with the Nyquist entry zeroed."""
        w = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.spacing)
        w[self.N // 2] = 0.0
        return w


@lru_cache(maxsize=32)
def _dz_multiplier(grid: GridSpec, j: int, conjugate: bool) -> np.ndarray:
    """Fourier multiplier of d/dz_j (or d/dzbar_j), broadcastable to grid shape.

    d/dz_j    -> (i*kx + ky)/2
    d/dzbar_j -> (i*kx - ky)/2
    """
    kx, ky = grid.along_axes(grid.wavenumbers())[2 * j : 2 * j + 2]
    sign = -1.0 if conjugate else 1.0
    return 0.5 * (1j * kx + sign * ky)


def dz_array(grid: GridSpec, arr: np.ndarray, j: int, conjugate: bool = False) -> np.ndarray:
    """Spectral d/dz_j (conjugate=False) or d/dzbar_j (True) of an array.

    Leading axes must be the grid axes; any trailing axes are treated as
    components and differentiated entrywise.
    """
    dims = 2 * grid.n
    if arr.shape[:dims] != grid.shape:
        raise FormError(f"array shape {arr.shape} does not start with grid {grid.shape}")
    return from_spectrum(grid, to_spectrum(grid, arr), j, conjugate)


def to_spectrum(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """Forward FFT over the grid axes; trailing component axes ride along."""
    return scipy.fft.fftn(arr, axes=tuple(range(2 * grid.n)))


def to_lattice(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    """Inverse FFT over the grid axes; trailing component axes ride along."""
    return scipy.fft.ifftn(spec, axes=tuple(range(2 * grid.n)))


def from_spectrum(
    grid: GridSpec, spec: np.ndarray, j: int, conjugate: bool = False
) -> np.ndarray:
    """d/dz_j (or d/dzbar_j) of the array whose spectrum is spec.

    Applies the multiplier of the derivative and inverse-transforms over the
    grid axes; trailing component axes of spec are differentiated entrywise.
    Callers that need several derivatives of one array transform it once
    with ``to_spectrum`` and take each derivative here.
    """
    if not 0 <= j < grid.n:
        raise FormError(f"complex axis {j} out of range for n={grid.n}")
    dims = 2 * grid.n
    mult = _dz_multiplier(grid, j, conjugate)
    mult = mult.reshape(mult.shape + (1,) * (spec.ndim - dims))
    return scipy.fft.ifftn(mult * spec, axes=tuple(range(dims)), overwrite_x=True)


def integrate(grid: GridSpec, values: np.ndarray):
    """Lattice integral in the field's dtype: exact for periodic band-limited data."""
    return values.sum() * grid.cell_volume


def convolve(grid: GridSpec, f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Periodic convolution with a real, nonnegative, unit-mass kernel, computed spectrally.

    A real field convolves to a real field.
    """
    if np.iscomplexobj(kernel):
        raise ValidationError("convolution kernel must be real")
    if kernel.min() < -1e-13 * max(kernel.max(), 1e-300):
        raise ValidationError(f"convolution kernel has negative entries (min {kernel.min():.3e})")
    mass = float(integrate(grid, kernel))
    if abs(mass - 1.0) > 1e-10:
        raise ValidationError(f"convolution kernel mass is {mass!r}, expected 1")
    out = to_lattice(grid, to_spectrum(grid, f) * to_spectrum(grid, kernel)) * grid.cell_volume
    return out if np.iscomplexobj(f) else out.real


def interior_mask(grid: GridSpec, margin_frac: float = 0.125) -> np.ndarray:
    """Boolean mask of the central box obtained by trimming margin_frac*L per side."""
    if not 0 <= margin_frac < 0.5:
        raise ValidationError(f"margin fraction must lie in [0, 0.5), got {margin_frac}")
    t = grid.axis_coordinates()
    lo = margin_frac * grid.L
    hi = (1.0 - margin_frac) * grid.L
    return box_mask(grid, (t >= lo) & (t < hi))


def box_mask(grid: GridSpec, axis_ok: np.ndarray) -> np.ndarray:
    """Separable box: the points whose every real coordinate passes axis_ok (length N)."""
    mask = np.ones(grid.shape, dtype=bool)
    for ok in grid.along_axes(axis_ok):
        mask &= ok
    return mask


def seam_leakage(density: np.ndarray, grid: GridSpec, margin_frac: float = 0.125) -> float:
    """Fraction of a nonnegative density living outside the interior box."""
    d = np.abs(np.asarray(density))
    total = d.sum()
    if total == 0.0:
        return 0.0
    inner = d[interior_mask(grid, margin_frac)].sum()
    return float((total - inner) / total)
