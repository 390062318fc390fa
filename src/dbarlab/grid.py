"""Periodic computational box with spectral complex calculus.

The domain is the torus [0, L)^(2n) sampled on a uniform lattice, with the
2n real axes ordered (x_1, y_1, ..., x_n, y_n) and complex coordinates
z_j = x_j + i*y_j.  Differentiation is spectral: forward FFT, multiplication
by signed wavenumbers 2*pi*k/L with the Nyquist mode zeroed, inverse FFT.
Zeroing the Nyquist mode keeps every derivative operator exactly
skew-adjoint on the lattice, which is what makes the discrete
integration-by-parts identities hold to roundoff.

This module owns the package's FFTs, on numpy.fft, one axis at a time in
axis order and in place after the first.  ``to_spectrum`` and ``to_lattice``
are the forward and inverse transforms over all grid axes, for the Fourier
space solver, ``convolve`` and ``kernel_spectrum``.  A derivative d/dz_j or
d/dzbar_j varies only along the real axes (x_j, y_j) of its complex plane,
so it transforms only those two: ``plane_spectrum(grid, arr, j)`` is the
forward transform over them, and ``from_spectrum`` multiplies that plane
spectrum and inverts the same two axes, leaving the spectrum alone for its
next use.  ``dz_array`` is the single-use derivative: it multiplies and
inverts its own plane spectrum in place.  At n = 1 the plane is the whole
grid.  Every transform is the same complex arithmetic: a real input is cast
to complex128 once, into the output buffer, and takes the same passes.  The
results are bitwise equal to scipy.fft.fftn/ifftn of the complex input over
the same axes.  Every other spectral step goes through these.

A scalar field on the lattice is a plain array of ``grid.shape``, float64 or
complex128 as its producer computes it; ``integrate`` is the package's one
lattice quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # loaded with the package, not on a run's first transform

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
    """Spectral d/dz_j (or d/dzbar_j) of an array, transforming only the plane of z_j.

    Leading axes must be the grid axes; any trailing axes are treated as
    components and differentiated entrywise.  The plane spectrum is the
    output's buffer: it is multiplied and inverted in place.
    """
    dims = 2 * grid.n
    if arr.shape[:dims] != grid.shape:
        raise FormError(f"array shape {arr.shape} does not start with grid {grid.shape}")
    spec = plane_spectrum(grid, arr, j)
    return _plane_derivative(grid, spec, j, conjugate, spec)


def _transform(arr: np.ndarray, axes: tuple, forward: bool) -> np.ndarray:
    """FFT (or inverse FFT) over axes, in increasing order, into a new C-ordered array.

    A real input is cast to complex128 once, into the output buffer, and takes
    the same in-place complex passes.
    """
    fft = np.fft.fft if forward else np.fft.ifft
    if np.iscomplexobj(arr):
        out = fft(arr, axis=axes[0])
        rest = axes[1:]
    else:
        out = arr.astype(np.complex128, order="C")
        rest = axes
    for k in rest:
        fft(out, axis=k, out=out)
    return out


def to_spectrum(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """Forward FFT over every grid axis; trailing component axes ride along."""
    return _transform(arr, tuple(range(2 * grid.n)), True)


def to_lattice(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    """Inverse FFT over every grid axis; trailing component axes ride along."""
    return _transform(spec, tuple(range(2 * grid.n)), False)


def plane_spectrum(grid: GridSpec, arr: np.ndarray, j: int) -> np.ndarray:
    """Forward FFT over the real axes (x_j, y_j) of the complex plane j only.

    The other grid axes and trailing component axes ride along; this is the
    spectrum from_spectrum takes for derivatives in direction j.
    """
    if not 0 <= j < grid.n:
        raise FormError(f"complex axis {j} out of range for n={grid.n}")
    return _transform(arr, (2 * j, 2 * j + 1), True)


def _plane_derivative(
    grid: GridSpec, spec: np.ndarray, j: int, conjugate: bool, out: np.ndarray | None
) -> np.ndarray:
    """out = the inverse over plane j of multiplier * spec; out is spec for in place.

    The product is written multiplier first, which fixes its rounding.
    """
    mult = _dz_multiplier(grid, j, conjugate)
    mult = mult.reshape(mult.shape + (1,) * (spec.ndim - mult.ndim))
    out = np.multiply(mult, spec, out=out)
    np.fft.ifft(out, axis=2 * j, out=out)
    np.fft.ifft(out, axis=2 * j + 1, out=out)
    return out


def from_spectrum(
    grid: GridSpec, spec: np.ndarray, j: int, conjugate: bool = False
) -> np.ndarray:
    """d/dz_j (or d/dzbar_j) of the array whose plane-j spectrum is spec.

    spec is plane_spectrum(grid, arr, j); the multiplier of the derivative is
    applied into a new array, inverted over the axes of plane j, and spec is
    left as it was.  Trailing component axes of spec are differentiated
    entrywise.  Callers that need several derivatives in direction j of one
    array transform it once and take each here; a single derivative is
    dz_array.
    """
    if not 0 <= j < grid.n:
        raise FormError(f"complex axis {j} out of range for n={grid.n}")
    return _plane_derivative(grid, spec, j, conjugate, None)


def integrate(grid: GridSpec, values: np.ndarray):
    """Lattice integral in the field's dtype: exact for periodic band-limited data."""
    return values.sum() * grid.cell_volume


def kernel_spectrum(grid: GridSpec, kernel: np.ndarray) -> np.ndarray:
    """Spectrum of a real, nonnegative, unit-mass kernel of the grid's shape, for convolve.

    The kernel is checked here, once, so a caller that convolves with one
    kernel many times keeps its spectrum.
    """
    if np.iscomplexobj(kernel):
        raise ValidationError("convolution kernel must be real")
    if kernel.min() < -1e-13 * max(kernel.max(), 1e-300):
        raise ValidationError(f"convolution kernel has negative entries (min {kernel.min():.3e})")
    mass = float(integrate(grid, kernel))
    if abs(mass - 1.0) > 1e-10:
        raise ValidationError(f"convolution kernel mass is {mass!r}, expected 1")
    return to_spectrum(grid, kernel)


def convolve(grid: GridSpec, f: np.ndarray, kernel_spec: np.ndarray) -> np.ndarray:
    """Periodic convolution with the kernel whose spectrum is kernel_spec, computed spectrally.

    kernel_spec is kernel_spectrum's output; trailing component axes of f ride
    along, each component convolved with the kernel.  A real field convolves
    to a real field.
    """
    if not np.iscomplexobj(kernel_spec):
        raise ValidationError("convolve takes kernel_spectrum's output, not the kernel")
    spec_k = kernel_spec.reshape(kernel_spec.shape + (1,) * (f.ndim - kernel_spec.ndim))
    out = to_lattice(grid, to_spectrum(grid, f) * spec_k) * grid.cell_volume
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
