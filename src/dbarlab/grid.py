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
so it transforms only those two, in one cache-blocked kernel,
``_plane_derivatives(grid, arr, j, targets, slices)``.  At n = 2 a slice
is one point of the other plane, with the plane and the components whole;
it is live unless the field is identically zero there, and a dead slice
has derivative exactly 0, so by default the kernel scans its input once
and transforms the live slices.  A caller that already knows the slices
it needs (where another field lives, as ``_support`` finds them with the
bounding box of its nonzeros, in one np.any pass) passes a mask of them:
exactly those slices are transformed, and the input is not scanned.  A
block is a run of consecutive slices to transform, the other plane's two
axes seen as one index of a view, sized to stay in cache: on a dense
field, whole rows of the other axes.  For one block at a time the kernel
transforms the plane forward once and, per target, applies the
multiplier, inverts the plane and writes the block into a new array (of
zeros, which the other slices keep) or adds or subtracts it into a view of
the target.  Any other slice is never copied, transformed or written, so a
field of compact support transforms only the slices its support meets.  No full-grid spectrum or
derivative exists, and the first axis is transformed within the block
instead of at the field's full stride.  ``dz_array`` is its single-target
case.  At n = 1 the plane is the whole grid, and a dense field that fits
one block, or one whose smallest block (a row of the other axes) would not
fit (n = 2 at N >= 64), is transformed whole.  Every transform is the same
complex arithmetic: a real input is cast to complex128 once, into the
transformed buffer, and takes the same passes.
The results are bitwise equal to scipy.fft.fftn/ifftn of the complex input
over the same axes.  Every other spectral step goes through these.

A scalar field on the lattice is a plain array of ``grid.shape``, float64 or
complex128 as its producer computes it; ``integrate`` is the package's one
lattice quadrature.

``region`` is the one rule for where a floor or an interior check holds:
the central box trimmed by margin*L per side, less every point within
eps + 3 spacings of a pole, eps being the metric's mollifier radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # loaded with the package, not on a run's first transform

from .errors import FormError, ValidationError


# the band each interior check trims from both ends of every axis, a fraction of L
SEAM_MARGIN = 0.125


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


def add_signed(dst: np.ndarray, sign: int, value) -> None:
    """dst += sign * value for a unit sign, as one add or one subtract."""
    if sign > 0:
        dst += value
    else:
        dst -= value


@lru_cache(maxsize=32)
def _dz_multiplier(grid: GridSpec, j: int, conjugate: bool) -> np.ndarray:
    """Fourier multiplier of d/dz_j (or d/dzbar_j), broadcastable to grid shape.

    d/dz_j    -> (i*kx + ky)/2
    d/dzbar_j -> (i*kx - ky)/2
    """
    kx, ky = grid.along_axes(grid.wavenumbers())[2 * j : 2 * j + 2]
    sign = -1.0 if conjugate else 1.0
    return 0.5 * (1j * kx + sign * ky)


def dz_array(grid: GridSpec, arr: np.ndarray, j: int, conjugate: bool = False,
             slices=None) -> np.ndarray:
    """Spectral d/dz_j (or d/dzbar_j) of an array, transforming only the plane of z_j.

    Leading axes must be the grid axes; any trailing axes are treated as
    components and differentiated entrywise.  This is _plane_derivatives
    with one target, a new array, and the same slices.
    """
    return _plane_derivatives(grid, arr, j, [(None, 1, conjugate)], slices)[0]


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


# Bytes of complex128 in one block of _plane_derivatives.  The block's plane
# spectrum and one work copy of it stay in the 2 MiB L2 of the benchmark host
# (perfbench/baseline.json) through the forward passes, the multiplier, the
# inverse passes and the write, where a whole 16 MiB field streams through
# memory once per pass.  Of 256 KiB to 4 MiB, 1 MiB gave the fastest
# derivatives of a 32^4 field on that host.
_BLOCK_BYTES = 2**20


def _merged(grid: GridSpec, arr: np.ndarray, j: int) -> np.ndarray:
    """arr with the two grid axes of the other complex plane than j merged into one index.

    The merged index runs over that plane's points in C order, and the
    result is a view of arr, never a copy: None when the strides do not
    allow one (the two axes are not one run of memory, as in a view with
    them swapped).
    """
    k = 2 if j == 0 else 0  # the other plane's first axis
    if arr.strides[k] != grid.N * arr.strides[k + 1]:
        return None
    return arr.reshape(arr.shape[:k] + (grid.N**2,) + arr.shape[k + 2 :])


def _support(grid: GridSpec, arr: np.ndarray) -> tuple:
    """(box, slices): where arr is not identically zero, from one np.any pass over it.

    Trailing component axes are collapsed and a NaN counts as nonzero; a
    bool arr of the grid's shape is that collapsed mask already, and is read
    as it is.  box
    is the bounding box of the nonzeros on each grid axis, as basic slices
    of the lattice indices, not taken periodically: a support that crosses
    the seam spans the whole axis, and an all-zero arr gives slice(0, 0) on
    every axis.  slices[k] is the bool array of the points of the other
    planes than k where arr is live, the live slices of a derivative in
    plane k: (N, N) at n = 2, and at n = 1 a 0-d array, whether arr is
    live at all.
    """
    dims = 2 * grid.n
    if arr.dtype == bool and arr.ndim == dims:
        live = arr
    else:
        live = np.any(arr, axis=tuple(range(dims, arr.ndim)))
    slices = tuple(live.any(axis=(2 * k, 2 * k + 1)) for k in range(grid.n))
    box = []
    for k in range(grid.n):
        # plane k's points where arr is live: the box's two axes are read off
        # it, as a reduction of live that keeps an inner axis is slow
        shadow = live.any(axis=tuple(a for a in range(dims) if a // 2 != k))
        for other in (1, 0):
            kept = np.flatnonzero(shadow.any(axis=other))
            box.append(slice(int(kept[0]), int(kept[-1]) + 1) if kept.size else slice(0, 0))
    return tuple(box), slices


def _blocks(grid: GridSpec, arr: np.ndarray, j: int, slices=None) -> list:
    """Index tuples of the blocks of arr's slices to transform, for derivatives in plane j.

    A slice is one point of the other complex plane, with plane j's two axes
    and every trailing component axis whole.  Without slices the slices to
    transform are the live ones, where np.any over the slice is true (a NaN
    is nonzero), since a dead slice has derivative exactly 0.  slices, an
    (N, N) bool array over the other plane's points, names them instead and
    arr is not scanned.  A block is a run of consecutive slices to transform
    of _merged(grid, arr, j), indexed there, of at most a power of two of
    whole rows of the other plane's outer axis in _BLOCK_BYTES of
    complex128; so on a dense array the blocks are runs of whole rows.  One
    block (...) covers an array with every slice to transform that fits the
    budget, or whose single row exceeds it (n = 2 at N >= 64, where
    splitting a row was measured no faster than the unblocked transform;
    such runs are not split), an array at n = 1, which has no other plane
    and takes no test, and an array whose other plane's axes do not merge
    into one index without a copy; these last two take no slices either.
    """
    flat = _merged(grid, arr, j) if grid.n == 2 else None
    if flat is None:
        return [np.s_[...]]
    axis = 2 if j == 0 else 0  # the merged index
    if slices is None:
        live = np.any(flat, axis=tuple(a for a in range(flat.ndim) if a != axis))
    else:
        live = slices.reshape(-1)
    line = 16 * math.prod(arr.shape) // grid.N**2  # bytes of complex128 in one slice
    rows = _BLOCK_BYTES // (line * grid.N)  # whole rows of the outer axis in one block
    per = grid.N * (1 << (rows.bit_length() - 1)) if 0 < rows < grid.N else grid.N**2
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
    if per == grid.N**2 and edges.tolist() == [0, grid.N**2]:
        return [np.s_[...]]
    index = [slice(None)] * (axis + 1)
    blocks = []
    for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
        for first in range(start, stop, per):
            index[axis] = slice(first, min(first + per, stop))
            blocks.append(tuple(index))
    return blocks


def _plane_derivatives(grid: GridSpec, arr: np.ndarray, j: int, targets: list,
                       slices=None) -> list:
    """d/dz_j or d/dzbar_j of arr into every target (dst, sign, conjugate), block by block.

    A target whose dst is None gets a new array; any other gets dst += sign
    * the derivative (sign +-1), written through views of dst, so a strided
    dst (a slot of a slot-major form) is filled in place.  Returns each
    target's array.  Trailing component axes of arr are differentiated
    entrywise.

    Each block of _blocks is copied in (a real input is cast there) and
    transformed forward over (x_j, y_j) once; per target, its multiplier is
    applied, multiplier first, which fixes the product's rounding, then the
    block is inverted over the same axes and written out, the last target
    in the spectrum's own buffer.  Every line and every point takes the
    arithmetic of scipy.fft.ifftn(multiplier * scipy.fft.fftn(arr,
    axes=plane)), bit for bit.  A slice not transformed is not copied,
    multiplied or added: a new-array target is allocated with np.zeros, so
    there it is exactly +0.0, and a target view is left as it was.  An
    array of one block (...) is transformed into a new array with no copy
    in, and a new-array target keeps its result.

    slices, if given, is an (N, N) bool array over the other plane's points,
    the slices the caller reads (such as _support's of another field):
    exactly those are transformed, and arr is not scanned.  A plane-j
    derivative acts slice by slice, so every target is exact on those
    slices whatever arr holds on the others; a dead slice among them
    transforms to exact zeros, at the cost of its passes, so a caller gives
    the slices where arr is live, or a mask it knows holds no dead one.
    """
    if arr.shape[: 2 * grid.n] != grid.shape:
        raise FormError(f"array shape {arr.shape} does not start with grid {grid.shape}")
    if not 0 <= j < grid.n:
        raise FormError(f"complex axis {j} out of range for n={grid.n}")
    blocks = _blocks(grid, arr, j, slices)
    whole = blocks == [np.s_[...]]
    src = arr if whole else _merged(grid, arr, j)
    x, y = (2 * j, 2 * j + 1) if whole else (j, j + 1)  # the plane's axes in src
    mults = []
    for _, _, conjugate in targets:
        mult = _dz_multiplier(grid, j, conjugate)
        if not whole:
            mult = mult.reshape((1,) * j + (grid.N, grid.N))
        mults.append(mult.reshape(mult.shape + (1,) * (src.ndim - mult.ndim)))
    outs = views = [dst for dst, _, _ in targets]
    if not whole:
        outs = [np.zeros(arr.shape, np.complex128) if dst is None else dst for dst in outs]
        views = [_merged(grid, out, j) for out in outs]
        if any(view is None for view in views):
            raise FormError("a target's grid axes outside plane j do not merge into one index")
    for block in blocks:
        if whole:
            spec = _transform(arr, (x, y), True)
        else:
            spec = src[block].astype(np.complex128, order="K")  # laid out as arr
            np.fft.fft(spec, axis=x, out=spec)
            np.fft.fft(spec, axis=y, out=spec)
        for t, (mult, (dst, sign, _)) in enumerate(zip(mults, targets)):
            out = np.multiply(mult, spec, out=spec if t == len(targets) - 1 else None)
            np.fft.ifft(out, axis=x, out=out)
            np.fft.ifft(out, axis=y, out=out)
            if outs[t] is None:  # one block, into a new array: out is the result
                outs[t] = out
            elif dst is None:
                views[t][block] = out
            else:
                add_signed(views[t][block], sign, out)
    return outs


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


def periodic_offset(grid: GridSpec, d):
    """Coordinate differences taken periodically, into [-L/2, L/2)."""
    return (d + 0.5 * grid.L) % grid.L - 0.5 * grid.L


def _interior_box(grid: GridSpec, margin: float) -> tuple:
    """The central box margin*L <= t < (1 - margin)*L on every axis, as basic slices."""
    if not 0 <= margin < 0.5:
        raise ValidationError(f"margin fraction must lie in [0, 0.5), got {margin}")
    t = grid.axis_coordinates()
    kept = np.flatnonzero((t >= margin * grid.L) & (t < (1.0 - margin) * grid.L))
    axis = slice(int(kept[0]), int(kept[-1]) + 1) if kept.size else slice(0, 0)
    return (axis,) * (2 * grid.n)


def region(grid: GridSpec, margin: float, poles=(), eps: float = 0.0) -> np.ndarray:
    """Where a floor holds: _interior_box's points, less those near a pole of the first plane.

    Near is a periodic distance of at most eps + 3 spacings, eps the radius of
    the mollifier the metric was averaged with (0 if none).
    """
    mask = np.zeros(grid.shape, dtype=bool)
    mask[_interior_box(grid, margin)] = True
    clear = eps + 3.0 * grid.spacing
    x, y = grid.along_axes(grid.axis_coordinates())[:2]
    for z0 in poles:
        dist2 = periodic_offset(grid, x - z0.real) ** 2 + periodic_offset(grid, y - z0.imag) ** 2
        mask &= dist2 > clear * clear
    return mask


def seam_leakage(density: np.ndarray, grid: GridSpec, margin_frac: float = SEAM_MARGIN) -> float:
    """Fraction of a nonnegative density living outside the interior box."""
    d = np.abs(np.asarray(density))
    total = d.sum()
    if total == 0.0:
        return 0.0
    inner = d[region(grid, margin_frac)].sum()
    return float((total - inner) / total)
