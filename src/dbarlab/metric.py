"""Hermitian metric fields on a trivialized rank-r bundle.

A metric is an r x r hermitian positive matrix per grid point.  Singular
metrics carry an explicit boolean mask of points where det h has (numerically)
reached zero; all quantitative claims elsewhere in the package are made off
the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormError, MetricError
from .grid import GridSpec

HERMITIAN_TOL = 1e-12


def matrix_apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Pointwise mat @ v on the bundle index ("...ab,...ijb->...ija").

    mat is grid + (r, r); vec is grid + (..., r) with any number of form slot
    axes in between, which ride along.  Written as multiply-adds over the
    small index b, into an array laid out as vec is (slot-major for a form's
    coefficients); at r = 1 this is one elementwise product.
    """
    m = mat.reshape(mat.shape[:-2] + (1,) * (vec.ndim - mat.ndim + 1) + mat.shape[-2:])
    out = np.multiply(m[..., 0], vec[..., :1], out=np.empty_like(vec))
    for b in range(1, mat.shape[-1]):
        out += m[..., b] * vec[..., b : b + 1]
    return out


def vector_inner(mat: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pointwise (s, t)_h = t^H h s for mat, a MetricField's h.mat or a view of it.

    Linear in s, conjugate-linear in t.  At rank 1 the metric is a real
    weight w = h_00: construction rejects non-finite entries and
    symmetrizes the imaginary part to exactly 0, so multiplying by the
    complex entry scales both parts by w with no other rounding.  This is
    conj(t) w s, two elementwise products.
    """
    if mat.shape[-1] == 1:
        out = np.conj(t[..., 0])
        out *= mat[..., 0, 0]
        out *= s[..., 0]
        return out
    return np.einsum("...a,...ab,...b->...", np.conj(t), mat, s)


@dataclass
class MetricField:
    """r x r hermitian matrix per grid point, with an optional singular mask."""

    grid: GridSpec
    rank: int
    mat: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        raw = np.asarray(self.mat)
        # converting a float64 input makes a new array whose imaginary parts are +0.0
        real = raw.dtype == np.float64
        self.mat = np.asarray(raw, dtype=np.complex128)
        expected = self.grid.shape + (self.rank, self.rank)
        if self.mat.shape != expected:
            raise FormError(f"metric shape {self.mat.shape} does not match {expected}")
        scale = np.abs(raw if real else self.mat).max()
        if not np.isfinite(scale):
            # a nan entry makes the max nan, an inf (or overflowing modulus) makes it inf
            raise MetricError("metric has a non-finite entry (nan or inf)")
        # the one place a metric is made hermitian: symmetrizing the roundoff away
        # leaves mat exactly hermitian, so downstream eigensolves stay clean.  At
        # rank 1, |h - conj(h)| = 2|Im h| and (h + conj(h))/2 = Re h + 0.0j, bit
        # for bit, without the general formula's full-grid temporaries; a
        # converted real input is already Re h + 0.0j.
        if self.rank == 1 and real:
            defect = 0.0
            hermitian = self.mat
        elif self.rank == 1:
            defect = 2 * np.abs(self.mat.imag).max()
            hermitian = self.mat.real.astype(np.complex128)
        else:
            adjoint = np.conj(np.swapaxes(self.mat, -1, -2))
            defect = np.abs(self.mat - adjoint).max()
            hermitian = 0.5 * (self.mat + adjoint)
        if scale > 0 and defect > HERMITIAN_TOL * scale * 10:
            raise MetricError(f"metric is not hermitian: defect {defect:.3e} vs scale {scale:.3e}")
        self.mat = hermitian
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.grid.shape:
                raise FormError("mask shape does not match the grid")

    @classmethod
    def identity(cls, grid: GridSpec, rank: int = 1) -> "MetricField":
        return cls.from_diagonal(grid, [np.ones(grid.shape)] * rank)

    @classmethod
    def from_weight(cls, grid: GridSpec, weight: np.ndarray, rank: int = 1) -> "MetricField":
        """Diagonal metric weight * I."""
        return cls.from_diagonal(grid, [weight] * rank)

    @classmethod
    def from_diagonal(cls, grid: GridSpec, weights) -> "MetricField":
        """Diagonal metric from positive scalar fields, each of the grid's shape."""
        rank = len(weights)
        if rank == 0:
            raise FormError("a diagonal metric needs at least one weight")
        for w in weights:
            if np.shape(w) != grid.shape:
                raise FormError(f"weight shape {np.shape(w)} does not match the grid {grid.shape}")
        if rank == 1:
            return cls(grid, 1, np.asarray(weights[0])[..., None, None])
        mat = np.zeros(grid.shape + (rank, rank), dtype=np.complex128)
        for a, w in enumerate(weights):
            mat[..., a, a] = w
        return cls(grid, rank, mat)

    def unmasked(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return ~self.mask

    def _diagonal(self) -> np.ndarray | None:
        """The diagonal entries, grid + (r,), when every off-diagonal entry is 0; else None."""
        diag = np.diagonal(self.mat, axis1=-2, axis2=-1)
        if self.rank == 1 or np.count_nonzero(self.mat) == np.count_nonzero(diag):
            return diag
        return None

    def diagonal_exponents(self) -> list | None:
        """[phi_a] with h = diag(exp(-phi_a)) when h is diagonal with positive entries, else None.

        Connection and curvature differentiate these smooth exponents instead of
        forming h^{-1} dh, which avoids amplifying spectral truncation noise by the
        weight's dynamic range; any other metric takes the h^{-1} dh route.
        """
        diag = self._diagonal()
        if diag is None or not (diag.real > 0).all():
            return None
        return [-np.log(diag[..., a].real) for a in range(self.rank)]

    def inverse_mat(self) -> np.ndarray:
        """Pointwise inverse; raises on an exactly singular unmasked point.

        A diagonal stack is inverted entrywise, which equals LAPACK's answer; any
        other stack, or a reciprocal that is not finite, goes to np.linalg.inv.
        """
        diag = self._diagonal()
        if diag is not None:
            inv = np.zeros_like(self.mat)
            with np.errstate(all="ignore"):
                recip = np.divide(1.0, diag, out=np.einsum("...aa->...a", inv))
            if np.isfinite(recip).all():
                return inv
        try:
            return np.linalg.inv(self.mat)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is singular at some grid point") from exc


def dual_metric(h: MetricField) -> MetricField:
    """Metric induced on the dual bundle: entrywise transpose of the inverse."""
    return MetricField(h.grid, h.rank, np.swapaxes(h.inverse_mat(), -1, -2), h.mask)
