"""Chern connection, curvature, and the bundle operators D', dbar, dbar*_h.

The bundle is globally trivialized on the model domain, so dbar acts
componentwise and every curvature effect enters through the metric.  With
theta_j = h^{-1} d_j h the curvature coefficients are

    Theta_jk = -dbar_k(theta_j),

the sign coming from reordering dzbar_k wedge dz_j into the canonical frame;
for a line bundle this reduces to Theta_11 = -d ddbar log h entrywise, so the
weight e^{-|z|^2} has Theta_11 = 1 and i*Theta = omega.

Every derivative is a Fourier multiplier, and each input field is forward
transformed once: dbar and del transform each coefficient once and apply
the multiplier of every direction k to that one spectrum, the connection
transforms each exponent (or the matrix field) once, and the curvature
transforms each exponent and each first derivative once for all second
directions.  dbar, del, D' and Theta wedge take their insertion signs and
target slots from one table, ``exterior.grow_table``.

An identically zero coefficient (say the empty slot of a source filled in
one slot only) has derivative exactly 0: dbar and del test each source
coefficient once, on its real and imaginary parts, and give a zero one no
forward transform, no inverse and no add.  A NaN counts as nonzero.  The
pointwise products (pairing, wedge, the connection term of D') make no such
test, as it would cost as much as the product it saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormError
from .grid import GridSpec, from_spectrum, to_spectrum
from .metric import MetricField, dual_metric, matrix_apply
from .exterior import EForm, add_signed, grow_table, hodge_star, omega_power, wedge

__all__ = [
    "MetricField",
    "dual_metric",
    "CurvatureField",
    "chern_connection",
    "curvature",
    "curvature_wedge",
    "dbar",
    "dpartial",
    "dprime",
    "dbar_star_formal",
    "adjoint_from_dprime",
]


@dataclass
class CurvatureField:
    """Coefficient matrices Theta_jk of the curvature (1,1)-form.

    theta has shape grid.shape + (n, n, r, r); hermitian block symmetry
    h Theta_jk = (h Theta_kj)^H holds at unmasked points up to discretization.
    """

    grid: GridSpec
    rank: int
    theta: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        expected = self.grid.shape + (n, n, self.rank, self.rank)
        self.theta = np.asarray(self.theta, dtype=np.complex128)
        if self.theta.shape != expected:
            raise FormError(f"curvature shape {self.theta.shape} does not match {expected}")

    @classmethod
    def constant(cls, grid: GridSpec, rank: int, blocks: np.ndarray) -> "CurvatureField":
        """Curvature with the same (n, n, r, r) coefficient blocks at every point.

        theta is a read-only broadcast view of one copy of the blocks.
        """
        blocks = np.array(blocks, dtype=np.complex128)
        return cls(grid, rank, np.broadcast_to(blocks, grid.shape + blocks.shape))

    def hermitian_defect(self, h: MetricField) -> float:
        """Max relative violation of h Theta_jk = (h Theta_kj)^H off the mask."""
        hT = np.einsum("...ac,...jkcb->...jkab", h.mat, self.theta)
        swapped = np.conj(np.swapaxes(hT, -1, -2)).swapaxes(-4, -3)
        defect = np.abs(hT - swapped).max(axis=(-4, -3, -2, -1))
        scale = np.abs(hT).max(axis=(-4, -3, -2, -1))
        keep = h.unmasked()
        top = defect[keep].max()
        denom = max(scale[keep].max(), 1e-300)
        return float(top / denom)


def chern_connection(h: MetricField) -> np.ndarray:
    """Connection coefficients theta_j = h^{-1} d_j h, shape grid + (n, r, r).

    For metrics carrying diagonal exponents this is diag(-d_j phi_a), the same
    quantity computed from the smooth exponent instead of the matrix entries.
    Each exponent (or the matrix field) is transformed once for all j.
    """
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, h.rank, h.rank), dtype=np.complex128)
    if h.diag_log_weights is not None:
        for a, phi in enumerate(h.diag_log_weights):
            spec = to_spectrum(h.grid, phi.astype(np.complex128))
            for j in range(n):
                out[..., j, a, a] = -from_spectrum(h.grid, spec, j)
        return out
    hinv = h.inverse_mat()
    spec = to_spectrum(h.grid, h.mat)
    for j in range(n):
        out[..., j, :, :] = hinv @ from_spectrum(h.grid, spec, j)
    return out


def curvature(h: MetricField) -> CurvatureField:
    """Curvature coefficients Theta_jk = -dbar_k(h^{-1} d_j h).

    Diagonal-exponent metrics reduce entrywise to d_j dbar_k phi_a: each
    exponent is transformed once, and each d_j phi_a once for all k.  A single
    product multiplier would save n transforms, but its roundoff moves the
    integrated identity residual (a ~1e-5 cancellation) by ~1e-11 of itself.
    """
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, n, h.rank, h.rank), dtype=np.complex128)
    if h.diag_log_weights is not None:
        for a, phi in enumerate(h.diag_log_weights):
            spec = to_spectrum(h.grid, phi.astype(np.complex128))
            for j in range(n):
                dphi = from_spectrum(h.grid, spec, j)
                dspec = to_spectrum(h.grid, dphi)
                for k in range(n):
                    out[..., j, k, a, a] = from_spectrum(h.grid, dspec, k, True)
        return CurvatureField(h.grid, h.rank, out)
    theta_conn = chern_connection(h)
    for j in range(n):
        spec = to_spectrum(h.grid, theta_conn[..., j, :, :])
        for k in range(n):
            out[..., j, k, :, :] = -from_spectrum(h.grid, spec, k, True)
    return CurvatureField(h.grid, h.rank, out)


def _differential(a: EForm, conjugate: bool) -> EForm:
    """Componentwise spectral dbar (conjugate) or del, one forward transform per coefficient.

    The coefficient a_IJ contributes s * d_k a_IJ to the slot of the index set
    grown by k, for every k outside it: the dzbar set J for dbar, with the
    (-1)^p crossing of dzbar_k past dz_I, and the dz set I for del.  The signs
    and slots are the rows of grow_table.  A coefficient that is identically
    zero is skipped: its rows would add exact zeros.
    """
    out = EForm.zeros(a.grid, a.rank, a.p + (not conjugate), a.q + conjugate)
    crossing = (-1) ** a.p if conjugate else 1
    # views with the grown index set on the second slot axis
    a_c, out_c = a.coeffs, out.coeffs
    if not conjugate:
        a_c, out_c = a_c.swapaxes(-3, -2), out_c.swapaxes(-3, -2)
    table = grow_table(a.grid.n, a.q if conjugate else a.p)
    for other in range(a_c.shape[-3]):
        spec_src = None
        for src, k, dst, sign in table:
            if src != spec_src:
                coeff, spec_src = a_c[..., other, src, :], src
                nonzero = coeff.real.any() or coeff.imag.any()
                spec = to_spectrum(a.grid, coeff) if nonzero else None
            if spec is not None:
                add_signed(out_c[..., other, dst, :], crossing * sign,
                           from_spectrum(a.grid, spec, k, conjugate))
    return out


def dbar(a: EForm) -> EForm:
    """Componentwise spectral dbar with multi-index insertion signs.

    dbar of a (p,n)-form vanishes identically and has no representable
    bidegree, so that call raises; closedness checks treat q = n as closed.
    """
    if a.q == a.grid.n:
        raise FormError(
            f"dbar target bidegree ({a.p},{a.q + 1}) exceeds n={a.grid.n}; "
            "a top-degree form is automatically dbar-closed"
        )
    return _differential(a, conjugate=True)


def dpartial(a: EForm) -> EForm:
    """Componentwise spectral del (the (1,0)-differential, no connection term)."""
    if a.p == a.grid.n:
        raise FormError(
            f"del target bidegree ({a.p + 1},{a.q}) exceeds n={a.grid.n}; "
            "top-holomorphic-degree del vanishes identically"
        )
    return _differential(a, conjugate=False)


def dprime(a: EForm, h: MetricField) -> EForm:
    """D' = del + theta wedge on (q,0)-forms, the (1,0)-part of the Chern connection."""
    if a.q != 0:
        raise FormError(
            f"D' is only applied to (q,0)-forms here, got bidegree ({a.p},{a.q})"
        )
    if h.grid != a.grid or h.rank != a.rank:
        raise FormError("metric does not match the form")
    out = dpartial(a)
    theta_conn = chern_connection(h)
    for src, j, dst, sign in grow_table(a.grid.n, a.p):
        add_signed(out.coeffs[..., dst, 0, :], sign,
                   matrix_apply(theta_conn[..., j, :, :], a.coeffs[..., src, 0, :]))
    return out


def curvature_wedge(theta: CurvatureField, a: EForm) -> EForm:
    """Theta wedge a for a (q,0)-form a: apply each Theta_jk and wedge dz_j ^ dzbar_k."""
    if a.q != 0:
        raise FormError(f"curvature wedge expects a (q,0)-form, got ({a.p},{a.q})")
    if theta.grid != a.grid or theta.rank != a.rank:
        raise FormError("curvature does not match the form")
    n = a.grid.n
    if a.p + 1 > n:
        raise FormError("curvature wedge target degree exceeds n")
    out = EForm.zeros(a.grid, a.rank, a.p + 1, 1)
    sign_q = (-1) ** a.p  # dzbar_k crossing dz_I
    for src, j, dst, sign in grow_table(n, a.p):
        s = sign_q * sign
        c = a.coeffs[..., src, 0, :]
        for k in range(n):
            add_signed(out.coeffs[..., dst, k, :], s,
                       matrix_apply(theta.theta[..., j, k, :, :], c))
    return out


def dbar_star_formal(beta: EForm, h: MetricField) -> EForm:
    """Formal adjoint of dbar on (n,p)-forms via D' gamma_beta = -i gamma_(dbar* beta).

    Computes gamma_beta, applies D', multiplies by i, and reconstructs the
    (n,p-1)-form by wedging back with omega^(p-1)/(p-1)!.
    """
    n = beta.grid.n
    if beta.p != n:
        raise FormError(f"dbar* expects an (n,p)-form, got ({beta.p},{beta.q})")
    p = beta.q
    if p < 1:
        raise FormError("dbar* requires p >= 1")
    return adjoint_from_dprime(dprime(hodge_star(beta), h), omega_power(beta.grid, p - 1))


def adjoint_from_dprime(dpg: EForm, om_p1: EForm) -> EForm:
    """dbar*_h beta = i D'gamma ^ om_p1 from D'gamma, gamma = *beta.

    om_p1 is omega^(p-1)/(p-1)!; callers that already hold D'gamma and
    om_p1 for other terms reuse both here.
    """
    return wedge(1j * dpg, om_p1)
