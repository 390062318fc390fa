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
the multiplier of every direction k to that one spectrum (dbar_and_del
serves both from it), the connection blocks theta_j come from one transform
of each exponent (or of the matrix field), and the curvature row Theta_j.
from one transform of theta_j, of each diagonal entry on its own for
diagonal exponents.  curvature and chern_connection build every block; the
Bochner-Kodaira pass calls connection_terms, where one set of theta_j feeds
both D'gamma and Theta ^ gamma.  dbar, del, D' and Theta wedge take their
insertion signs and target slots from one table, ``exterior.grow_table``.

An identically zero coefficient (say the empty slot of a source filled in
one slot only) has derivative exactly 0: dbar and del test each source
coefficient once, on its real and imaginary parts, and give a zero one no
forward transform, no inverse and no add.  A NaN counts as nonzero.
connection_terms tests the coefficients of its form the same way and builds
theta_j and the blocks Theta_jk only for the directions j that grow a
nonzero one.  The other pointwise products (pairing, wedge, the connection
term of dprime) make no such test, as it would cost as much as the product
it saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormError
from .grid import GridSpec, from_spectrum, to_spectrum
from .metric import MetricField, matrix_apply
from .exterior import EForm, add_signed, grow_table, hodge_star, omega_power, wedge

__all__ = [
    "CurvatureField",
    "chern_connection",
    "curvature",
    "curvature_wedge",
    "dbar",
    "dpartial",
    "dbar_and_del",
    "dprime",
    "connection_terms",
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


def _connection_blocks(h: MetricField, directions) -> dict:
    """{j: theta_j} for each j in directions, theta_j = h^{-1} d_j h of shape grid + (r, r).

    For metrics carrying diagonal exponents this is diag(-d_j phi_a), the same
    quantity computed from the smooth exponent instead of the matrix entries.
    Each exponent (or the matrix field) is transformed once for all j.
    """
    grid = h.grid
    if h.diag_log_weights is None:
        hinv = h.inverse_mat()
        spec = to_spectrum(grid, h.mat)
        return {j: hinv @ from_spectrum(grid, spec, j) for j in directions}
    blocks = {j: np.zeros(grid.shape + (h.rank, h.rank), dtype=np.complex128) for j in directions}
    for a, phi in enumerate(h.diag_log_weights):
        spec = to_spectrum(grid, phi)
        for j, block in blocks.items():
            np.negative(from_spectrum(grid, spec, j), out=block[..., a, a])
    return blocks


def _curvature_spectra(h: MetricField, theta_j: np.ndarray) -> list:
    """(entry, spectrum) pairs from which every Theta_jk = -dbar_k(theta_j) is formed.

    The entry is the whole block, or, for metrics carrying diagonal exponents,
    each diagonal entry on its own (r transforms instead of r^2): theta_j is
    then diagonal.
    """
    if h.diag_log_weights is None:
        entries = [np.s_[...]]
    else:
        entries = [np.s_[..., a, a] for a in range(h.rank)]
    return [(entry, to_spectrum(h.grid, theta_j[entry])) for entry in entries]


def _curvature_block(grid: GridSpec, spectra: list, k: int, out: np.ndarray) -> None:
    """Write Theta_jk = -dbar_k(theta_j) into out (zero off the entries) from theta_j's spectra."""
    for entry, spec in spectra:
        np.negative(from_spectrum(grid, spec, k, True), out=out[entry])


def chern_connection(h: MetricField) -> np.ndarray:
    """Connection coefficients theta_j = h^{-1} d_j h, shape grid + (n, r, r)."""
    n = h.grid.n
    blocks = _connection_blocks(h, range(n))
    return np.stack([blocks[j] for j in range(n)], axis=-3)


def curvature(h: MetricField) -> CurvatureField:
    """Curvature coefficients Theta_jk = -dbar_k(theta_j), shape grid + (n, n, r, r).

    The connection blocks theta_j come from one transform of each exponent
    (or of the matrix field); each theta_j is transformed once for all k, each
    diagonal entry separately for metrics carrying diagonal exponents.  That
    is 1 + 2n + n^2 transforms per exponent, or per matrix field.
    """
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, n, h.rank, h.rank), dtype=np.complex128)
    for j, theta_j in _connection_blocks(h, range(n)).items():
        spectra = _curvature_spectra(h, theta_j)
        for k in range(n):
            _curvature_block(h.grid, spectra, k, out[..., j, k, :, :])
    return CurvatureField(h.grid, h.rank, out)


def _differentials(a: EForm, conjugates: tuple) -> list:
    """Componentwise spectral dbar (conjugate) and/or del, one forward transform per coefficient.

    The coefficient a_IJ contributes s * d_k a_IJ to the slot of the index set
    grown by k, for every k outside it: the dzbar set J for dbar, with the
    (-1)^p crossing of dzbar_k past dz_I, and the dz set I for del.  The signs
    and slots are the rows of grow_table.  One spectrum of a_IJ serves every
    requested differential; a coefficient that is identically zero is
    skipped, as its rows would add exact zeros.
    """
    n = a.grid.n
    plans = []
    for conjugate in conjugates:
        out = EForm.zeros(a.grid, a.rank, a.p + (not conjugate), a.q + conjugate)
        table = grow_table(n, a.q if conjugate else a.p)
        plans.append((out, conjugate, (-1) ** a.p if conjugate else 1, table))
    for i in range(a.coeffs.shape[-3]):
        for j in range(a.coeffs.shape[-2]):
            coeff = a.coeffs[..., i, j, :]
            if not (coeff.real.any() or coeff.imag.any()):
                continue
            spec = to_spectrum(a.grid, coeff)
            for out, conjugate, crossing, table in plans:
                for src, k, dst, sign in table:
                    if src != (j if conjugate else i):
                        continue
                    target = out.coeffs[..., i, dst, :] if conjugate else out.coeffs[..., dst, j, :]
                    add_signed(target, crossing * sign, from_spectrum(a.grid, spec, k, conjugate))
    return [out for out, *_ in plans]


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
    return _differentials(a, (True,))[0]


def dpartial(a: EForm) -> EForm:
    """Componentwise spectral del (the (1,0)-differential, no connection term)."""
    if a.p == a.grid.n:
        raise FormError(
            f"del target bidegree ({a.p + 1},{a.q}) exceeds n={a.grid.n}; "
            "top-holomorphic-degree del vanishes identically"
        )
    return _differentials(a, (False,))[0]


def dbar_and_del(a: EForm) -> tuple:
    """(dbar a, del a) from one forward transform of each coefficient of a.

    A target bidegree past n raises FormError, from EForm.zeros.
    """
    return tuple(_differentials(a, (True, False)))


def _check_connection_operand(a: EForm, h: MetricField):
    if a.q != 0:
        raise FormError(
            f"D' is only applied to (q,0)-forms here, got bidegree ({a.p},{a.q})"
        )
    if h.grid != a.grid or h.rank != a.rank:
        raise FormError("metric does not match the form")


def _add_connection(out: EForm, a: EForm, theta: dict, rows) -> None:
    """out += theta ^ a over the grow_table rows of the (q,0)-form a; theta is {j: theta_j}."""
    for src, j, dst, sign in rows:
        add_signed(out.coeffs[..., dst, 0, :], sign,
                   matrix_apply(theta[j], a.coeffs[..., src, 0, :]))


def _add_curvature_term(out: EForm, a: EForm, j: int, k: int, block, rows) -> None:
    """out += the terms Theta_jk a_I dz_j ^ dzbar_k ^ dz_I of Theta ^ a, block = Theta_jk.

    At n <= 2 each target slot takes at most two terms, so adding them j by j
    rounds as adding them in grow_table order does.
    """
    crossing = (-1) ** a.p  # dzbar_k crossing dz_I
    for src, j_row, dst, sign in rows:
        if j_row == j:
            add_signed(out.coeffs[..., dst, k, :], crossing * sign,
                       matrix_apply(block, a.coeffs[..., src, 0, :]))


def dprime(a: EForm, h: MetricField) -> EForm:
    """D' = del + theta wedge on (q,0)-forms, the (1,0)-part of the Chern connection."""
    _check_connection_operand(a, h)
    out = dpartial(a)
    _add_connection(out, a, _connection_blocks(h, range(a.grid.n)), grow_table(a.grid.n, a.p))
    return out


def connection_terms(a: EForm, h: MetricField, del_a: EForm) -> EForm:
    """Theta ^ a for a (q,0)-form a; adds theta ^ a to del_a = dpartial(a), making it D'a.

    Each coefficient of a is tested once, and theta_j is built only for the
    directions j that grow a nonzero one: one transform of each exponent (or
    of the matrix field) gives every theta_j, which feeds both D'a and the
    curvature blocks Theta_jk = -dbar_k(theta_j).  theta_j goes once it is
    transformed, and each block is applied as soon as it is formed, in one
    buffer per j, so no curvature field exists.
    """
    _check_connection_operand(a, h)
    live = [c.real.any() or c.imag.any() for c in np.moveaxis(a.coeffs[..., 0, :], -2, 0)]
    rows = [row for row in grow_table(a.grid.n, a.p) if live[row[0]]]
    theta = _connection_blocks(h, sorted({j for _, j, _, _ in rows}))
    _add_connection(del_a, a, theta, rows)
    out = EForm.zeros(a.grid, a.rank, a.p + 1, 1)
    for j in list(theta):
        spectra = _curvature_spectra(h, theta.pop(j))
        block = np.zeros(a.grid.shape + (a.rank, a.rank), dtype=np.complex128)
        for k in range(a.grid.n):
            _curvature_block(a.grid, spectra, k, block)
            _add_curvature_term(out, a, j, k, block, rows)
        del spectra, block  # before the next theta_j is transformed
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
    rows = grow_table(n, a.p)
    for j in range(n):
        for k in range(n):
            _add_curvature_term(out, a, j, k, theta.theta[..., j, k, :, :], rows)
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
