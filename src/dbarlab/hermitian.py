"""Chern connection, curvature, and the first-order form operators D', dbar, dbar^T.

The bundle is globally trivialized on the model domain, so dbar acts
componentwise and every curvature effect enters through the metric.  With
theta_j = h^{-1} d_j h the curvature coefficients are

    Theta_jk = -dbar_k(theta_j),

the sign coming from reordering dzbar_k wedge dz_j into the canonical frame;
for a line bundle this reduces to Theta_11 = -d ddbar log h entrywise, so the
weight e^{-|z|^2} has Theta_11 = 1 and i*Theta = omega.

Every derivative is a Fourier multiplier in one complex plane: d_k and
dbar_k transform only the real axes (x_k, y_k) of z_k, and invert only
those (grid._plane_derivatives).  The componentwise operators dbar, del and
the unweighted transpose dbar^T are rows of one cached table,
``_derivative_rows``: dbar's rows are grow_table's on the dzbar index with
the (-1)^p crossing, del's are grow_table's on the dz index, and dbar^T
reads dbar's rows backwards with -d_k.  ``_differentials`` applies any of
them direction by direction within each coefficient: every row in that
direction is a target of one kernel call, which transforms each block of
the coefficient forward once and adds each derivative into its slot block
by block (dbar_and_del serves both operators from it);
``hormander.dbar_transpose`` is one call of it.  The connection blocks
theta_j are d_j of each exponent phi_a = -log h_aa of a positive diagonal
metric (MetricField.diagonal_exponents), or of the matrix field of any
other, and the curvature blocks Theta_jk are dbar_k of theta_j, of each
diagonal entry on its own for a positive diagonal metric; each of these is
a single-use grid.dz_array.  For a positive diagonal metric theta_j and
Theta_jk are kept as their r diagonal fields and applied as elementwise
products; curvature and chern_connection write them into full r x r
blocks.  The Bochner-Kodaira pass calls connection_terms, where one set of
theta_j feeds both D'gamma and Theta ^ gamma.  D' and Theta wedge take
their insertion signs and target slots from ``exterior.grow_table`` too.

An identically zero coefficient (say the empty slot of a source filled in
one slot only) has derivative exactly 0: _differentials tests each source
coefficient once, in one pass over the field, and gives a zero one no
forward transform, no inverse and no add.  A NaN counts as nonzero.
connection_terms tests the coefficients of its form the same way and builds
theta_j and the blocks Theta_jk only for the directions j that grow a
nonzero one.  At n = 2 grid._plane_derivatives applies the same rule slice
by slice: a point of the other complex plane where the field is
identically zero over plane k and the components is a dead slice, and is
not transformed, so a coefficient of compact support (every field the
Bochner-Kodaira pass derives from its source bump) transforms only the
slices its support meets.  That slice test is one np.any pass per call,
and the coefficient test stays in front of it: a zero coefficient then
costs one pass instead of one per direction (dropping the coefficient test
measured 0-3% slower on the Bochner-Kodaira pass).  The rule is measured,
on 16 MiB fields on one core of a 2-vCPU Xeon: an np.any pass costs
0.7-0.9 ms, one product of two fields 2.2 ms, and one slot pair of
exterior.pairing 6.1 ms.  So a zero test pays where it can skip several
passes (a transform, or pairing's slot pairs), and is not made before a
single product, such as the connection term of dprime, where it costs a
large part of what it could save and a nonzero coefficient pays both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import FormError
from .grid import GridSpec, _plane_derivatives, add_signed, dz_array
from .metric import MetricField, matrix_apply
from .exterior import EForm, grow_table, hodge_star, index_tuples, omega_power, wedge

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


def _connection_blocks(h: MetricField, directions) -> tuple:
    """({j: theta_j}, diagonal): theta_j = h^{-1} d_j h for j in directions.

    For a positive diagonal metric theta_j is diag(-d_j phi_a), the same
    quantity computed from the smooth exponents instead of the matrix
    entries, and is kept as its diagonal: r fields, grid + (r,), each
    entry a contiguous grid block, and diagonal is True.  For any other
    metric theta_j is the whole block, grid + (r, r).  The exponents are
    derived once; each d_j transforms only the plane of z_j.
    """
    grid = h.grid
    phis = h.diagonal_exponents()
    if phis is None:
        hinv = h.inverse_mat()
        return {j: hinv @ dz_array(grid, h.mat, j) for j in directions}, False
    # each diagonal entry a contiguous grid block, as a form's slot-major coefficients are
    blocks = {j: np.moveaxis(np.empty((h.rank,) + grid.shape, np.complex128), 0, -1)
              for j in directions}
    for a, phi in enumerate(phis):
        for j, block in blocks.items():
            np.negative(dz_array(grid, phi, j), out=block[..., a])
    return blocks, True


def _apply(block: np.ndarray, diagonal: bool, vec: np.ndarray) -> np.ndarray:
    """block @ vec pointwise on the bundle index; a diagonal block is grid + (r,).

    For finite data the diagonal's elementwise product equals matrix_apply
    of the block with zero off-diagonal entries, up to the sign of zeros.
    """
    return block * vec if diagonal else matrix_apply(block, vec)


def _curvature_block(grid: GridSpec, theta_j: np.ndarray, diagonal: bool, k: int,
                     out: np.ndarray) -> None:
    """Write Theta_jk = -dbar_k(theta_j) into out, of theta_j's shape.

    A diagonal theta_j takes r derivatives, one per entry, instead of r^2.
    """
    entries = [np.s_[..., a] for a in range(theta_j.shape[-1])] if diagonal else [np.s_[...]]
    for entry in entries:
        np.negative(dz_array(grid, theta_j[entry], k, True), out=out[entry])


def _block_view(out: np.ndarray, diagonal: bool) -> np.ndarray:
    """out, a grid + (r, r) block, or for a diagonal block the writable view of its diagonal."""
    return np.einsum("...aa->...a", out) if diagonal else out


def chern_connection(h: MetricField) -> np.ndarray:
    """Connection coefficients theta_j = h^{-1} d_j h, shape grid + (n, r, r)."""
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, h.rank, h.rank), dtype=np.complex128)
    blocks, diagonal = _connection_blocks(h, range(n))
    for j, theta_j in blocks.items():
        _block_view(out[..., j, :, :], diagonal)[...] = theta_j
    return out


def curvature(h: MetricField) -> CurvatureField:
    """Curvature coefficients Theta_jk = -dbar_k(theta_j), shape grid + (n, n, r, r).

    The connection blocks theta_j are d_j of each exponent (or of the matrix
    field), and Theta_jk is dbar_k of theta_j, of each diagonal entry
    separately for a positive diagonal metric.  Each of these n + n^2
    derivatives transforms one complex plane forward and back: 4n(n + 1)
    one-axis FFT passes per exponent, or per matrix field.
    """
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, n, h.rank, h.rank), dtype=np.complex128)
    blocks, diagonal = _connection_blocks(h, range(n))
    for j, theta_j in blocks.items():
        for k in range(n):
            _curvature_block(h.grid, theta_j, diagonal, k,
                             _block_view(out[..., j, k, :, :], diagonal))
    return CurvatureField(h.grid, h.rank, out)


# per operator: whether its multiplier is dbar_k (else d_k), and its bidegree step
_OPERATORS = {"dbar": (True, 0, 1), "del": (False, 1, 0), "dbar_transpose": (False, 0, -1)}


@lru_cache(maxsize=64)
def _derivative_rows(n: int, p: int, q: int, op: str) -> tuple:
    """Rows (src, k, dst, sign) of op on (p,q)-forms: out_dst += sign * d_k a_src.

    src and dst are (dz slot, dzbar slot) pairs and d_k is op's multiplier in
    direction k.  dbar grows the dzbar set by k, with the (-1)^p crossing of
    dzbar_k past dz_I; del grows the dz set.  dbar^T reads dbar's rows from
    (p, q-1) backwards, with -d_k: the Nyquist-zeroed multipliers make each
    d_k skew-adjoint, so -d_k is the l2 adjoint of dbar_k.  Every sign and
    slot is a row of grow_table.
    """
    if op == "dbar_transpose":
        return tuple((dst, k, src, -sign)
                     for src, k, dst, sign in _derivative_rows(n, p, q - 1, "dbar"))
    if op == "dbar":
        crossing = (-1) ** p
        return tuple(((i, src), k, (i, dst), crossing * sign)
                     for src, k, dst, sign in grow_table(n, q)
                     for i in range(len(index_tuples(n, p))))
    return tuple(((src, j), k, (dst, j), sign)
                 for src, k, dst, sign in grow_table(n, p)
                 for j in range(len(index_tuples(n, q))))


def _differentials(a: EForm, ops: tuple) -> list:
    """The operators ops (keys of _OPERATORS) of a, one plane transform per coefficient and k.

    Each applies its _derivative_rows.  Within a coefficient the directions
    k are taken in turn, and every row in direction k (dbar's and del's
    together) is a target of one grid._plane_derivatives call, which adds
    the derivative into its slot block by block: no full-grid derivative
    exists.  A source slot meets each target slot in one direction only, so
    every target sums its terms in row order.  A coefficient that is
    identically zero is skipped, as its rows would add exact zeros.
    """
    grid = a.grid
    outs, rows = [], []
    for op in ops:
        conjugate, dp, dq = _OPERATORS[op]
        out = EForm.zeros(grid, a.rank, a.p + dp, a.q + dq)
        outs.append(out)
        rows += [(src, k, out.coeffs[..., i, j, :], sign, conjugate)
                 for src, k, (i, j), sign in _derivative_rows(grid.n, a.p, a.q, op)]
    for src in product(*map(range, a.coeffs.shape[-3:-1])):
        coeff = a.coeffs[..., src[0], src[1], :]
        if not np.any(coeff):
            continue
        for k in range(grid.n):
            targets = [row[2:] for row in rows if row[:2] == (src, k)]
            if targets:
                _plane_derivatives(grid, coeff, k, targets)
    return outs


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
    return _differentials(a, ("dbar",))[0]


def dpartial(a: EForm) -> EForm:
    """Componentwise spectral del (the (1,0)-differential, no connection term)."""
    if a.p == a.grid.n:
        raise FormError(
            f"del target bidegree ({a.p + 1},{a.q}) exceeds n={a.grid.n}; "
            "top-holomorphic-degree del vanishes identically"
        )
    return _differentials(a, ("del",))[0]


def dbar_and_del(a: EForm) -> tuple:
    """(dbar a, del a) from one forward transform of each coefficient of a.

    A target bidegree past n raises FormError, from EForm.zeros.
    """
    return tuple(_differentials(a, ("dbar", "del")))


def _check_connection_operand(a: EForm, h: MetricField):
    if a.q != 0:
        raise FormError(
            f"D' is only applied to (q,0)-forms here, got bidegree ({a.p},{a.q})"
        )
    if h.grid != a.grid or h.rank != a.rank:
        raise FormError("metric does not match the form")


def _add_connection(out: EForm, a: EForm, theta: dict, diagonal: bool, rows) -> None:
    """out += theta ^ a over the grow_table rows of the (q,0)-form a; theta is {j: theta_j}."""
    for src, j, dst, sign in rows:
        add_signed(out.coeffs[..., dst, 0, :], sign,
                   _apply(theta[j], diagonal, a.coeffs[..., src, 0, :]))


def _add_curvature_term(out: EForm, a: EForm, j: int, k: int, block, diagonal: bool,
                        rows) -> None:
    """out += the terms Theta_jk a_I dz_j ^ dzbar_k ^ dz_I of Theta ^ a, block = Theta_jk.

    At n <= 2 each target slot takes at most two terms, so adding them j by j
    rounds as adding them in grow_table order does.
    """
    crossing = (-1) ** a.p  # dzbar_k crossing dz_I
    for src, j_row, dst, sign in rows:
        if j_row == j:
            add_signed(out.coeffs[..., dst, k, :], crossing * sign,
                       _apply(block, diagonal, a.coeffs[..., src, 0, :]))


def dprime(a: EForm, h: MetricField) -> EForm:
    """D' = del + theta wedge on (q,0)-forms, the (1,0)-part of the Chern connection."""
    _check_connection_operand(a, h)
    out = dpartial(a)
    _add_connection(out, a, *_connection_blocks(h, range(a.grid.n)), grow_table(a.grid.n, a.p))
    return out


def connection_terms(a: EForm, h: MetricField, del_a: EForm) -> EForm:
    """Theta ^ a for a (q,0)-form a; adds theta ^ a to del_a = dpartial(a), making it D'a.

    Each coefficient of a is tested once, and theta_j is built only for the
    directions j that grow a nonzero one; theta_j feeds both D'a and the
    curvature blocks Theta_jk = -dbar_k(theta_j).  theta_j goes once its
    last block is formed, and each block is applied as soon as it is formed,
    in one buffer per j, so no curvature field exists.
    """
    _check_connection_operand(a, h)
    live = [np.any(c) for c in np.moveaxis(a.coeffs[..., 0, :], -2, 0)]
    rows = [row for row in grow_table(a.grid.n, a.p) if live[row[0]]]
    theta, diagonal = _connection_blocks(h, sorted({j for _, j, _, _ in rows}))
    _add_connection(del_a, a, theta, diagonal, rows)
    out = EForm.zeros(a.grid, a.rank, a.p + 1, 1)
    for j in list(theta):
        theta_j = theta.pop(j)
        block = np.empty_like(theta_j)
        for k in range(a.grid.n):
            _curvature_block(a.grid, theta_j, diagonal, k, block)
            _add_curvature_term(out, a, j, k, block, diagonal, rows)
        del theta_j, block  # before the next theta_j's blocks are formed
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
            _add_curvature_term(out, a, j, k, theta.theta[..., j, k, :, :], False, rows)
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
