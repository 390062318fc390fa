"""Quantitative curvature positivity: Griffiths and Nakano floors.

At each grid point the Nakano quadratic form on n-tuples of sections is the
nr x nr hermitian matrix with (k,j) block h Theta_jk, measured against the
Gram I_n (x) h.  Both floors read one whitened stack
W_kj = C^{-1} sym(h Theta)_jk C^{-H}, with C the Cholesky factor of h: the
Nakano floor is the smallest eigenvalue of the nr x nr matrix of blocks W_kj,
and the Griffiths floor, which restricts to decomposable tuples s_j = xi_j s,
is the smallest eigenvalue of sum_jk conj(xi_k) xi_j W_kj over the
directions xi.  When every tuple is decomposable (n = 1 or rank 1) the two
coincide exactly; otherwise xi is scanned over a net on the complex
projective line with local refinement around the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureSymmetryError, MetricError, PreconditionError
from .exterior import (
    add_signed, c_const, dv_density, grow_table, norm_sq, omega_power, pairing, wedge,
)
from .hermitian import CurvatureField, curvature_wedge
from .metric import MetricField, matrix_apply, vector_inner

SYMMETRY_TOL = 1e-6
NET_SIDE = 16        # the direction net is NET_SIDE x NET_SIDE points (t, phi) on CP^1
REFINE_PASSES = 2    # each pass rescans 7 x 7 points at a fifth of the previous spacing


@dataclass
class PositivityReport:
    """Extracted curvature floors (or caps, for mode='upper').

    net_error is the change of the Griffiths extremum over the last
    refinement pass of the direction net: a heuristic spread, not a bound.
    It is 0 where the Griffiths floor is exact (n = 1 or rank 1).
    """

    delta_griffiths: float
    delta_nakano: float
    argmin_griffiths: tuple
    argmin_nakano: tuple
    direction: np.ndarray          # xi at the Griffiths extremum
    section: np.ndarray            # whitened eigenvector at the Nakano extremum
    mode: str = "lower"
    net_error: float = 0.0

    def __post_init__(self):
        tol = 1e-9 * max(1.0, abs(self.delta_griffiths)) + self.net_error
        if self.delta_nakano > self.delta_griffiths + tol:
            raise PreconditionError(
                "nakano floor exceeds griffiths floor, extraction is inconsistent"
            )


def _check_block_symmetry(M: np.ndarray, tol: float):
    defect = np.abs(M - np.conj(np.swapaxes(M, -1, -2))).max()
    scale = max(np.abs(M).max(), 1e-300)
    if defect > tol * scale:
        raise CurvatureSymmetryError(
            f"curvature violates hermitian block symmetry: {defect:.3e} vs scale {scale:.3e}"
        )


def _whiten(M: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """C^{-1} M C^{-H} for stacked Cholesky factors C."""
    try:
        Cinv = np.linalg.inv(chol)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric Cholesky factor is singular at some unmasked point") from exc
    return Cinv @ M @ np.conj(np.swapaxes(Cinv, -1, -2))


def _whitened_blocks(h: MetricField, theta: CurvatureField, region, symmetry_tol: float):
    """(keep, W) with W[k, j, p] = C^{-1} sym(h Theta)_jk C^{-H} at the p-th kept point.

    keep is the unmasked part of region.  sym takes the hermitian part of the
    nr x nr Nakano matrix M[(k,a),(j,b)] = (h Theta_jk)_ab, after checking
    that M is hermitian to symmetry_tol of its scale.
    """
    n, r = h.grid.n, h.rank
    keep = h.unmasked()
    if region is not None:
        keep = keep & region
    if not keep.any():
        raise PreconditionError("no unmasked points in the requested region")
    hm = h.mat[keep]
    hT = np.einsum("...ac,...jkcb->...jkab", hm, theta.theta[keep])
    M = np.transpose(hT, (0, 2, 3, 1, 4)).reshape(hm.shape[0], n * r, n * r)
    del hT  # M is a reordered copy
    _check_block_symmetry(M, symmetry_tol)
    M = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
    try:
        chol = np.linalg.cholesky(hm)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric is not positive definite at some unmasked point") from exc
    blocks = M.reshape(hm.shape[0], n, r, n, r).transpose(1, 3, 0, 2, 4)
    return keep, _whiten(blocks, chol)


def _coords(keep, flat: int) -> tuple:
    return tuple(int(c) for c in np.argwhere(keep)[flat])


def nakano_report(
    h: MetricField,
    theta: CurvatureField,
    region=None,
    mode: str = "lower",
    symmetry_tol: float = SYMMETRY_TOL,
) -> tuple:
    """(delta, argmin point, whitened eigenvector) of the Nakano quadratic form."""
    keep, W = _whitened_blocks(h, theta, region, symmetry_tol)
    n, points, r = W.shape[0], W.shape[2], W.shape[-1]
    vals, vecs = np.linalg.eigh(W.transpose(2, 0, 3, 1, 4).reshape(points, n * r, n * r))
    if mode == "lower":
        pick = vals[:, 0]
        flat = int(np.argmin(pick))
        vec = vecs[flat, :, 0]
    else:
        pick = vals[:, -1]
        flat = int(np.argmax(pick))
        vec = vecs[flat, :, -1]
    return float(pick[flat]), _coords(keep, flat), vec


def nakano_delta(
    h: MetricField, theta: CurvatureField, region=None, symmetry_tol: float = SYMMETRY_TOL
) -> float:
    """Grid minimum of the smallest generalized Nakano eigenvalue."""
    return nakano_report(h, theta, region, symmetry_tol=symmetry_tol)[0]


def _decomposable_report(nakano: tuple, rank: int) -> tuple:
    """The Griffiths report from the Nakano one when every tuple is decomposable.

    At n = 1 the direction is the single coordinate; at rank 1 the Nakano
    eigenvector is the tuple xi_j s itself, which whitening scales by one
    common factor, so its normalization is the direction.
    """
    delta, coords, vec = nakano
    xi = vec / np.linalg.norm(vec) if rank == 1 else np.ones(1, dtype=np.complex128)
    return delta, coords, xi, 0.0


def _direction(t: float, phi: float) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t) * np.exp(1j * phi)])


def griffiths_report(
    h: MetricField,
    theta: CurvatureField,
    region=None,
    mode: str = "lower",
    symmetry_tol: float = SYMMETRY_TOL,
) -> tuple:
    """(delta, argmin point, xi, net_error) for the Griffiths quadratic form.

    At n = 1 or rank 1 every tuple is decomposable, so this is the Nakano
    extraction and net_error is 0.  Otherwise (n = 2) it scans a
    NET_SIDE x NET_SIDE direction net on CP^1, then refines REFINE_PASSES
    times around the best direction.  net_error is the change of the
    extremum over the last refinement pass: a heuristic spread between
    passes, not a bound on the distance to the true floor.
    """
    n, r = h.grid.n, h.rank
    if n == 1 or r == 1:
        return _decomposable_report(nakano_report(h, theta, region, mode, symmetry_tol), r)
    keep, W = _whitened_blocks(h, theta, region, symmetry_tol)
    rows = W.reshape(n * n, -1)
    # the extremum of the caps is minus the floor of -A, so one minimum serves both modes
    sign = 1.0 if mode == "lower" else -1.0
    ts = np.linspace(0.0, 0.5 * np.pi, NET_SIDE)
    phis = np.linspace(0.0, 2.0 * np.pi, NET_SIDE, endpoint=False)
    dt, dphi = ts[1] - ts[0], phis[1] - phis[0]
    best = (np.inf, None, None, None)
    for refinement in range(REFINE_PASSES + 1):
        if refinement:
            dt *= 0.2
            dphi *= 0.2
            ts = best[2] + dt * np.arange(-3, 4)
            phis = best[3] + dphi * np.arange(-3, 4)
        prev = best[0]
        for t in ts:
            for phi in phis:
                xi = _direction(t, phi)
                # A(xi) = sum_kj conj(xi_k) xi_j W_kj at every kept point, as one
                # (1 x n*n) @ (n*n x points*r*r) product; a 1-D left operand
                # would take the far slower matrix-vector route
                weights = (sign * np.outer(np.conj(xi), xi)).reshape(1, n * n)
                pick = np.linalg.eigvalsh((weights @ rows).reshape(-1, r, r))[:, 0]
                flat = int(np.argmin(pick))
                if pick[flat] < best[0]:
                    best = (pick[flat], flat, t, phi)
    xi = _direction(best[2], best[3])
    return sign * float(best[0]), _coords(keep, best[1]), xi, float(abs(best[0] - prev))


def positivity_report(
    h: MetricField, theta: CurvatureField, region=None, mode: str = "lower"
) -> PositivityReport:
    """Joint Griffiths/Nakano extraction with the ordering invariant enforced."""
    nakano = nakano_report(h, theta, region, mode)
    if h.grid.n == 1 or h.rank == 1:
        dg, arg_g, xi, net_err = _decomposable_report(nakano, h.rank)
    else:
        dg, arg_g, xi, net_err = griffiths_report(h, theta, region, mode)
    dn, arg_n, vec = nakano
    if mode == "upper":
        # for caps the ordering flips: max over tuples >= max over decomposables
        return PositivityReport(dg, max(dn, dg), arg_g, arg_n, xi, vec, mode, net_err)
    return PositivityReport(dg, dn, arg_g, arg_n, xi, vec, mode, net_err)


def check_nakano_pointwise_identity(
    theta: CurvatureField, gamma, h: MetricField
) -> float:
    """Max relative residual of the algebraic curvature-contraction identity.

    i c_{n-1} <Theta ^ gamma, gamma> against sum_jk (Theta_jk gamma^j, gamma^k) dV
    for an (n-1,0)-form gamma, where gamma^j are the coefficients in the
    hat-dz_j frame ordered so that dz_j ^ hat-dz_j is the full dz wedge.
    """
    n = gamma.grid.n
    if (gamma.p, gamma.q) != (n - 1, 0):
        raise PreconditionError(f"identity requires an (n-1,0)-form, got ({gamma.p},{gamma.q})")
    lhs = 1j * c_const(n - 1) * dv_density(pairing(curvature_wedge(theta, gamma), gamma, h))

    # dz_j ^ dz_rest = sign dz_full for the one j outside each (n-1)-set rest;
    # gamma^j is that sign times the rest's coefficient, and the two signs of
    # each term fold into one add or subtract
    hatted = {j: (sign, gamma.coeffs[..., src, 0, :]) for src, j, _, sign in grow_table(n, n - 1)}
    rhs = np.zeros(gamma.grid.shape, dtype=np.complex128)
    for j in range(n):
        sign_j, coeff_j = hatted[j]
        for k in range(n):
            sign_k, coeff_k = hatted[k]
            add_signed(rhs, sign_j * sign_k,
                       vector_inner(h, matrix_apply(theta.theta[..., j, k, :, :], coeff_j),
                                    coeff_k))
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


def check_basic_inequality(
    theta: CurvatureField, gamma, h: MetricField, delta: float, p: int
) -> dict:
    """Min slack of i c_{n-p} <Theta^gamma,gamma> ^ omega_{p-1} >= delta p |gamma|^2 dV.

    Purely algebraic; slack is reported as a density against dV together with
    the scale of the right-hand side.  Negative slack beyond roundoff means
    delta was not actually a Nakano floor.
    """
    n = gamma.grid.n
    if (gamma.p, gamma.q) != (n - p, 0):
        raise PreconditionError(f"inequality requires an (n-p,0)-form, got ({gamma.p},{gamma.q})")
    top = wedge(pairing(curvature_wedge(theta, gamma), gamma, h), omega_power(gamma.grid, p - 1))
    lhs = (1j * c_const(n - p) * dv_density(top)).real
    rhs = delta * p * norm_sq(gamma, h)
    slack = lhs - rhs
    return {
        "min_slack": float(slack.min()),
        "scale": float(np.abs(rhs).max()),
        "argmin": tuple(int(c) for c in np.unravel_index(int(np.argmin(slack)), slack.shape)),
    }
