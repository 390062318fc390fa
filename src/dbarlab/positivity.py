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
from .exterior import c_const, dv_density, grow_table, norm_sq, omega_power, pairing, wedge
from .grid import add_signed
from .hermitian import CurvatureField, curvature_wedge
from .metric import MetricField, matrix_apply

SYMMETRY_TOL = 1e-6
NET_SIDE = 16        # the direction net is NET_SIDE x NET_SIDE points (t, phi) on CP^1
REFINE_PASSES = 2    # each pass rescans 7 x 7 points at a fifth of the previous spacing


@dataclass
class PositivityReport:
    """Griffiths and Nakano floors read from one whitened stack.

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
    net_error: float = 0.0

    @property
    def ordering_tolerance(self) -> float:
        """Slack of delta_nakano <= delta_griffiths: 1e-9 of max(1, |delta_G|), plus net_error."""
        return 1e-9 * max(1.0, abs(self.delta_griffiths)) + self.net_error


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


def _nakano(keep, W: np.ndarray) -> tuple:
    """(delta, point, whitened eigenvector): one batched eigh of the nr x nr matrices."""
    n, points, r = W.shape[0], W.shape[2], W.shape[-1]
    vals, vecs = np.linalg.eigh(W.transpose(2, 0, 3, 1, 4).reshape(points, n * r, n * r))
    flat = int(np.argmin(vals[:, 0]))
    return float(vals[flat, 0]), _coords(keep, flat), vecs[flat, :, 0]


def _direction(t: float, phi: float) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t) * np.exp(1j * phi)])


def _griffiths(keep, W: np.ndarray, nakano: tuple | None = None) -> tuple:
    """(delta, point, xi, net_error) of the Griffiths form on the whitened stack.

    At n = 1 or rank 1 every tuple is decomposable, so this reads the Nakano
    extremum (nakano, when the caller already holds it): the direction is the
    single coordinate at n = 1, and at rank 1 the Nakano eigenvector is the
    tuple xi_j s itself, which whitening scales by one common factor, so its
    normalization is the direction.  Otherwise it scans the direction net.
    """
    n, r = W.shape[0], W.shape[-1]
    if n == 1 or r == 1:
        delta, coords, vec = _nakano(keep, W) if nakano is None else nakano
        xi = vec / np.linalg.norm(vec) if r == 1 else np.ones(1, dtype=np.complex128)
        return delta, coords, xi, 0.0
    rows = W.reshape(n * n, -1)
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
                weights = np.outer(np.conj(xi), xi).reshape(1, n * n)
                pick = np.linalg.eigvalsh((weights @ rows).reshape(-1, r, r))[:, 0]
                flat = int(np.argmin(pick))
                if pick[flat] < best[0]:
                    best = (pick[flat], flat, t, phi)
    xi = _direction(best[2], best[3])
    return float(best[0]), _coords(keep, best[1]), xi, float(abs(best[0] - prev))


def nakano_report(
    h: MetricField, theta: CurvatureField, region=None, symmetry_tol: float = SYMMETRY_TOL
) -> tuple:
    """(delta, argmin point, whitened eigenvector) of the Nakano quadratic form."""
    return _nakano(*_whitened_blocks(h, theta, region, symmetry_tol))


def griffiths_report(
    h: MetricField, theta: CurvatureField, region=None, symmetry_tol: float = SYMMETRY_TOL
) -> tuple:
    """(delta, argmin point, xi, net_error) for the Griffiths quadratic form.

    At n = 1 or rank 1 every tuple is decomposable, so this is the Nakano
    extraction and net_error is 0.  Otherwise (n = 2) it scans a
    NET_SIDE x NET_SIDE direction net on CP^1, then refines REFINE_PASSES
    times around the best direction.  net_error is the change of the
    extremum over the last refinement pass: a heuristic spread between
    passes, not a bound on the distance to the true floor.  The Griffiths
    cap of Theta is minus the floor of -Theta.
    """
    return _griffiths(*_whitened_blocks(h, theta, region, symmetry_tol))


def positivity_report(
    h: MetricField, theta: CurvatureField, region=None, symmetry_tol: float = SYMMETRY_TOL
) -> PositivityReport:
    """Both floors from one whitening and one Nakano eigh.

    The Griffiths floor reads the same stack: the Nakano extremum where every
    tuple is decomposable (n = 1 or rank 1), the direction net otherwise.
    """
    keep, W = _whitened_blocks(h, theta, region, symmetry_tol)
    nakano = _nakano(keep, W)
    dg, arg_g, xi, net_err = _griffiths(keep, W, nakano)
    dn, arg_n, vec = nakano
    return PositivityReport(dg, dn, arg_g, arg_n, xi, vec, net_err)


def check_nakano_pointwise_identity(
    theta: CurvatureField, gamma, h: MetricField
) -> float:
    """Max relative residual of the algebraic curvature-contraction identity.

    i c_{n-1} <Theta ^ gamma, gamma> against sum_jk (Theta_jk gamma^j, gamma^k) dV
    for an (n-1,0)-form gamma, where gamma^j are the coefficients in the
    hat-dz_j frame ordered so that dz_j ^ hat-dz_j is the full dz wedge.

    The right side is sum_jk gamma^k^H B_jk gamma^j with B_jk = h Theta_jk
    (the hermitian blocks B of Theta = h^-1 B), read as plain dot products
    of h gamma^k with Theta_jk gamma^j, not through the metric contraction:
    the left side pairs through h, so a wrong metric contraction there shows
    at every rank.
    """
    n = gamma.grid.n
    if (gamma.p, gamma.q) != (n - 1, 0):
        raise PreconditionError(f"identity requires an (n-1,0)-form, got ({gamma.p},{gamma.q})")
    lhs = 1j * c_const(n - 1) * dv_density(pairing(curvature_wedge(theta, gamma), gamma, h))

    # dz_j ^ dz_rest = sign dz_full for the one j outside each (n-1)-set rest;
    # gamma^j is that sign times the rest's coefficient, and the two signs of
    # each term fold into one add or subtract
    hatted = {j: (sign, gamma.coeffs[..., src, 0, :]) for src, j, _, sign in grow_table(n, n - 1)}
    h_hatted = {k: np.conj(matrix_apply(h.mat, coeff)) for k, (_, coeff) in hatted.items()}
    rhs = np.zeros(gamma.grid.shape, dtype=np.complex128)
    for j in range(n):
        sign_j, coeff_j = hatted[j]
        for k in range(n):
            add_signed(rhs, sign_j * hatted[k][0],
                       np.einsum("...a,...a->...", h_hatted[k],
                                 matrix_apply(theta.theta[..., j, k, :, :], coeff_j)))
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
