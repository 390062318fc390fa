"""Quantitative curvature positivity: Griffiths and Nakano floors.

At each grid point the Nakano quadratic form on n-tuples of sections is the
nr x nr hermitian matrix with (k,j) block h Theta_jk, measured against the
Gram I_n (x) h; its smallest generalized eigenvalue (via Cholesky whitening)
is the pointwise Nakano floor.  The Griffiths floor restricts to decomposable
tuples s_j = xi_j s: for n = 1 both notions coincide exactly, for n = 2 the
direction xi is scanned over a net on the complex projective line with local
refinement around the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureSymmetryError, MetricError, PreconditionError
from .grid import GridSpec
from .hermitian import CurvatureField, MetricField

SYMMETRY_TOL = 1e-6


@dataclass
class PositivityReport:
    """Extracted curvature floors (or caps, for mode='upper')."""

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


def _region_indices(grid: GridSpec, h: MetricField, region):
    keep = h.unmasked()
    if region is not None:
        keep = keep & region
    if not keep.any():
        raise PreconditionError("no unmasked points in the requested region")
    return keep


def _gathered(h: MetricField, theta: CurvatureField, keep):
    hm = h.mat[keep]
    th = theta.theta[keep]
    return hm, th


def _nakano_matrices(hm: np.ndarray, th: np.ndarray, n: int, r: int) -> np.ndarray:
    """Stacked nr x nr matrices M[(k,a),(j,b)] = (h Theta_jk)_{ab}."""
    hT = np.einsum("...ac,...jkcb->...jkab", hm, th)
    # order blocks as (k, a) rows, (j, b) columns
    M = np.transpose(hT, (0, 2, 3, 1, 4)).reshape(hm.shape[0], n * r, n * r)
    return M


def _check_block_symmetry(M: np.ndarray, tol: float):
    defect = np.abs(M - np.conj(np.swapaxes(M, -1, -2))).max()
    scale = max(np.abs(M).max(), 1e-300)
    if defect > tol * scale:
        raise CurvatureSymmetryError(
            f"curvature violates hermitian block symmetry: {defect:.3e} vs scale {scale:.3e}"
        )


def _cholesky(hm: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors of the gathered (unmasked) metric matrices."""
    try:
        return np.linalg.cholesky(hm)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric is not positive definite at some unmasked point") from exc


def _whiten(M: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """C^{-1} M C^{-H} for stacked Cholesky factors C."""
    try:
        Cinv = np.linalg.inv(chol)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric Cholesky factor is singular at some unmasked point") from exc
    return Cinv @ M @ np.conj(np.swapaxes(Cinv, -1, -2))


def nakano_report(
    h: MetricField,
    theta: CurvatureField,
    region=None,
    mode: str = "lower",
    symmetry_tol: float = SYMMETRY_TOL,
) -> tuple:
    """(delta, argmin point, whitened eigenvector) of the Nakano quadratic form."""
    grid = h.grid
    n, r = grid.n, h.rank
    keep = _region_indices(grid, h, region)
    hm, th = _gathered(h, theta, keep)
    M = _nakano_matrices(hm, th, n, r)
    _check_block_symmetry(M, symmetry_tol)
    M = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
    chol = _cholesky(hm)
    big_chol = np.zeros((hm.shape[0], n * r, n * r), dtype=np.complex128)
    for j in range(n):
        big_chol[:, j * r : (j + 1) * r, j * r : (j + 1) * r] = chol
    white = _whiten(M, big_chol)
    vals, vecs = np.linalg.eigh(white)
    if mode == "lower":
        pick = vals[:, 0]
        flat = int(np.argmin(pick))
        vec = vecs[flat, :, 0]
    else:
        pick = vals[:, -1]
        flat = int(np.argmax(pick))
        vec = vecs[flat, :, -1]
    delta = float(pick[flat])
    coords = np.argwhere(keep)[flat]
    return delta, tuple(int(c) for c in coords), vec


def nakano_delta(
    h: MetricField, theta: CurvatureField, region=None, symmetry_tol: float = SYMMETRY_TOL
) -> float:
    """Grid minimum of the smallest generalized Nakano eigenvalue."""
    return nakano_report(h, theta, region, symmetry_tol=symmetry_tol)[0]


def _griffiths_matrices(hm, th, xi):
    """A(xi) = sum_jk xi_j conj(xi_k) h Theta_jk, stacked over points."""
    hT = np.einsum("...ac,...jkcb->...jkab", hm, th)
    return np.einsum("j,k,...jkab->...ab", xi, np.conj(xi), hT)


def griffiths_report(
    h: MetricField,
    theta: CurvatureField,
    region=None,
    mode: str = "lower",
    net_size: int = 256,
    refine_passes: int = 2,
    symmetry_tol: float = SYMMETRY_TOL,
) -> tuple:
    """(delta, argmin point, xi, net_error) for the Griffiths quadratic form.

    n = 1 reduces to the Nakano eigenproblem of the single block; n = 2 scans
    a direction net of ~net_size points on CP^1, then refines locally.
    """
    grid = h.grid
    n, r = grid.n, h.rank
    keep = _region_indices(grid, h, region)
    hm, th = _gathered(h, theta, keep)
    chol = _cholesky(hm)
    sign = 1.0 if mode == "lower" else -1.0

    def extreme_for(xi):
        A = _griffiths_matrices(hm, th, xi)
        A = 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))
        white = _whiten(sign * A, chol)
        vals = np.linalg.eigvalsh(white)
        pick = vals[:, 0]
        flat = int(np.argmin(pick))
        return sign * float(pick[flat]), flat

    if n == 1:
        # Griffiths and Nakano coincide in dimension one: same extraction path
        delta, coords, _vec = nakano_report(h, theta, region, mode, symmetry_tol)
        return delta, coords, np.array([1.0 + 0j]), 0.0

    kt = max(4, int(np.sqrt(net_size)))
    kphi = max(4, net_size // kt)
    ts = np.linspace(0.0, 0.5 * np.pi, kt)
    phis = np.linspace(0.0, 2.0 * np.pi, kphi, endpoint=False)

    def scan(t_values, phi_values):
        nonlocal best
        for t in t_values:
            for phi in phi_values:
                xi = np.array([np.cos(t), np.sin(t) * np.exp(1j * phi)])
                val, flat = extreme_for(xi)
                if (mode == "lower" and val < best[0]) or (
                    mode == "upper" and val > best[0]
                ):
                    best = (val, flat, t, phi)

    best = (np.inf if mode == "lower" else -np.inf, None, None, None)
    scan(ts, phis)
    dt = ts[1] - ts[0]
    dphi = phis[1] - phis[0]
    last_spread = abs(dt) + abs(dphi)
    for _ in range(refine_passes):
        t0, phi0 = best[2], best[3]
        prev = best[0]
        dt *= 0.2
        dphi *= 0.2
        scan(t0 + dt * np.arange(-3, 4), phi0 + dphi * np.arange(-3, 4))
        last_spread = abs(best[0] - prev)
    coords = np.argwhere(keep)[best[1]]
    xi = np.array([np.cos(best[2]), np.sin(best[2]) * np.exp(1j * best[3])])
    return best[0], tuple(int(c) for c in coords), xi, float(last_spread)


def griffiths_delta(h: MetricField, theta: CurvatureField, region=None) -> float:
    return griffiths_report(h, theta, region)[0]


def positivity_report(
    h: MetricField, theta: CurvatureField, region=None, mode: str = "lower"
) -> PositivityReport:
    """Joint Griffiths/Nakano extraction with the ordering invariant enforced."""
    dg, arg_g, xi, net_err = griffiths_report(h, theta, region, mode)
    dn, arg_n, vec = nakano_report(h, theta, region, mode)
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
    from .exterior import c_const, dv_density, grow_table, pairing
    from .hermitian import curvature_wedge
    from .metric import vector_inner

    n = gamma.grid.n
    if (gamma.p, gamma.q) != (n - 1, 0):
        raise PreconditionError(f"identity requires an (n-1,0)-form, got ({gamma.p},{gamma.q})")
    lhs = 1j * c_const(n - 1) * dv_density(pairing(curvature_wedge(theta, gamma), gamma, h)).values

    # dz_j ^ dz_rest = sign dz_full for the one j outside each (n-1)-set rest
    hatted = {j: sign * gamma.coeffs[..., src, 0, :] for src, j, _, sign in grow_table(n, n - 1)}
    rhs = np.zeros(gamma.grid.shape, dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            rhs += vector_inner(
                h.mat, np.einsum("...ab,...b->...a", theta.theta[..., j, k, :, :], hatted[j]),
                hatted[k],
            )
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
    from .exterior import c_const, dv_density, norm_sq, omega_power, pairing, wedge
    from .hermitian import curvature_wedge

    n = gamma.grid.n
    if (gamma.p, gamma.q) != (n - p, 0):
        raise PreconditionError(f"inequality requires an (n-p,0)-form, got ({gamma.p},{gamma.q})")
    top = wedge(pairing(curvature_wedge(theta, gamma), gamma, h), omega_power(gamma.grid, p - 1))
    lhs = (1j * c_const(n - p) * dv_density(top).values).real
    rhs = delta * p * norm_sq(gamma, h).values.real
    slack = lhs - rhs
    return {
        "min_slack": float(slack.min()),
        "scale": float(np.abs(rhs).max()),
        "argmin": tuple(int(c) for c in np.unravel_index(int(np.argmin(slack)), slack.shape)),
    }
