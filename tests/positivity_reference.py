"""Per-direction Griffiths scan, the reference for the whitened-once path in
``dbarlab.positivity.griffiths_report``.

For every direction xi of the net it forms h Theta contracted with xi from the
raw curvature, takes its hermitian part, inverts the Cholesky factor of h and
whitens again, then takes the eigenvalues over all points.  The net, the two
refinement passes and the spread between passes are those of the fast path,
so agreement checks the shared whitened stack and its per-direction
contraction.  It covers n = 2 at rank >= 2, the case that runs a net.

It also keeps the curvature-contraction residual with its sign products,
the hermitian block-symmetry defect of a curvature field, and the constant
curvature fields the tests build.
"""

from __future__ import annotations

import numpy as np

from dbarlab.exterior import c_const, dv_density, grow_table, pairing
from dbarlab.hermitian import CurvatureField, curvature_wedge
from dbarlab.metric import matrix_apply, vector_inner
from dbarlab.positivity import _whiten


def _griffiths_matrices(hm, th, xi):
    """A(xi) = sum_jk xi_j conj(xi_k) h Theta_jk, stacked over points."""
    hT = np.einsum("...ac,...jkcb->...jkab", hm, th)
    return np.einsum("j,k,...jkab->...ab", xi, np.conj(xi), hT)


def griffiths_report(h, theta, region=None, mode="lower", net_size=256, refine_passes=2):
    """(delta, argmin point, xi, net_error) from the per-direction scan."""
    keep = h.unmasked() if region is None else h.unmasked() & region
    hm = h.mat[keep]
    th = theta.theta[keep]
    chol = np.linalg.cholesky(hm)
    sign = 1.0 if mode == "lower" else -1.0

    def extreme_for(xi):
        A = _griffiths_matrices(hm, th, xi)
        A = 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))
        white = _whiten(sign * A, chol)
        vals = np.linalg.eigvalsh(white)
        pick = vals[:, 0]
        flat = int(np.argmin(pick))
        return sign * float(pick[flat]), flat

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


def nakano_pointwise_identity(theta, gamma, h):
    """The curvature-contraction residual with each hat-dz_j coefficient multiplied by its sign.

    The reference for ``check_nakano_pointwise_identity``, which folds the two
    signs of each term into one add or subtract.
    """
    n = gamma.grid.n
    lhs = 1j * c_const(n - 1) * dv_density(pairing(curvature_wedge(theta, gamma), gamma, h))
    hatted = {j: sign * gamma.coeffs[..., src, 0, :] for src, j, _, sign in grow_table(n, n - 1)}
    rhs = np.zeros(gamma.grid.shape, dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            rhs += vector_inner(h, matrix_apply(theta.theta[..., j, k, :, :], hatted[j]),
                                hatted[k])
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


def hermitian_defect(theta, h):
    """Max relative violation of h Theta_jk = (h Theta_kj)^H off the mask."""
    hT = np.einsum("...ac,...jkcb->...jkab", h.mat, theta.theta)
    swapped = np.conj(np.swapaxes(hT, -1, -2)).swapaxes(-4, -3)
    defect = np.abs(hT - swapped).max(axis=(-4, -3, -2, -1))
    scale = np.abs(hT).max(axis=(-4, -3, -2, -1))
    keep = h.unmasked()
    top = defect[keep].max()
    denom = max(scale[keep].max(), 1e-300)
    return float(top / denom)


def constant_curvature(grid, rank, blocks):
    """Curvature with the same (n, n, r, r) blocks at every point, a read-only broadcast."""
    blocks = np.array(blocks, dtype=np.complex128)
    return CurvatureField(grid, rank, np.broadcast_to(blocks, grid.shape + blocks.shape))
