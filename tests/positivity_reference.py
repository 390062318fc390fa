"""Per-direction Griffiths scan, the reference for the whitened-once path in
``dbarlab.positivity.griffiths_report``.

For every direction xi of the net it forms h Theta contracted with xi from the
raw curvature, takes its hermitian part, inverts the Cholesky factor of h and
whitens again, then takes the eigenvalues over all points.  The net, the two
refinement passes and the spread between passes are those of the fast path,
so agreement checks the shared whitened stack and its per-direction
contraction.  It covers n = 2 at rank >= 2, the case that runs a net.
"""

from __future__ import annotations

import numpy as np

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
