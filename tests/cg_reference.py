"""Real-space preconditioned CG for the minimal-norm dbar solve, the reference
for the Fourier-space loop in ``dbarlab.hormander.solve_min_norm``.

Every vector (z, r, p) lives on the lattice and every operator goes through
the package's real-space ``dbar`` and ``dbar_transpose``.  The weighted
preconditioner M = D^+H h D^+ is built the same way: D^+ = dbar^T B^+ and
D^+H = B^+ dbar, with B^+ the flat-symbol pseudoinverse of B = D D^H applied
through its own forward and back transform.  B^+ comes from a per-mode
eigen-decomposition of B (``symbol_eig``), a different algorithm from the
package's closed form D^H / |d|^2, and ``symbol_pinv`` is the per-mode D^+
it gives.  It runs no preconditions and no seam or bound bookkeeping: it is
the bare iteration, so that agreement with the fast path checks the spectral
operators, the cached per-mode pseudoinverse and the rescaled inner products.

``flat_reference_min_norm`` runs the same iteration preconditioned by B^+
alone, the yardstick for the weighted preconditioner's iteration counts.

Both stop with a SolverError at ``maxiter`` iterations, by default
10 ceil(sqrt(size of f)).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from dbarlab.errors import SolverError
from dbarlab.exterior import EForm
from dbarlab.hermitian import dbar
from dbarlab.hormander import _flat_symbol, dbar_transpose, norm2

# eigh's backward error is a few eps times the largest eigenvalue, so the
# exact cokernel zeros come out as +-O(eps * top); the cutoff sits well above
# that and far below the smallest genuine eigenvalue (2 pi/L)^2/4, which is
# ~3e-4 of the top at N = 64.
CUTOFF = 1e4 * np.finfo(np.float64).eps


@lru_cache(maxsize=16)
def symbol_eig(grid, p):
    """Eigen-decomposition of B = D D^H per mode: (vals, vecs, keep).

    Directions with eigenvalue at most CUTOFF times the global top are the
    exact cokernel bins (zeroed Nyquist/zero modes and transverse directions).
    """
    D = _flat_symbol(grid, p)
    vals, vecs = np.linalg.eigh(D @ np.conj(np.swapaxes(D, -1, -2)))
    keep = vals > vals.max() * CUTOFF
    return vals, vecs, keep


def _inverse_kept(vals, keep):
    return np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)


def symbol_pinv(grid, p):
    """Per-mode D^+ = D^H (D D^H)^+, with (D D^H)^+ = V diag(1/lambda) V^H over the kept
    eigenvalues."""
    vals, vecs, keep = symbol_eig(grid, p)
    B_pinv = np.einsum("...jm,...m,...km->...jk", vecs, _inverse_kept(vals, keep), np.conj(vecs))
    return np.conj(np.swapaxes(_flat_symbol(grid, p), -1, -2)) @ B_pinv


def _mode_transform(grid, coeffs, forward):
    axes = tuple(range(2 * grid.n))
    return np.fft.fftn(coeffs, axes=axes) if forward else np.fft.ifftn(coeffs, axes=axes)


def flat_pinv_apply(grid, p, coeffs):
    """Per-mode pseudoinverse of B = D D^H, applied through two transforms."""
    vals, vecs, keep = symbol_eig(grid, p)
    inv_vals = _inverse_kept(vals, keep)
    spec = _mode_transform(grid, coeffs, True)
    comp = np.einsum("...mj,...jr->...mr", np.conj(np.swapaxes(vecs, -1, -2)), spec[..., 0, :, :])
    comp = comp * inv_vals[..., None]
    spec[..., 0, :, :] = np.einsum("...jm,...mr->...jr", vecs, comp)
    return _mode_transform(grid, spec, False)


def reference_min_norm(f, h, tol=1e-10, maxiter=None):
    """Minimal-norm u with dbar u = f by real-space CG preconditioned with
    D^+H h D^+; returns (u, iterations)."""
    grid = f.grid
    n = grid.n
    p = f.q

    def weighted_pinv_apply(r):
        w = dbar_transpose(EForm(grid, f.rank, n, p, flat_pinv_apply(grid, p, r)))
        w.coeffs = np.einsum("...ab,...ijb->...ija", h.mat, w.coeffs)
        return flat_pinv_apply(grid, p, dbar(w).coeffs)

    return _reference_cg(f, h, weighted_pinv_apply, tol, maxiter)


def flat_reference_min_norm(f, h, tol=1e-10, maxiter=None):
    """The same real-space CG preconditioned with the flat B^+ alone."""
    return _reference_cg(f, h, lambda r: flat_pinv_apply(f.grid, f.q, r), tol, maxiter)


def _reference_cg(f, h, precondition, tol, maxiter):
    grid = f.grid
    n = grid.n
    p = f.q
    hinv = h.inverse_mat()

    def apply_A(z):
        w = dbar_transpose(EForm(grid, f.rank, n, p, z))
        w.coeffs = np.einsum("...ab,...ijb->...ija", hinv, w.coeffs)
        return dbar(w).coeffs

    def h2_norm(res):
        return np.sqrt(max(norm2(EForm(grid, f.rank, n, p, res), h), 0.0))

    if maxiter is None:
        maxiter = int(10 * np.ceil(np.sqrt(f.coeffs.size)))
    f_norm = np.sqrt(norm2(f, h))

    z = np.zeros_like(f.coeffs)
    r = f.coeffs.copy()
    Mr = precondition(r)
    rho = np.vdot(r, Mr).real
    pdir = Mr.copy()
    iterations = 0
    resid = h2_norm(r) / f_norm
    best_resid = resid
    best_z = z.copy()
    restarts = 0
    while resid > tol:
        if iterations >= maxiter:
            raise SolverError(f"reference CG hit the cap {maxiter} at {resid:.3e}")
        Ap = apply_A(pdir)
        pAp = np.vdot(pdir, Ap).real
        if pAp <= 0.0:
            raise SolverError("reference CG broke down")
        alpha = rho / pAp
        z += alpha * pdir
        r -= alpha * Ap
        Mr = precondition(r)
        rho_new = np.vdot(r, Mr).real
        beta = rho_new / rho
        rho = rho_new
        pdir = Mr + beta * pdir
        iterations += 1
        resid = h2_norm(r) / f_norm
        if resid < best_resid:
            best_resid = resid
            best_z = z.copy()
        elif resid > 10.0 * best_resid:
            if restarts >= 5:
                raise SolverError(f"reference CG stalled at {best_resid:.3e}")
            restarts += 1
            z = best_z.copy()
            r = f.coeffs - apply_A(z)
            Mr = precondition(r)
            rho = np.vdot(r, Mr).real
            pdir = Mr.copy()
            resid = h2_norm(r) / f_norm

    u = dbar_transpose(EForm(grid, f.rank, n, p, best_z if best_resid < resid else z))
    u.coeffs = np.einsum("...ab,...ijb->...ija", hinv, u.coeffs)
    return u, iterations
