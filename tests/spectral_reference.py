"""Per-direction spectral operators, the reference for the transform-once paths.

Each derivative here goes through ``dz_array``, which transforms its input
forward and back for every single direction: the connection and curvature
differentiate twice in sequence, dbar, del and the dbar transpose transform
a coefficient again for each k, and the band-limited field is an inverse FFT of the full,
mostly empty spectrum.  Agreement with ``dbarlab.hermitian`` and
``dbarlab.weights`` checks the shared spectra, the product multipliers and
the separable synthesis, including the order of the random draws.
"""

from __future__ import annotations

import numpy as np

from dbarlab.exterior import EForm, index_slot, insertion_sign
from dbarlab.grid import dz_array


def chern_connection(h):
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, h.rank, h.rank), dtype=np.complex128)
    if h.diag_log_weights is not None:
        for j in range(n):
            for a, phi in enumerate(h.diag_log_weights):
                out[..., j, a, a] = -dz_array(h.grid, phi.astype(np.complex128), j)
        return out
    hinv = h.inverse_mat()
    for j in range(n):
        out[..., j, :, :] = hinv @ dz_array(h.grid, h.mat, j, conjugate=False)
    return out


def curvature(h):
    """Theta coefficients, shape grid + (n, n, r, r)."""
    n = h.grid.n
    out = np.zeros(h.grid.shape + (n, n, h.rank, h.rank), dtype=np.complex128)
    if h.diag_log_weights is not None:
        for a, phi in enumerate(h.diag_log_weights):
            for j in range(n):
                dphi = dz_array(h.grid, phi.astype(np.complex128), j)
                for k in range(n):
                    out[..., j, k, a, a] = dz_array(h.grid, dphi, k, conjugate=True)
        return out
    theta_conn = chern_connection(h)
    for j in range(n):
        for k in range(n):
            out[..., j, k, :, :] = -dz_array(h.grid, theta_conn[..., j, :, :], k, conjugate=True)
    return out


def dbar(a):
    n = a.grid.n
    out = EForm.zeros(a.grid, a.rank, a.p, a.q + 1)
    pos_J = index_slot(n, a.q + 1)
    sign_p = (-1) ** a.p
    for Ipos, _I in enumerate(a.dz_slots()):
        for Jpos, J in enumerate(a.dzbar_slots()):
            c = a.coeffs[..., Ipos, Jpos, :]
            for k in range(n):
                if k in J:
                    continue
                s = sign_p * insertion_sign(k, J)
                target = tuple(sorted(J + (k,)))
                out.coeffs[..., Ipos, pos_J[target], :] += s * dz_array(
                    a.grid, c, k, conjugate=True
                )
    return out


def dpartial(a):
    n = a.grid.n
    out = EForm.zeros(a.grid, a.rank, a.p + 1, a.q)
    pos_I = index_slot(n, a.p + 1)
    for Ipos, I in enumerate(a.dz_slots()):
        for Jpos, _J in enumerate(a.dzbar_slots()):
            c = a.coeffs[..., Ipos, Jpos, :]
            for k in range(n):
                if k in I:
                    continue
                s = insertion_sign(k, I)
                target = tuple(sorted(I + (k,)))
                out.coeffs[..., pos_I[target], Jpos, :] += s * dz_array(
                    a.grid, c, k, conjugate=False
                )
    return out


def dbar_transpose(v):
    n = v.grid.n
    out = EForm.zeros(v.grid, v.rank, v.p, v.q - 1)
    pos_J = index_slot(n, v.q - 1)
    sign_p = (-1) ** v.p
    for Ipos, _I in enumerate(v.dz_slots()):
        for Jpos, J in enumerate(v.dzbar_slots()):
            c = v.coeffs[..., Ipos, Jpos, :]
            for k in J:
                Jm = tuple(i for i in J if i != k)
                s = sign_p * insertion_sign(k, Jm)
                out.coeffs[..., Ipos, pos_J[Jm], :] += s * (
                    -dz_array(v.grid, c, k, conjugate=False)
                )
    return out


def random_band_limited(grid, rng, kmax_frac=0.25, real=False):
    """Full-grid inverse FFT of a spectrum drawn on the kept modes in C order."""
    kmax = max(1, int(kmax_frac * grid.N / 2))
    spec = np.zeros(grid.shape, dtype=np.complex128)
    freqs = np.fft.fftfreq(grid.N) * grid.N
    keep_axis = np.abs(freqs) <= kmax
    keep = np.ones(grid.shape, dtype=bool)
    dims = 2 * grid.n
    for axis in range(dims):
        shape = [1] * dims
        shape[axis] = grid.N
        keep &= keep_axis.reshape(shape)
    count = int(keep.sum())
    spec[keep] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals = np.fft.ifftn(spec) * grid.N ** grid.n
    if real:
        vals = vals.real.astype(np.complex128)
    return vals
