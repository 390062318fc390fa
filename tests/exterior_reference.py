"""The per-slot einsum metric contractions, kept as the reference the library must match.

Each contraction runs one three-operand einsum (t^H h s) per slot or slot
pair on the full metric stack, at every rank.  The library contracts a rank-1
metric as a real weight and a rank-1 norm over the whole coefficient stack;
at rank 1 it must agree with these to a few ulps of the pointwise scale, and
at rank > 1 bitwise.
"""

import numpy as np

from dbarlab.exterior import EForm, index_slot, wedge_basis


def vector_inner(mat, s, t):
    """Pointwise t^H h s for stacked matrices (..., r, r) and vectors (..., r)."""
    return np.einsum("...a,...ab,...b->...", np.conj(t), mat, s)


def pairing(a, b, h):
    """<a, b>_h, a scalar form of bidegree (pa+qb, qa+pb), one einsum per slot pair."""
    n = a.grid.n
    p, q = a.p + b.q, a.q + b.p
    out = EForm.zeros(a.grid, 1, p, q)
    pos_I = index_slot(n, p)
    pos_J = index_slot(n, q)
    conj_sign = (-1) ** (b.p * b.q)
    for Ia in a.dz_slots():
        for Ja in a.dzbar_slots():
            ca = a.slot(Ia, Ja)
            for Ib in b.dz_slots():
                for Jb in b.dzbar_slots():
                    sign, I, J = wedge_basis(Ia, Ja, Jb, Ib)
                    if sign == 0:
                        continue
                    scalar = vector_inner(h.mat, ca, b.slot(Ib, Jb))
                    out.coeffs[..., pos_I[I], pos_J[J], 0] += conj_sign * sign * scalar
    return out


def norm_sq(a, h):
    """Real density sum_IJ ||a_IJ||_h^2, one einsum per slot."""
    total = np.zeros(a.grid.shape, dtype=np.float64)
    for I in a.dz_slots():
        for J in a.dzbar_slots():
            c = a.slot(I, J)
            total += vector_inner(h.mat, c, c).real
    return total


def inner_product(a, b, h):
    """Complex density sum_IJ (a_IJ, b_IJ)_h, one einsum per slot."""
    total = np.zeros(a.grid.shape, dtype=np.complex128)
    for I in a.dz_slots():
        for J in a.dzbar_slots():
            total += vector_inner(h.mat, a.slot(I, J), b.slot(I, J))
    return total
