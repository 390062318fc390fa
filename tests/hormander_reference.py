"""Dense minimal-norm oracle and the range-defect measure, references for
``dbarlab.hormander``.

``dense_min_norm`` builds the whitened dbar matrix column by column and
solves it with the Moore-Penrose inverse, a different algorithm from the
spectral CG of ``solve_min_norm``; it needs the pointwise square root of the
metric, kept here as ``sqrt_mat``.  ``range_projection_defect`` measures how
much of a source lies outside the discrete range of dbar.
"""

from __future__ import annotations

import numpy as np

from dbarlab.errors import MetricError, PreconditionError
from dbarlab.exterior import EForm, index_tuples
from dbarlab.grid import to_spectrum
from dbarlab.hermitian import dbar
from dbarlab.hormander import _range_defect
from dbarlab.metric import MetricField, matrix_apply

# eigh's backward error is a few eps times the largest eigenvalue at a point;
# a negative eigenvalue beyond this multiple of eps is not roundoff
EIGH_ROUNDOFF = 1e3 * np.finfo(np.float64).eps


def sqrt_mat(h: MetricField) -> np.ndarray:
    """Pointwise hermitian positive square root.

    Eigenvalues within eigh's roundoff below zero are set to zero; one
    further below raises, since the metric is then not positive there.
    """
    vals, vecs = np.linalg.eigh(h.mat)
    rel = vals[..., 0] / np.maximum(np.abs(vals).max(axis=-1), 1e-300)
    if rel.min() < -EIGH_ROUNDOFF:
        raise MetricError(
            f"metric is not positive: eigenvalue {rel.min():.3e} times its point's scale"
        )
    vals = np.clip(vals, 0.0, None)
    return np.einsum("...ab,...b,...cb->...ac", vecs, np.sqrt(vals), np.conj(vecs))


def range_projection_defect(f: EForm) -> float:
    """Relative l2 mass of the (n,p)-form f outside the exact discrete range of dbar."""
    return _range_defect(f.grid, f.q, to_spectrum(f.grid, f.coeffs)[..., 0, :, :])


def dense_min_norm(f: EForm, h: MetricField) -> EForm:
    """Dense minimal-norm oracle for small grids: pinv of the whitened matrix.

    Builds W2 T W1^{-1} column by column (W = pointwise sqrt of h) and solves
    with the Moore-Penrose inverse; practical for N <= 16 at n = 1.
    """
    grid = f.grid
    n = grid.n
    p = f.q
    if grid.N ** (2 * n) * f.rank * len(index_tuples(n, p - 1)) > 1024:
        raise PreconditionError("dense oracle restricted to small grids")
    sqrt_h = MetricField(grid, h.rank, sqrt_mat(h))
    inv_sqrt = np.linalg.inv(sqrt_h.mat)

    shape1 = grid.shape + (1, len(index_tuples(n, p - 1)), f.rank)
    dim1 = int(np.prod(shape1))
    shape2 = f.coeffs.shape
    dim2 = int(np.prod(shape2))
    cols = np.zeros((dim2, dim1), dtype=np.complex128)
    basis = np.zeros(dim1, dtype=np.complex128)
    for i in range(dim1):
        basis[:] = 0.0
        basis[i] = 1.0
        u = EForm.zeros(grid, f.rank, n, p - 1)
        u.coeffs[...] = basis.reshape(shape1)
        u.coeffs = matrix_apply(inv_sqrt, u.coeffs)
        Tu = dbar(u)
        Tu.coeffs = matrix_apply(sqrt_h.mat, Tu.coeffs)
        cols[:, i] = Tu.coeffs.ravel()
    f_white = matrix_apply(sqrt_h.mat, f.coeffs).ravel()
    u_white, *_ = np.linalg.lstsq(cols, f_white, rcond=1e-12)
    u = EForm.zeros(grid, f.rank, n, p - 1)
    u.coeffs[...] = u_white.reshape(shape1)
    u.coeffs = matrix_apply(inv_sqrt, u.coeffs)
    return u
